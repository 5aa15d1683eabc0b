// CI regression gate ("is it still the same"): checks fresh BENCH_*.json
// outputs against the committed bench/perf_baseline.json.
//
//   bench_gate [--baseline=perf_baseline.json] [--dir=.]
//              [--update-baseline]
//
// Exit 0 when every gate passes; exit 1 with one FAIL line per violated
// gate otherwise. Exact gates pin deterministic counters (simulated
// event counts, profiler zone stats, retained trace bytes) bit-for-bit.
// The one ratio gate, eventloop.speedup, floors the slab-vs-legacy
// event-loop speedup measured in one process. "Is it faster" is
// perfbench/run.py against BENCHMARK.json (see EXPERIMENTS.md
// "Performance methodology").
//
// --update-baseline rewrites the baseline file in place with the values
// currently on disk (tolerances kept) — run it after an intentional
// workload change and commit the diff.

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/perf_gate.h"

namespace {

const char* str_arg(int argc, char** argv, const char* key,
                    const char* fallback) {
  const std::size_t n = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, n) == 0 && argv[i][n] == '=') {
      return argv[i] + n + 1;
    }
  }
  return fallback;
}

bool flag_arg(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return true;
  }
  return false;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  using seed::minijson::Value;
  const std::string baseline_path =
      str_arg(argc, argv, "--baseline", "perf_baseline.json");
  const std::string dir = str_arg(argc, argv, "--dir", ".");
  const bool update = flag_arg(argc, argv, "--update-baseline");

  std::vector<seed::gate::GateSpec> gates;
  try {
    gates = seed::gate::parse_baseline(
        seed::minijson::parse(read_file(baseline_path)));
  } catch (const std::exception& e) {
    std::cerr << "bench_gate: bad baseline " << baseline_path << ": "
              << e.what() << "\n";
    return 2;
  }

  // One parse per distinct bench file; a missing/corrupt file fails every
  // gate that points into it.
  std::map<std::string, Value> docs;
  int failures = 0;
  for (seed::gate::GateSpec& g : gates) {
    double actual = 0.0;
    try {
      auto it = docs.find(g.file);
      if (it == docs.end()) {
        it = docs.emplace(g.file,
                          seed::minijson::parse(read_file(dir + "/" + g.file)))
                 .first;
      }
      actual = seed::gate::extract_value(g, it->second);
    } catch (const std::exception& e) {
      std::cerr << g.name << ": " << e.what() << " FAIL\n";
      ++failures;
      continue;
    }
    if (update) {
      g.value = actual;
      continue;
    }
    const seed::gate::GateResult res = seed::gate::evaluate(g, actual);
    (res.pass ? std::cout : std::cerr) << res.detail << "\n";
    if (!res.pass) ++failures;
  }

  if (update) {
    if (failures != 0) {
      std::cerr << "bench_gate: refusing to update baseline with "
                << failures << " unreadable gate(s)\n";
      return 2;
    }
    std::ofstream out(baseline_path, std::ios::trunc | std::ios::binary);
    out << seed::gate::render_baseline(gates);
    std::cout << "updated " << baseline_path << " (" << gates.size()
              << " gates)\n";
    return 0;
  }

  if (failures != 0) {
    std::cerr << "bench_gate: " << failures << "/" << gates.size()
              << " gates FAILED\n";
    return 1;
  }
  std::cout << "bench_gate: all " << gates.size() << " gates pass\n";
  return 0;
}

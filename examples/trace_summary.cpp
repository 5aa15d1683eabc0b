// Replays a failure-lifecycle trace (JSONL, as written by
// Tracer::export_jsonl or SEED_TRACE=<path> on the benches) into the
// per-failure span summary table, or — with --lifecycle — into each
// failure's causal tree (seq/parent links) with per-stage latencies.
//
//   ./build/examples/trace_summary trace.jsonl              # summary table
//   ./build/examples/trace_summary --lifecycle trace.jsonl  # causal trees
//   ./build/examples/trace_summary < trace.jsonl            # from stdin
//   ./build/examples/trace_summary --demo                   # generate one
//   ./build/examples/trace_summary --prof BENCH_profile.json # zone report
//   ./build/examples/trace_summary --accuracy labeled.jsonl # accuracy view
//   ./build/examples/trace_summary --blackbox trace.jsonl   # post-mortems
//   ./build/examples/trace_summary --to-binary t.jsonl > t.bin # encode TLV
//   ./build/examples/trace_summary --convert t.bin > t.jsonl   # decode TLV
//
// --accuracy joins kGroundTruthLabel events (labeled scenario packs) to
// the kDiagnosisVerdict stream and prints the per-cause confusion
// matrix, precision/recall, and learner convergence curve.
//
// --blackbox writes only the post-mortem view to stdout: one JSONL
// blackbox per kTerminalFailure, each a header line followed by that
// UE's last 64 events (obs::blackboxes).
//
// --demo runs a SEED-U testbed through a control-plane and a data-plane
// failure with the tracer on, exports the events through a JSONL
// round-trip, and summarizes them — the full pipeline in one binary.
//
// Malformed JSONL lines (truncated tails of a crashed run, hand-edit
// damage) are skipped and counted; any skipped line makes the exit code
// 2 so scripts notice partial input, while the valid records still
// render.
//
// Binary captures (obs::export_binary, "SEEDTRC" magic) are
// auto-detected and decode through the same views; --convert re-emits a
// binary capture as JSONL on stdout for golden-diff tooling, and
// --to-binary encodes a JSONL trace as a binary capture on stdout (the
// two compose into the CI round-trip check). Corrupt
// binary input gets its own exit codes so scripts can triage: 3 = not a
// binary capture (--convert only), 4 = unknown version, 5 = truncated,
// 6 = over-length record, 7 = malformed record.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/minijson.h"
#include "eval/accuracy.h"
#include "obs/trace.h"
#include "obs/trace_binary.h"
#include "testbed/testbed.h"

namespace {

using namespace seed;

std::vector<obs::Event> demo_events() {
  using namespace seed::testbed;
  auto& tracer = obs::Tracer::instance();
  tracer.enable(true);

  Testbed tb(/*seed=*/42, device::Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  (void)tb.run_cp_failure(CpFailure::kIdentityDesync, sim::minutes(5));
  (void)tb.run_dp_failure(DpFailure::kOutdatedDnn, sim::minutes(5));

  // Round-trip through JSONL so --demo exercises the same path as
  // replaying a file.
  std::stringstream buf;
  tracer.export_jsonl(buf);
  return obs::Tracer::import_jsonl(buf);
}

void print_totals(std::ostream& os, const std::vector<obs::Event>& events) {
  constexpr int kMaxKind =
      static_cast<int>(obs::EventKind::kDiagnosisVerdict);
  std::size_t counts[kMaxKind + 1] = {};
  for (const obs::Event& e : events) ++counts[static_cast<int>(e.kind)];
  os << "event totals:";
  for (int k = 0; k <= kMaxKind; ++k) {
    if (counts[k] == 0) continue;
    os << ' ' << obs::event_kind_name(static_cast<obs::EventKind>(k)) << '='
       << counts[k];
  }
  os << '\n';
}

/// The prof_report view: renders a BENCH_profile[_full].json dump as a
/// per-zone cost table. Wall-time columns appear only when the dump
/// carries them (the *_full flavour); the committed deterministic dump
/// renders counts and bytes alone.
int prof_report(const char* path) {
  if (path == nullptr) {
    std::cerr << "trace_summary: --prof needs a profile json path\n";
    return 1;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "trace_summary: cannot open " << path << '\n';
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (buf.str().find_first_not_of(" \t\r\n") == std::string::npos) {
    std::cerr << "trace_summary: " << path << " is empty\n";
    return 1;
  }

  struct Row {
    std::string name;
    double calls, bytes, allocs, alloc_bytes, incl_us, excl_us;
    bool has_times;
  };
  std::vector<Row> rows;
  std::string workload;
  try {
    const minijson::Value doc = minijson::parse(buf.str());
    const minijson::Value& profile = doc.at("profile");
    workload = profile.at("workload").as_string();
    for (const minijson::Value& z : profile.at("zones").as_array()) {
      Row r{};
      r.name = z.at("name").as_string();
      r.calls = z.at("calls").as_number();
      r.bytes = z.at("bytes").as_number();
      r.allocs = z.at("allocs").as_number();
      r.alloc_bytes = z.at("alloc_bytes").as_number();
      if (const minijson::Value* t = z.find("excl_us")) {
        r.has_times = true;
        r.excl_us = t->as_number();
        r.incl_us = z.at("incl_us").as_number();
      }
      rows.push_back(std::move(r));
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_summary: " << path << ": not a profile dump ("
              << e.what() << ")\n";
    return 2;
  }
  if (rows.empty()) {
    std::cerr << "trace_summary: " << path << ": no zones recorded "
              << "(profiler disabled during the run?)\n";
    return 1;
  }

  const bool times = rows.front().has_times;
  // Hottest first when wall time is available, busiest first otherwise.
  std::sort(rows.begin(), rows.end(), [times](const Row& a, const Row& b) {
    return times ? a.excl_us > b.excl_us : a.calls > b.calls;
  });
  std::printf("profile: %s (%zu zones)\n", workload.c_str(), rows.size());
  std::printf("%-22s %10s %12s %8s %12s %9s %9s", "zone", "calls", "bytes",
              "allocs", "alloc_bytes", "allocs/op", "bytes/op");
  if (times) std::printf(" %10s %10s %9s", "incl_ms", "excl_ms", "ns/call");
  std::printf("\n");
  for (const Row& r : rows) {
    // Per-op amortized columns: a steady-state zero here is the zero-copy
    // contract; a fraction just under 1 usually means warm-up-only growth.
    const double per_call = r.calls > 0 ? 1.0 / r.calls : 0.0;
    std::printf("%-22s %10.0f %12.0f %8.0f %12.0f %9.3f %9.1f",
                r.name.c_str(), r.calls, r.bytes, r.allocs, r.alloc_bytes,
                r.allocs * per_call, r.alloc_bytes * per_call);
    if (times) {
      std::printf(" %10.3f %10.3f %9.0f", r.incl_us / 1e3, r.excl_us / 1e3,
                  r.calls > 0 ? r.excl_us * 1e3 / r.calls : 0.0);
    }
    std::printf("\n");
  }
  return 0;
}

/// Script-visible triage for corrupt binary captures (the binary twin of
/// the JSONL empty=1/malformed=2 convention).
int binary_exit(obs::BinaryError e) {
  switch (e) {
    case obs::BinaryError::kNone: return 0;
    case obs::BinaryError::kBadMagic: return 3;
    case obs::BinaryError::kBadVersion: return 4;
    case obs::BinaryError::kTruncated: return 5;
    case obs::BinaryError::kOverLength: return 6;
    case obs::BinaryError::kMalformed: return 7;
  }
  return 7;
}

void report_binary_error(const char* what, const obs::BinaryStats& st) {
  std::cerr << "trace_summary: " << what << ": "
            << obs::binary_error_name(st.error)
            << " at byte offset " << st.error_offset << " ("
            << st.records << " event(s) decoded before the damage)\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool lifecycle = false;
  bool demo = false;
  bool prof = false;
  bool accuracy = false;
  bool convert = false;
  bool to_binary = false;
  bool blackbox = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--lifecycle") {
      lifecycle = true;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--prof") {
      prof = true;
    } else if (arg == "--accuracy") {
      accuracy = true;
    } else if (arg == "--convert") {
      convert = true;
    } else if (arg == "--to-binary") {
      to_binary = true;
    } else if (arg == "--blackbox") {
      blackbox = true;
    } else {
      path = argv[i];
    }
  }
  if (prof) return prof_report(path);

  const char* what = path != nullptr ? path : "stdin";
  obs::ImportStats stats;
  obs::BinaryStats bstats;
  bool was_binary = false;
  std::vector<obs::Event> events;
  if (demo) {
    events = demo_events();
  } else {
    // Slurp the whole input (binary mode): format detection needs the
    // leading magic, and binary captures cannot stream line-by-line.
    std::string data;
    if (path != nullptr) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cerr << "trace_summary: cannot open " << path << '\n';
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      data = std::move(buf).str();
    } else {
      std::ostringstream buf;
      buf << std::cin.rdbuf();
      data = std::move(buf).str();
    }
    was_binary = obs::looks_binary(data);
    if (was_binary) {
      events = obs::TraceReader::decode(data, &bstats);
    } else if (convert) {
      std::cerr << "trace_summary: " << what
                << ": not a binary trace capture (no SEEDTRC magic); "
                   "--convert takes obs::export_binary output\n";
      return binary_exit(obs::BinaryError::kBadMagic);
    } else {
      std::istringstream in(data);
      events = obs::Tracer::import_jsonl(in, &stats);
      // Feed line totals back so the empty-input diagnostics below work
      // on the slurped path too.
    }
  }

  if (was_binary && bstats.error != obs::BinaryError::kNone) {
    report_binary_error(what, bstats);
    return binary_exit(bstats.error);
  }
  if (to_binary) {
    obs::export_binary(std::cout, events);
    std::cerr << "trace_summary: encoded " << events.size()
              << " event(s) as a binary capture\n";
    return stats.malformed != 0 ? 2 : 0;
  }
  if (convert) {
    for (const obs::Event& e : events) {
      obs::export_event_jsonl(std::cout, e);
    }
    std::cerr << "trace_summary: converted " << events.size()
              << " event(s), " << bstats.strings << " interned string(s)\n";
    return 0;
  }

  if (stats.malformed != 0) {
    std::cerr << "trace_summary: skipped " << stats.malformed
              << " malformed line(s) of " << stats.lines << '\n';
  }
  if (events.empty()) {
    const char* what = path != nullptr ? path : "stdin";
    if (stats.lines == 0) {
      std::cerr << "trace_summary: " << what
                << " is empty — nothing to summarize (usage: trace_summary "
                   "[--lifecycle|--prof] [file | --demo])\n";
    } else {
      std::cerr << "trace_summary: no trace events in " << stats.lines
                << " line(s) of " << what << " ("
                << (stats.malformed != 0 ? "malformed input"
                                         : "not a trace JSONL?")
                << ")\n";
    }
    return stats.malformed != 0 ? 2 : 1;
  }

  if (blackbox) {
    const std::vector<obs::Blackbox> boxes = obs::blackboxes(events);
    obs::export_blackboxes_jsonl(std::cout, boxes);
    std::cerr << "trace_summary: " << boxes.size() << " blackbox(es) from "
              << events.size() << " event(s)\n";
    return stats.malformed != 0 ? 2 : 0;
  }
  print_totals(std::cout, events);
  if (accuracy) {
    const eval::AccuracyReport report = eval::score(events);
    if (report.labels == 0) {
      std::cerr << "trace_summary: no ground-truth labels in this trace "
                   "(run a labeled scenario pack with tracing on)\n";
      return 1;
    }
    eval::print_text(std::cout, report);
    return stats.malformed != 0 ? 2 : 0;
  }
  if (lifecycle) {
    const std::vector<obs::LifecycleTree> trees =
        obs::Tracer::build_lifecycle(std::move(events));
    std::cout << "reconstructed " << trees.size() << " lifecycle tree(s)\n";
    obs::Tracer::print_lifecycle(std::cout, trees);
  } else {
    const std::vector<obs::SpanSummary> spans =
        obs::Tracer::assemble(std::move(events));
    std::cout << "parsed " << spans.size() << " failure span(s)\n";
    obs::Tracer::print_summary(std::cout, spans);
  }
  return stats.malformed != 0 ? 2 : 0;
}

// seedbench: one pass of one benchmark workload, reported as one JSON
// object on stdout. perfbench/run.py builds this program, runs the passes
// of a workload in separate processes and turns their reports into the
// end-to-end and per-layer metrics.
//
// Usage: seedbench --workload storm1k|metro10k|table4 --seed N
//                  --seconds S --pass e2e|traced|obsoff
//
// A pass repeats its workload in identical rounds (same seed, same
// inputs) until S wall seconds have been spent, with at least two rounds.
// Every simulated counter must come out the same in every round; the
// program exits 3 if one differs.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>

#include "bench.h"

namespace seedbench {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024ULL;
}

// ----- spans

namespace {
std::mutex g_names_mu;
std::vector<std::string>& span_names() {
  static std::vector<std::string> names;
  return names;
}
}  // namespace

std::uint32_t SpanLog::intern(const char* name) {
  const std::lock_guard<std::mutex> lock(g_names_mu);
  auto& names = span_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  }
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

SpanLog& SpanLog::local() {
  thread_local SpanLog log;
  return log;
}

std::int32_t SpanLog::open(std::uint32_t name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.t0 = wall_ns();
  spans_.push_back(s);
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void SpanLog::close(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].t1 = wall_ns();
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::map<std::string, SpanTotals> SpanLog::drain() {
  // Child time per span, then self = duration - children.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
  }
  std::vector<SpanTotals> by_id;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (by_id.size() <= s.name) by_id.resize(s.name + 1);
    SpanTotals& t = by_id[s.name];
    const std::uint64_t d = s.t1 - s.t0;
    ++t.count;
    t.incl_ns += d;
    t.self_ns += d - std::min(d, child_ns[i]);
  }
  std::map<std::string, SpanTotals> out;
  {
    const std::lock_guard<std::mutex> lock(g_names_mu);
    for (std::size_t id = 0; id < by_id.size(); ++id) {
      if (by_id[id].count > 0) out[span_names()[id]].add(by_id[id]);
    }
  }
  spans_.clear();
  stack_.clear();
  return out;
}

void add_counts(EventCounts& a, const EventCounts& b,
                const EventCounts& base) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    for (std::size_t o = 0; o <= kOrigins; ++o) a[k][o] += b[k][o] - base[k][o];
  }
}

void add_zones(std::map<std::string, seed::obs::ZoneStats>& acc,
               const std::vector<seed::obs::ProfRow>& rows) {
  for (const auto& r : rows) acc[r.name].add(r.stats);
}

// ----- JSON

void Json::sep() {
  if (!first_.back()) os_ << ',';
  first_.back() = false;
}

void Json::key(const char* k) {
  sep();
  if (k != nullptr) os_ << '"' << k << "\":";
}

Json& Json::begin(const char* k) {
  key(k);
  os_ << '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end() {
  os_ << '}';
  first_.pop_back();
  return *this;
}

Json& Json::begin_array(const char* k) {
  key(k);
  os_ << '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  os_ << ']';
  first_.pop_back();
  return *this;
}

Json& Json::num(const char* k, double v) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os_ << buf;
  return *this;
}

Json& Json::num(const char* k, std::uint64_t v) {
  key(k);
  os_ << v;
  return *this;
}

Json& Json::str(const char* k, const std::string& v) {
  key(k);
  os_ << '"' << v << '"';  // callers pass identifiers only
  return *this;
}

Json& Json::array(const char* k, const std::vector<double>& values) {
  begin_array(k);
  for (double v : values) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    os_ << buf;
  }
  return end_array();
}

void write_layers(Json& j,
                  const std::map<std::string, seed::obs::ZoneStats>& zones,
                  const std::map<std::string, SpanTotals>& spans,
                  const EventCounts& events) {
  j.begin("zones");
  for (const auto& [name, z] : zones) {
    j.begin(name.c_str())
        .num("calls", z.calls)
        .num("incl_ns", z.incl_ns)
        .num("excl_ns", z.excl_ns)
        .num("bytes", z.bytes)
        .end();
  }
  j.end();
  j.begin("spans");
  for (const auto& [name, s] : spans) {
    j.begin(name.c_str())
        .num("count", s.count)
        .num("incl_ns", s.incl_ns)
        .num("self_ns", s.self_ns)
        .end();
  }
  j.end();
  // Tracer events as "<origin>.<kind>" counts, plus "ok.<kind>" for the
  // events of a kind that carried ok (nonzero entries only).
  j.begin("events");
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::string kind(
        seed::obs::event_kind_name(static_cast<seed::obs::EventKind>(k)));
    for (std::size_t o = 0; o <= kOrigins; ++o) {
      if (events[k][o] == 0) continue;
      const std::string origin =
          o == kOrigins ? std::string("ok")
                        : std::string(seed::obs::origin_name(
                              static_cast<seed::obs::Origin>(o)));
      j.num((origin + "." + kind).c_str(), events[k][o]);
    }
  }
  j.end();
}

}  // namespace seedbench

namespace {

const char* arg_value(int argc, char** argv, const char* key) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return argv[i + 1];
  }
  return nullptr;
}

int usage() {
  std::cerr << "usage: seedbench --workload storm1k|metro10k|table4 "
               "--seed N --seconds S --pass e2e|traced|obsoff\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace seedbench;
  Options opt;
  const char* workload = arg_value(argc, argv, "--workload");
  const char* seed = arg_value(argc, argv, "--seed");
  const char* seconds = arg_value(argc, argv, "--seconds");
  const char* pass = arg_value(argc, argv, "--pass");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      pass == nullptr) {
    return usage();
  }
  opt.workload = workload;
  opt.seed = std::strtoull(seed, nullptr, 10);
  opt.seconds = std::strtod(seconds, nullptr);
  if (std::strcmp(pass, "e2e") == 0) {
    opt.pass = Pass::kE2e;
  } else if (std::strcmp(pass, "traced") == 0) {
    opt.pass = Pass::kTraced;
  } else if (std::strcmp(pass, "obsoff") == 0) {
    opt.pass = Pass::kObsOff;
  } else {
    return usage();
  }
  try {
    if (opt.workload == "storm1k" || opt.workload == "metro10k") {
      return run_storm(opt, std::cout);
    }
    if (opt.workload == "table4") return run_table4(opt, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "seedbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}

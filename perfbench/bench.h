// Shared plumbing of the seedbench driver: clocks, resident memory,
// benchmark-side spans, the counting trace observer and a tiny JSON
// writer. Everything here observes the simulator from the outside through
// public APIs; nothing is compiled into the libraries under src/.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/prof.h"
#include "obs/trace.h"

namespace seedbench {

/// Which of the three passes this process runs.
enum class Pass { kE2e, kTraced, kObsOff };

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  Pass pass = Pass::kE2e;
};

/// Rounds a pass runs at least, however short --seconds is: the round-
/// to-round counter check needs two.
constexpr std::size_t kMinRounds = 2;

std::uint64_t wall_ns();
std::uint64_t cpu_ns();  // whole-process user+sys CPU
std::uint64_t rss_bytes();
std::uint64_t peak_rss_bytes();

/// Nearest-rank percentile of an ascending-sorted vector (p in [0, 100]).
template <typename T>
T percentile_sorted(const std::vector<T>& v, double p) {
  if (v.empty()) return T{};
  auto k = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  k = std::clamp<std::size_t>(k, 1, v.size());
  return v[k - 1];
}

/// Median and p99 of each round's host-time samples. run.py reports the
/// median over rounds, which a few seconds of host contention cannot
/// move the way they move a pooled percentile.
struct RoundPercentiles {
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::uint64_t samples = 0;

  /// Takes one round's samples in ns; sorts and clears `ns`.
  void add_round(std::vector<std::uint32_t>& ns) {
    std::sort(ns.begin(), ns.end());
    p50_us.push_back(percentile_sorted(ns, 50) * 1e-3);
    p99_us.push_back(percentile_sorted(ns, 99) * 1e-3);
    samples += ns.size();
    ns.clear();
  }
};

// ----- benchmark-side spans (traced pass only)
//
// A span brackets one call from the benchmark into a layer (testbed
// construction, Simulator::run_for, FleetRunner::map). Spans nest through
// a per-thread stack; each records its parent so self time is the span's
// duration minus the part its children cover. Spans stay in memory and
// are folded into per-name totals when the pass ends.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t self_ns = 0;
  void add(const SpanTotals& o) {
    count += o.count;
    incl_ns += o.incl_ns;
    self_ns += o.self_ns;
  }
};

class SpanLog {
 public:
  static SpanLog& local();  // the calling thread's log

  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }
  std::int32_t open(std::uint32_t name);
  void close(std::int32_t idx);
  /// Per-name totals over every recorded span; clears the log.
  std::map<std::string, SpanTotals> drain();

  static std::uint32_t intern(const char* name);

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint32_t name) {
    SpanLog& log = SpanLog::local();
    if (log.enabled()) idx_ = log.open(name);
  }
  ~ScopedSpan() {
    if (idx_ >= 0) SpanLog::local().close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t idx_ = -1;
};

#define BENCH_SPAN(var, literal)                                         \
  static const std::uint32_t var##_id = ::seedbench::SpanLog::intern(literal); \
  const ::seedbench::ScopedSpan var(var##_id)

// ----- counting observer: tracer events by (kind, origin)
//
// Column kOrigins of a kind's row counts that kind's events with ok set
// (reset completions that succeeded, cache lookups that hit).
constexpr std::size_t kKinds = 32;
constexpr std::size_t kOrigins = 8;
using EventCounts =
    std::array<std::array<std::uint64_t, kOrigins + 1>, kKinds>;

class CountingObserver : public seed::obs::EventObserver {
 public:
  void on_trace_event(const seed::obs::Event& e) override {
    const auto k = static_cast<std::size_t>(e.kind);
    const auto o = static_cast<std::size_t>(e.origin);
    if (k >= kKinds || o >= kOrigins) return;
    ++counts_[k][o];
    if (e.ok) ++counts_[k][kOrigins];
  }
  const EventCounts& counts() const { return counts_; }

 private:
  EventCounts counts_{};
};

/// a += b - base, element-wise (base defaults to all zero).
void add_counts(EventCounts& a, const EventCounts& b,
                const EventCounts& base = EventCounts{});
void add_zones(std::map<std::string, seed::obs::ZoneStats>& acc,
               const std::vector<seed::obs::ProfRow>& rows);

// ----- minimal JSON emission
class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}
  Json& begin(const char* key = nullptr);  // object
  Json& end();
  Json& begin_array(const char* key);
  Json& end_array();
  Json& num(const char* key, double v);
  Json& num(const char* key, std::uint64_t v);
  Json& str(const char* key, const std::string& v);
  Json& array(const char* key, const std::vector<double>& values);

 private:
  void sep();
  void key(const char* k);
  std::ostream& os_;
  std::vector<bool> first_{true};
};

/// Writes everything a traced pass collects under "layers".
void write_layers(Json& j,
                  const std::map<std::string, seed::obs::ZoneStats>& zones,
                  const std::map<std::string, SpanTotals>& spans,
                  const EventCounts& events);

int run_storm(const Options& opt, std::ostream& out);
int run_table4(const Options& opt, std::ostream& out);

}  // namespace seedbench

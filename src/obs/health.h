// Fleet health engine (the SEED observability layer, half three).
//
// Evaluates SLOs over rolling *simulated-time* windows of the trace
// stream — recovery latency per reset tier, failure rate per cause,
// collab round-trip latency, diagnosis-cache hit rate — with
// multi-window burn-rate alerting and a pending → firing → resolved
// lifecycle, in the style of SRE error-budget policies. The engine is a
// strictly passive Tracer observer: it never schedules simulator work,
// never mutates tracer state, and is driven purely by event timestamps,
// so attaching it cannot perturb a run (bench outputs stay
// byte-identical) and identical runs produce byte-identical alert
// timelines regardless of wall-clock or worker count.
//
// Alert transitions are emitted back into the trace as kSloAlert events
// (which shard captures carry through the fleet merge) and as SLOG lines
// (optional), and recorded in an append-only timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace seed::obs {

/// What a monitor measures from the trace stream.
enum class SloSignal : std::uint8_t {
  kRecoveryLatency,  // injection -> kRecovered latency per span (ms)
  kFailureRate,      // kFailureDetected arrivals (per minute)
  kCollabRtt,        // §4.5 collab transfer prep+trans latency (ms)
  kCacheHitRate,     // Fig. 8 diagnosis-cache kCacheLookup hit fraction
};

/// Which statistic the monitor *reports* for its window (breach is
/// always decided by burn rate, not by the reported stat).
enum class SloStat : std::uint8_t { kP50, kP95, kRatePerMin, kMean };

std::string_view slo_signal_name(SloSignal s);
std::string_view slo_stat_name(SloStat s);

/// One service-level objective over the trace stream.
///
/// `threshold` is per-observation for latency signals (an observation
/// slower than it is "bad") and per-minute for kFailureRate; for
/// kCacheHitRate every miss is bad and threshold is unused. `budget` is
/// the tolerated bad fraction; the burn rate of a window is
/// bad_fraction / budget (rate signals use rate / threshold). An SLO
/// breaches when BOTH the short window (1 step) and the long window
/// (HealthConfig::long_window_steps steps) burn at >= 1.
struct SloSpec {
  std::string id;
  SloSignal signal = SloSignal::kRecoveryLatency;
  SloStat stat = SloStat::kP95;
  std::uint8_t tier = 0;   // kRecoveryLatency: match spans whose deepest
                           // reset used this tier (0 = any)
  std::uint8_t plane = 0;  // kFailureRate: 0 = control, 1 = data
  std::uint8_t cause = 0;  // kFailureRate: cause filter (0 = any)
  double threshold = 0.0;
  double budget = 0.1;
};

enum class AlertState : std::uint8_t {
  kInactive = 0,
  kPending,   // burning, not yet confirmed for fire_after evals
  kFiring,
  kResolved,  // terminal transition record; engine state returns inactive
};

std::string_view alert_state_name(AlertState s);

/// One alert-lifecycle transition, timestamped with the evaluation
/// boundary (simulated time) that caused it.
struct AlertRecord {
  std::int64_t at_us = 0;
  std::string slo;
  AlertState state = AlertState::kInactive;
  double value = 0.0;       // the SLO's reported stat over the long window
  double burn_short = 0.0;  // burn over the last step
  double burn_long = 0.0;   // burn over the long window

  bool operator==(const AlertRecord&) const = default;
};

struct HealthConfig {
  std::int64_t window_us = 30'000'000;  // one evaluation step: 30 sim-s
  int long_window_steps = 5;            // long window = 5 steps
  int fire_after = 2;    // consecutive burning evals: pending -> firing
  int resolve_after = 2; // consecutive clean evals: firing -> resolved
  bool emit_slog = true;  // SLOG(kInfo, "health") on each transition
  std::vector<SloSpec> slos;

  /// The stock SLO set used by bench_city_storm: per-plane failure-rate
  /// burn, all-tier and per-tier recovery latency, collab RTT, cache
  /// hit rate.
  static HealthConfig defaults();
};

/// Rolling per-SLO evaluation state plus lifetime totals (the totals
/// survive window turnover).
struct SloStatus {
  std::string id;
  AlertState state = AlertState::kInactive;
  std::uint64_t observations = 0;  // lifetime observations ingested
  std::uint64_t bad = 0;           // lifetime bad observations
  std::uint64_t evals = 0;         // window evaluations run
  std::uint64_t fired = 0;         // pending->firing transitions
  std::uint64_t resolved = 0;      // firing->resolved transitions
};

class HealthEngine : public EventObserver {
 public:
  explicit HealthEngine(HealthConfig config = HealthConfig::defaults());

  /// Passive tap: classifies the event into every matching SLO's
  /// current window, lazily evaluating any window boundaries the event's
  /// timestamp has crossed. Ignores kLog and its own kSloAlert events.
  void on_trace_event(const Event& e) override;

  /// Replay path: feeds a recorded stream through the same logic.
  void ingest(const std::vector<Event>& events);

  /// Closes out evaluation up to `up_to_us` (call at end of run so the
  /// final partial windows are judged; idempotent for the same time).
  void flush(std::int64_t up_to_us);

  const std::vector<AlertRecord>& alerts() const { return alerts_; }
  std::vector<SloStatus> status() const;
  const HealthConfig& config() const { return config_; }

  /// Deterministic JSON snapshot (BENCH_health.json): per-SLO status
  /// plus the full alert timeline. No wall-clock values.
  void dump_json(std::ostream& os) const;

 private:
  /// One evaluation step's aggregation for one SLO.
  struct Bucket {
    std::uint64_t count = 0;
    std::uint64_t bad = 0;
    double sum = 0.0;
    std::vector<double> values;
  };
  /// Live state of one SLO: the in-progress bucket, the ring of closed
  /// buckets making up the long window, and the alert state machine.
  struct SloState {
    SloSpec spec;
    Bucket current;
    std::deque<Bucket> ring;  // most recent closed step at the back
    AlertState state = AlertState::kInactive;
    int burning_evals = 0;
    int clean_evals = 0;
    SloStatus totals;
  };
  /// Minimal per-failure context for recovery-latency attribution.
  /// Keyed per UE when events carry a UE tag (multi-UE runs interleave
  /// spans, so the span id alone misattributes), per span otherwise.
  struct SpanLife {
    std::int64_t injected_us = 0;
    std::uint8_t max_tier = 0;
  };
  static std::uint64_t life_key(const Event& e);

  void observe_value(SloState& s, double value, bool is_bad);
  void evaluate_boundary(std::int64_t boundary_us);
  void advance_to(std::int64_t at_us);
  double window_value(const SloState& s) const;
  void transition(SloState& s, AlertState to, std::int64_t at_us,
                  double value, double burn_short, double burn_long);
  static double burn_of(const SloSpec& spec, const Bucket& agg,
                        std::int64_t span_us);

  HealthConfig config_;
  std::int64_t next_boundary_us_ = 0;
  bool in_emit_ = false;  // reentrancy guard for kSloAlert emission
  std::vector<SloState> slos_;
  std::map<std::uint64_t, SpanLife> span_life_;
  std::vector<AlertRecord> alerts_;
  /// window_value's reused buffer for the merged P50/P95 window.
  mutable std::vector<double> window_values_;
};

}  // namespace seed::obs

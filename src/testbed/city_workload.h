// The sharded city-storm workload behind BENCH_city.json's sampled
// 10k-UE section — the metro-scale trace-plane proof.
//
// A fixed number of shards, each a MultiTestbed mini-storm seeded by
// shard_seed(base_seed, shard): the Table 1 failure mix at one injection
// per UE per 2 simulated minutes, a rolling congestion wave, a per-shard
// health engine, and the tracer running under tail-based retention.
// Captures fold back in shard order through obs::merge_shard_obs, so the
// merged event stream — and therefore its binary export — is
// byte-identical for ANY worker count; the summed RetentionStats prove
// the bytes/UE bound that makes the 100k-UE storm feasible.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace seed::testbed {

struct CityWorkload {
  std::size_t shards = 8;
  std::size_t ues_per_shard = 1250;  // 8 x 1250 = the 10k-UE city
  long long storm_min = 6;
  std::uint64_t base_seed = 42;
  /// Tail retention (the sampled capture, at the default
  /// obs::RetentionPolicy ring depth). `retention = false` keeps every
  /// event — the full-capture oracle tests diff against.
  bool retention = true;
};

/// Merged output plus the deterministic counters the bench commits.
struct CityRun {
  std::vector<obs::Event> events;  // merged capture, shard order
  obs::RetentionStats retention;   // summed per-shard budget (zeros when
                                   // the workload ran unsampled)
  std::uint64_t injections = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t healthy = 0;
  std::uint64_t diag_reports_rx = 0;
  std::uint64_t terminal_failures = 0;  // kTerminalFailure in `events`
  std::uint64_t alert_transitions = 0;  // kSloAlert in `events`
};

/// Runs the workload on `workers` fleet threads (0 = hardware
/// concurrency). Deterministic: every field of the result depends only
/// on `w`, never on `workers` or scheduling. The calling thread's
/// tracer is used as the merge accumulator (cleared and renumbered from
/// 1) and handed back cleared and disabled.
CityRun run_city_workload(const CityWorkload& w, std::size_t workers);

}  // namespace seed::testbed

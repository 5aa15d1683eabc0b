// The canonical fleet profiling workload behind BENCH_profile.json.
//
// A fixed number of shards, each a small MultiTestbed mini-storm seeded
// by shard_seed(base_seed, shard), run through FleetRunner with an
// arbitrary worker count. Every shard records a profile capture
// (begin_shard_obs with profiling on), and the captures fold back in
// shard order through obs::merge_shard_obs — zone stats merge by name
// with commutative sums, so the merged rows are identical for ANY worker
// count. Only the deterministic half of the rows (calls/bytes/allocs and
// the bytes histogram) goes into the committed artifact; wall times ride
// along for the uncommitted *_full sidecar.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/prof.h"
#include "obs/trace.h"

namespace seed::testbed {

struct ProfileWorkload {
  std::size_t shards = 8;
  std::size_t ues_per_shard = 4;
  std::size_t injections_per_shard = 24;
  std::uint64_t base_seed = 4242;
  /// Per-UE ring depth for the shards' tail-retention tracer (the
  /// trace-volume half of the canonical workload).
  std::size_t trace_ring_depth = 32;
};

/// Merged output: profile rows plus the summed per-shard trace-volume
/// budget (each shard traces under tail-based retention, so the
/// canonical workload also pins the sampled capture's byte cost).
struct ProfileRun {
  std::vector<obs::ProfRow> rows;
  obs::RetentionStats trace;
};

/// Runs the workload on `workers` fleet threads (0 = hardware
/// concurrency) and returns the merged profile rows, sorted by zone
/// name, plus the trace budget. Byte-for-byte reproducible: the
/// deterministic fields of the result depend only on `w`, never on
/// `workers` or scheduling. Restores the calling thread's profiler to a
/// cleared, disabled state; the caller's tracer is left untouched
/// (shard trace events are accounted, then dropped).
ProfileRun run_profile_workload(const ProfileWorkload& w,
                                std::size_t workers);

}  // namespace seed::testbed

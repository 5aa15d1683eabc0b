// Per-shard observability capture for FleetRunner workloads.
//
// The Tracer/Registry/Logger singletons are thread-local, so each fleet
// worker thread owns an isolated obs world. A shard body brackets its run
// with begin_shard_obs()/end_shard_obs() on the worker, ships the capture
// back through the runner's ordered results, and the caller folds the
// captures into its own singletons with merge_shard_obs() **in shard
// order** — making merged metric dumps and trace exports independent of
// thread count and OS scheduling.
#pragma once

#include <vector>

#include "obs/prof.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace seed::obs {

/// One shard's observability output, detached from any thread.
struct ShardObs {
  std::vector<Event> trace_events;
  Registry metrics;
  std::vector<ProfRow> profile;
  /// Tail-retention budget (all-zero unless the shard body armed
  /// Tracer::set_retention); callers sum it across shards.
  RetentionStats retention;
};

/// Arms the calling thread's obs world for a shard: clears any state left
/// by a previous shard on this worker and enables the requested halves.
/// Profiling defaults OFF (matching the main-thread default); a workload
/// that wants a merged profile opts every shard in explicitly.
void begin_shard_obs(bool traces = true, bool metrics = true,
                     bool profile = false);

/// Snapshots and clears the calling thread's obs state; call at the end
/// of the shard body, still on the worker thread.
ShardObs end_shard_obs();

/// Folds a shard capture into the calling thread's singletons. Call in
/// shard order: tracer spans are renumbered in arrival order. Profile rows merge by zone name with
/// commutative sums, so the merged profile is identical for any worker
/// count or merge order.
void merge_shard_obs(ShardObs&& shard);

}  // namespace seed::obs

#include "obs/fleet_obs.h"

#include <utility>

namespace seed::obs {

void begin_shard_obs(bool traces, bool metrics, bool profile) {
  Tracer& t = Tracer::instance();
  t.clear();
  // Workers are reused across shards: a previous shard's retention policy
  // must not leak into one that never armed it, and the span/seq counters
  // must restart so a shard's raw id space (absorb renumbers on merge,
  // but the TLV byte budget sees the raw varint widths) is the same no
  // matter how many shards this thread already processed.
  t.clear_retention();
  t.reset_span_counter();
  t.enable(traces);
  Registry& r = Registry::instance();
  r.clear();
  r.enable(metrics);
  Profiler& p = Profiler::instance();
  p.clear();
  p.enable(profile);
}

ShardObs end_shard_obs() {
  ShardObs out;
  Tracer& t = Tracer::instance();
  // Close the sampled capture first: still-buffered healthy-UE events
  // age out before the final budget is read.
  if (t.retention_active()) {
    t.seal_retention();
    out.retention = t.retention_stats();
  }
  out.trace_events = t.events();
  t.enable(false);
  t.clear();
  t.clear_retention();
  // Detach the clock: it usually points at a shard-owned Simulator that
  // dies with the shard body.
  t.set_clock(nullptr);
  Registry& r = Registry::instance();
  out.metrics = r.snapshot();
  r.enable(false);
  r.clear();
  Profiler& p = Profiler::instance();
  out.profile = p.rows();
  p.enable(false);
  p.clear();
  return out;
}

void merge_shard_obs(ShardObs&& shard) {
  Tracer::instance().absorb(std::move(shard.trace_events));
  Registry::instance().merge_from(shard.metrics);
  Profiler::instance().absorb(shard.profile);
}

}  // namespace seed::obs

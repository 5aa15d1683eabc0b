#include "testbed/profile_workload.h"

#include <utility>

#include "obs/fleet_obs.h"
#include "simcore/fleet_runner.h"
#include "testbed/multi_testbed.h"

namespace seed::testbed {

namespace {

obs::ShardObs run_shard(const ProfileWorkload& w, const sim::ShardInfo& info) {
  // Profile capture plus a tail-sampled trace: metrics stay off, and the
  // tracer runs under retention so the shard also measures what the
  // sampled capture costs in bytes. Trace overhead lands in whatever
  // zone is open when an event is recorded (mostly sim.dispatch) — the
  // codec/crypto zones contain no emit sites, so their zero-alloc counts
  // are unaffected.
  obs::begin_shard_obs(/*traces=*/true, /*metrics=*/false,
                       /*profile=*/true);
  obs::RetentionPolicy retain;
  retain.ring_depth = w.trace_ring_depth;
  obs::Tracer::instance().set_retention(retain);

  MultiOptions o;
  o.ue_count = w.ues_per_shard;
  o.scheme = Scheme::kSeedU;
  o.diag_cache = true;
  // The outdated-DNN population exercises the downlink-assist zones
  // (diagcache digest/lookup, seedproto fragment/reassemble, modem/core
  // collab) at bring-up; the SEED-R mix plus the explicit policy-block
  // injection below covers the uplink-report zones.
  o.outdated_dnn_population = true;
  o.seed_r_every = 2;
  MultiTestbed mt(info.seed, o);
  mt.bring_up_all();

  // UE 0 runs SEED-R (seed_r_every == 2): a network-side policy block is
  // the one failure that must travel the DIAG-DNN uplink to heal.
  mt.inject_delivery(0, DeliveryFailure::kTcpBlock);
  mt.simulator().run_for(sim::minutes(2));

  for (std::size_t i = 0; i < w.injections_per_shard; ++i) {
    mt.inject_sampled(static_cast<corenet::UeId>(i % w.ues_per_shard));
    mt.simulator().run_for(sim::seconds(20));
  }
  mt.simulator().run_for(sim::minutes(2));

  return obs::end_shard_obs();
}

}  // namespace

ProfileRun run_profile_workload(const ProfileWorkload& w,
                                std::size_t workers) {
  const sim::FleetRunner runner(workers, w.base_seed);
  std::vector<obs::ShardObs> captures = runner.map<obs::ShardObs>(
      w.shards, [&](const sim::ShardInfo& info) { return run_shard(w, info); });

  // Fold in shard order on the calling thread. The caller's profiler is
  // used as the merge accumulator and handed back cleared; trace events
  // are dropped after their budget is summed (the workload's trace
  // deliverable is the byte accounting, not a merged capture).
  auto& prof = obs::Profiler::instance();
  prof.enable(false);
  prof.clear();
  ProfileRun run;
  for (obs::ShardObs& cap : captures) {
    run.trace += cap.retention;
    cap.trace_events.clear();
    obs::merge_shard_obs(std::move(cap));
  }
  run.rows = prof.rows();
  prof.clear();
  return run;
}

}  // namespace seed::testbed

#include "testbed/city_workload.h"

#include <utility>

#include "obs/fleet_obs.h"
#include "obs/health.h"
#include "seed/verdict.h"
#include "simcore/fleet_runner.h"
#include "testbed/multi_testbed.h"

namespace seed::testbed {

namespace {

struct CityShard {
  obs::ShardObs obs;
  std::uint64_t injections = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t healthy = 0;
  std::uint64_t diag_reports_rx = 0;
};

CityShard run_shard(const CityWorkload& w, const sim::ShardInfo& info) {
  obs::begin_shard_obs(/*traces=*/true, /*metrics=*/true);
  obs::Tracer& tracer = obs::Tracer::instance();
  if (w.retention) {
    obs::RetentionPolicy retain;
    retain.trigger = core::verdict_mismatch;
    tracer.set_retention(retain);
  }
  // The health engine sees the full stream (observers are notified for
  // every event, retained or not); its firing alerts are themselves a
  // retention trigger. SLOG echo off: shard stdout must stay quiet.
  obs::HealthConfig hc = obs::HealthConfig::defaults();
  hc.emit_slog = false;
  obs::HealthEngine health(hc);
  tracer.add_observer(&health);

  MultiOptions o;
  o.ue_count = w.ues_per_shard;
  o.scheme = Scheme::kSeedU;
  o.diag_cache = true;
  o.outdated_dnn_population = true;
  MultiTestbed city(info.seed, o);
  city.bring_up_all();

  // The bench_city_storm storm, shard-sized.
  CityShard out;
  out.injections = city.run_storm(sim::minutes(w.storm_min));
  const sim::Simulator& sim = city.simulator();
  health.flush(sim.now().time_since_epoch().count());
  tracer.remove_observer(&health);
  out.sim_events = sim.events_processed();
  out.healthy = city.healthy_count();
  out.diag_reports_rx = city.core().stats().diag_reports_rx;
  out.obs = obs::end_shard_obs();
  return out;
}

}  // namespace

CityRun run_city_workload(const CityWorkload& w, std::size_t workers) {
  const sim::FleetRunner runner(workers, w.base_seed);
  std::vector<CityShard> shards = runner.map<CityShard>(
      w.shards, [&](const sim::ShardInfo& info) { return run_shard(w, info); });

  // Merge on the calling thread's tracer, renumbered from 1 so repeated
  // runs (and different worker counts) produce identical id sequences.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(false);
  tracer.clear();
  tracer.clear_retention();
  tracer.reset_span_counter();
  CityRun run;
  for (CityShard& shard : shards) {
    run.retention += shard.obs.retention;
    run.injections += shard.injections;
    run.sim_events += shard.sim_events;
    run.healthy += shard.healthy;
    run.diag_reports_rx += shard.diag_reports_rx;
    tracer.absorb(std::move(shard.obs.trace_events));
  }
  run.events = tracer.events();
  tracer.clear();
  for (const obs::Event& e : run.events) {
    if (e.kind == obs::EventKind::kTerminalFailure) ++run.terminal_failures;
    if (e.kind == obs::EventKind::kSloAlert) ++run.alert_transitions;
  }
  return run;
}

}  // namespace seed::testbed

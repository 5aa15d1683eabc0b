// storm1k / metro10k: the bench_city_storm failure storm on one
// MultiTestbed, one simulator, one thread.
//
// A round builds the harness (timed as set-up), runs an untimed warm-up
// slice of the storm, then the timed storm: closed-loop steps of one
// sampled injection followed by Simulator::run_for over the next
// inter-arrival gap. A drain lets in-flight recoveries finish before the
// round's outcomes are scored.
//
// Outcomes are scored from outside the simulator: every injection opens a
// pending record for its UE, and the UE's data path is polled on a fixed
// simulated-time grid. The first healthy poll closes the record; it
// counts as ok unless the device notified its user in between (a
// user-action outcome). A second injection on a still-pending UE closes
// the first as superseded, and records still open after the drain are
// timeouts. Polling only reads device state, so the simulation is the
// same whether or not it runs.
#include <iostream>
#include <chrono>
#include <memory>
#include <optional>

#include "bench.h"
#include "obs/fleet_obs.h"
#include "obs/health.h"
#include "obs/registry.h"
#include "seed/verdict.h"
#include "testbed/multi_testbed.h"

namespace seedbench {

namespace {

using seed::testbed::MultiTestbed;
namespace sim = seed::sim;
namespace obs = seed::obs;

struct StormSpec {
  std::size_t ues;
  double warmup_s;  // storm slice before the timed phase
  double storm_s;   // timed storm
  double drain_s;   // after the storm, before scoring
};

/// storm1k is bench_city_storm's 10 simulated minutes (the first one
/// untimed) plus its 3-minute drain. metro10k is shorter in simulated
/// time, since its set-up alone takes about 2 s of host time, but its 10x
/// injection rate still gives some 10,000 timed failures per round.
StormSpec spec_of(const std::string& workload) {
  if (workload == "metro10k") return {10000, 20.0, 120.0, 60.0};
  return {1000, 60.0, 540.0, 180.0};
}

// Storm constants of bench_city_storm: one injection per UE per two
// simulated minutes on average, a congestion wave over 5% of the city
// every 30 s lasting 12 s.
constexpr double kMeanGapPerUeS = 120.0;
constexpr std::int64_t kPollUs = 100'000;

/// Every simulated quantity a round produces. Rounds and passes of the
/// same seed must agree on all of it.
struct RoundSim {
  std::uint64_t injections = 0;  // timed storm only
  std::uint64_t warmup_injections = 0;
  std::uint64_t sim_events = 0;  // in the timed storm
  std::uint64_t events_total = 0;
  std::uint64_t attempted = 0;  // warm-up + timed injections
  std::uint64_t ok = 0;
  std::uint64_t user_action = 0;
  std::uint64_t superseded = 0;
  std::uint64_t timeouts = 0;
  std::int64_t disruption_p75_us = 0;
  std::int64_t disruption_p90_us = 0;
  std::uint64_t healthy = 0;
  std::uint64_t cache_hits = 0;  // whole round
  std::uint64_t cache_misses = 0;
  // Timed-storm deltas behind the per-layer ratios.
  std::uint64_t cache_hits_timed = 0;
  std::uint64_t cache_misses_timed = 0;
  std::uint64_t cache_invalidations_timed = 0;
  std::uint64_t aka_setup = 0;
  std::uint64_t aka_timed = 0;
  std::uint64_t nas_rx_timed = 0;
  std::uint64_t rejects_timed = 0;
  std::uint64_t diag_downlinks_timed = 0;
  std::uint64_t registrations_timed = 0;
  std::uint64_t queue_p50 = 0;
  std::uint64_t queue_max = 0;

  bool operator==(const RoundSim&) const = default;
};

struct CoreSnap {
  seed::corenet::CoreStats core;
  seed::core::DiagnosisCache::Stats cache;
  std::uint64_t registrations = 0;
  std::uint64_t events = 0;
};

CoreSnap snap(MultiTestbed& city) {
  CoreSnap s;
  s.core = city.core().stats();
  if (const auto* c = city.core().diag_cache()) s.cache = c->stats();
  for (std::size_t i = 0; i < city.ue_count(); ++i) {
    s.registrations += city.dev(i).modem().stats().registrations_attempted;
  }
  s.events = city.simulator().events_processed();
  return s;
}

/// Outcome bookkeeping for open injections.
class Scorer {
 public:
  Scorer(MultiTestbed& city, RoundSim& out)
      : city_(city), out_(out), slot_(city.ue_count(), -1) {}

  void opened(std::uint32_t ue, std::int64_t now_us) {
    if (slot_[ue] >= 0) {
      ++out_.superseded;
      remove(static_cast<std::size_t>(slot_[ue]));
    }
    slot_[ue] = static_cast<std::int32_t>(open_.size());
    open_.push_back({ue, now_us, city_.dev(ue).user_notifications()});
    ++out_.attempted;
  }

  void poll(std::int64_t now_us) {
    for (std::size_t i = open_.size(); i-- > 0;) {
      const Open o = open_[i];
      seed::device::Device& dev = city_.dev(o.ue);
      if (!dev.traffic().path_healthy()) continue;
      if (dev.user_notifications() != o.notifications) {
        ++out_.user_action;
      } else {
        ++out_.ok;
        disruptions_.push_back(now_us - o.t0_us);
      }
      remove(i);
    }
  }

  void finish() {
    out_.timeouts += open_.size();
    std::sort(disruptions_.begin(), disruptions_.end());
    out_.disruption_p75_us = percentile_sorted(disruptions_, 75);
    out_.disruption_p90_us = percentile_sorted(disruptions_, 90);
  }

 private:
  struct Open {
    std::uint32_t ue;
    std::int64_t t0_us;
    std::uint64_t notifications;
  };

  void remove(std::size_t i) {
    slot_[open_[i].ue] = -1;
    if (i + 1 != open_.size()) {
      open_[i] = open_.back();
      slot_[open_[i].ue] = static_cast<std::int32_t>(i);
    }
    open_.pop_back();
  }

  MultiTestbed& city_;
  RoundSim& out_;
  std::vector<std::int32_t> slot_;
  std::vector<Open> open_;
  std::vector<std::int64_t> disruptions_;
};

std::int64_t now_us(sim::Simulator& s) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             s.now().time_since_epoch())
      .count();
}

/// Host-time measurements of one pass, summed over its rounds.
struct Timing {
  std::vector<double> setup_s;
  std::vector<double> bringup_s;
  std::vector<double> round_wall_s;  // timed storm, per round
  std::vector<double> round_cpu_s;
  std::vector<std::uint32_t> step_ns;    // this round's timed steps
  std::vector<std::uint32_t> inject_ns;  // and their inject calls
  RoundPercentiles steps;
  RoundPercentiles injects;
  std::uint64_t rss_growth_bytes = 0;  // first round's bring-up
};

struct ObsTotals {
  obs::RetentionStats retention;
  std::uint64_t series_dropped = 0;
};

class StormRound {
 public:
  StormRound(const Options& opt, const StormSpec& spec)
      : opt_(opt), spec_(spec) {}

  RoundSim run(Timing& t, ObsTotals& obs_totals, EventCounts& events,
               std::map<std::string, obs::ZoneStats>& zones) {
    const bool obs_on = opt_.pass != Pass::kObsOff;
    const bool traced = opt_.pass == Pass::kTraced;
    // The observability plane as testbed::CityWorkload deploys it. The
    // profiler and the event counts cover the timed storm only.
    obs::begin_shard_obs(obs_on, obs_on, /*profile=*/false);
    std::optional<obs::HealthEngine> health;
    CountingObserver counter;
    obs::Tracer& tracer = obs::Tracer::instance();
    if (obs_on) {
      obs::RetentionPolicy retain;
      retain.ring_depth = 32;
      retain.trigger = seed::core::verdict_mismatch;
      tracer.set_retention(retain);
      obs::Registry::instance().set_series_limit(256);
      obs::HealthConfig hc = obs::HealthConfig::defaults();
      hc.emit_slog = false;
      health.emplace(hc);
      tracer.add_observer(&*health);
    }
    if (traced) tracer.add_observer(&counter);
    SpanLog::local().enable(traced);

    RoundSim r;
    seed::testbed::MultiOptions mo;
    mo.ue_count = spec_.ues;
    mo.scheme = seed::testbed::Scheme::kSeedU;
    mo.diag_cache = true;
    mo.outdated_dnn_population = true;

    const std::uint64_t rss0 = rss_bytes();
    const std::uint64_t w0 = wall_ns();
    std::unique_ptr<MultiTestbed> city;
    {
      BENCH_SPAN(construct, "testbed.construct");
      city = std::make_unique<MultiTestbed>(opt_.seed, mo);
    }
    const std::uint64_t w1 = wall_ns();
    {
      BENCH_SPAN(bringup, "testbed.bring_up");
      city->bring_up_all();
    }
    const std::uint64_t w2 = wall_ns();
    t.setup_s.push_back(static_cast<double>(w2 - w0) * 1e-9);
    t.bringup_s.push_back(static_cast<double>(w2 - w1) * 1e-9);
    if (t.setup_s.size() == 1) {
      const std::uint64_t rss1 = rss_bytes();
      t.rss_growth_bytes = rss1 > rss0 ? rss1 - rss0 : 0;
    }
    r.aka_setup = city->core().stats().auth_vectors;

    sim::Simulator& s = city->simulator();
    sim::Rng& rng = city->rng();
    Scorer scorer(*city, r);
    city->start_rolling_congestion(sim::seconds(30), sim::seconds(12), 0.05);
    std::int64_t next_poll = now_us(s) + kPollUs;
    const double max_gap = 2.0 * kMeanGapPerUeS / static_cast<double>(spec_.ues);
    std::vector<std::uint32_t> queue;

    // One storm step; `timed` records its host time.
    auto step = [&](bool timed) {
      const auto ue = static_cast<seed::corenet::UeId>(
          rng.uniform_int(0, static_cast<int>(spec_.ues) - 1));
      scorer.opened(ue, now_us(s));
      const std::uint64_t a = wall_ns();
      {
        BENCH_SPAN(inject, "testbed.inject");
        city->inject_sampled(ue);
      }
      const std::uint64_t b = wall_ns();
      {
        BENCH_SPAN(run_for, "sim.run_for");
        s.run_for(sim::secs_f(rng.uniform(0.0, max_gap)));
      }
      const std::uint64_t c = wall_ns();
      if (timed) {
        t.step_ns.push_back(static_cast<std::uint32_t>(c - a));
        t.inject_ns.push_back(static_cast<std::uint32_t>(b - a));
        queue.push_back(static_cast<std::uint32_t>(s.queued()));
      }
      if (now_us(s) >= next_poll) {
        BENCH_SPAN(poll, "bench.poll");
        scorer.poll(now_us(s));
        while (next_poll <= now_us(s)) next_poll += kPollUs;
      }
    };

    const auto warm_end = s.now() + sim::secs_f(spec_.warmup_s);
    while (s.now() < warm_end) {
      step(false);
      ++r.warmup_injections;
    }

    const CoreSnap before = snap(*city);
    const EventCounts events_before = counter.counts();
    obs::Profiler::instance().enable(traced);
    const std::uint64_t c0 = cpu_ns();
    const std::uint64_t t0 = wall_ns();
    const auto storm_end = s.now() + sim::secs_f(spec_.storm_s);
    {
      BENCH_SPAN(storm, "bench.storm");
      while (s.now() < storm_end) {
        step(true);
        ++r.injections;
      }
    }
    const std::uint64_t t1 = wall_ns();
    const std::uint64_t c1 = cpu_ns();
    obs::Profiler::instance().enable(false);
    add_counts(events, counter.counts(), events_before);
    const CoreSnap after = snap(*city);
    t.round_wall_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    t.round_cpu_s.push_back(static_cast<double>(c1 - c0) * 1e-9);
    t.steps.add_round(t.step_ns);
    t.injects.add_round(t.inject_ns);

    // Drain on the poll grid, then score.
    const auto drain_end = s.now() + sim::secs_f(spec_.drain_s);
    while (s.now() < drain_end) {
      s.run_for(sim::us(kPollUs));
      scorer.poll(now_us(s));
    }
    scorer.finish();

    r.sim_events = after.events - before.events;
    r.events_total = s.events_processed();
    r.healthy = city->healthy_count();
    if (const auto* c = city->core().diag_cache()) {
      r.cache_hits = c->stats().hits;
      r.cache_misses = c->stats().misses;
    }
    r.cache_hits_timed = after.cache.hits - before.cache.hits;
    r.cache_misses_timed = after.cache.misses - before.cache.misses;
    r.cache_invalidations_timed =
        after.cache.invalidations - before.cache.invalidations;
    r.aka_timed = after.core.auth_vectors - before.core.auth_vectors;
    r.nas_rx_timed = after.core.nas_rx - before.core.nas_rx;
    r.rejects_timed = after.core.rejects_sent - before.core.rejects_sent;
    r.diag_downlinks_timed =
        after.core.diag_downlinks - before.core.diag_downlinks;
    r.registrations_timed = after.registrations - before.registrations;
    std::sort(queue.begin(), queue.end());
    r.queue_p50 = percentile_sorted(queue, 50);
    r.queue_max = queue.empty() ? 0 : queue.back();

    if (health) {
      health->flush(now_us(s));
      tracer.remove_observer(&*health);
    }
    if (traced) tracer.remove_observer(&counter);
    obs::ShardObs shard = obs::end_shard_obs();
    obs_totals.retention += shard.retention;
    obs_totals.series_dropped += shard.metrics.series_dropped();
    add_zones(zones, shard.profile);
    city.reset();
    return r;
  }

 private:
  const Options& opt_;
  StormSpec spec_;
};

void write_sim(Json& j, const RoundSim& r) {
  j.begin("sim")
      .num("injections", r.injections)
      .num("warmup_injections", r.warmup_injections)
      .num("sim_events", r.sim_events)
      .num("events_total", r.events_total)
      .num("attempted", r.attempted)
      .num("ok", r.ok)
      .num("user_action", r.user_action)
      .num("superseded", r.superseded)
      .num("timeouts", r.timeouts)
      .num("disruption_p75_us", static_cast<std::uint64_t>(r.disruption_p75_us))
      .num("disruption_p90_us", static_cast<std::uint64_t>(r.disruption_p90_us))
      .num("healthy", r.healthy)
      .num("cache_hits", r.cache_hits)
      .num("cache_misses", r.cache_misses)
      .num("cache_hits_timed", r.cache_hits_timed)
      .num("cache_misses_timed", r.cache_misses_timed)
      .num("cache_invalidations_timed", r.cache_invalidations_timed)
      .num("aka_setup", r.aka_setup)
      .num("aka_timed", r.aka_timed)
      .num("nas_rx_timed", r.nas_rx_timed)
      .num("rejects_timed", r.rejects_timed)
      .num("diag_downlinks_timed", r.diag_downlinks_timed)
      .num("registrations_timed", r.registrations_timed)
      .num("queue_p50", r.queue_p50)
      .num("queue_max", r.queue_max)
      .end();
}

}  // namespace

int run_storm(const Options& opt, std::ostream& out) {
  const StormSpec spec = spec_of(opt.workload);
  StormRound round(opt, spec);
  Timing t;
  ObsTotals obs_totals;
  EventCounts events{};
  std::map<std::string, obs::ZoneStats> zones;

  const std::uint64_t start = wall_ns();
  std::optional<RoundSim> first;
  std::uint64_t peak_rss = 0;
  std::size_t rounds = 0;
  while (rounds < kMinRounds ||
         static_cast<double>(wall_ns() - start) * 1e-9 < opt.seconds) {
    const RoundSim r = round.run(t, obs_totals, events, zones);
    ++rounds;
    if (!first) {
      first = r;
      // Later rounds reuse this round's memory, while the benchmark's own
      // records grow with the round count, which depends on host speed.
      peak_rss = peak_rss_bytes();
    } else if (!(r == *first)) {
      std::cerr << "seedbench: round " << rounds
                << " simulated counters differ from round 1\n";
      return 3;
    }
  }
  const std::map<std::string, SpanTotals> spans = SpanLog::local().drain();

  Json j(out);
  j.begin()
      .str("workload", opt.workload)
      .num("seed", opt.seed)
      .num("rounds", static_cast<std::uint64_t>(rounds))
      .num("ues", static_cast<std::uint64_t>(spec.ues));
  write_sim(j, *first);
  j.array("setup_s", t.setup_s)
      .array("bringup_s", t.bringup_s)
      .array("round_wall_s", t.round_wall_s)
      .array("round_cpu_s", t.round_cpu_s)
      .array("round_step_p50_us", t.steps.p50_us)
      .array("round_step_p99_us", t.steps.p99_us)
      .array("round_inject_p50_us", t.injects.p50_us);
  j.begin("timing")
      .num("steps", t.steps.samples)
      .num("peak_rss_mb", static_cast<double>(peak_rss) / 1048576.0)
      .num("rss_growth_bytes", t.rss_growth_bytes)
      .end();
  j.begin("obs")
      .num("events_retained", obs_totals.retention.events_retained)
      .num("events_aged_out", obs_totals.retention.events_aged_out)
      .num("bytes_retained", obs_totals.retention.bytes_retained)
      .num("ues_retained", obs_totals.retention.ues_retained)
      .num("series_dropped", obs_totals.series_dropped)
      .end();
  if (opt.pass == Pass::kTraced) {
    j.begin("layers");
    write_layers(j, zones, spans, events);
    j.end();
  }
  j.end();
  out << "\n";
  return 0;
}

}  // namespace seedbench

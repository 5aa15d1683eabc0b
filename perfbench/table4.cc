// table4: the paper's Table 4 sweep, one fresh single-UE Testbed per
// scenario.
//
// Legacy / SEED-U / SEED-R x control-plane / data-plane / data-delivery,
// with the job lists of bench_table4_disruption: the Table 1 mix is
// pre-sampled per plane and every scheme replays the same jobs with the
// same testbed seeds. A scenario is construction, bring-up (registration
// and 5G-AKA), one injected failure and the wait for recovery or timeout.
// A round maps every scenario through one FleetRunner::map call on one
// worker; the traced pass adds one two-worker round for the scaling ratio.
#include <iostream>
#include <memory>
#include <optional>

#include "bench.h"
#include "metrics/stats.h"
#include "obs/fleet_obs.h"
#include "simcore/fleet_runner.h"
#include "testbed/testbed.h"

namespace seedbench {

namespace {

namespace sim = seed::sim;
namespace obs = seed::obs;
using seed::testbed::CpFailure;
using seed::testbed::DeliveryFailure;
using seed::testbed::DpFailure;
using seed::testbed::SampledFailure;
using seed::testbed::Scheme;
using seed::testbed::Testbed;

constexpr std::size_t kRunsPerCell = 1000;
constexpr std::size_t kHeldHarnesses = 256;  // resident-size sample

enum class Klass { kCp = 0, kDp = 1, kDelivery = 2 };
constexpr const char* kKlassName[] = {"Control Plane", "Data Plane",
                                      "Data Delivery"};
constexpr Scheme kSchemes[] = {Scheme::kLegacy, Scheme::kSeedU,
                               Scheme::kSeedR};
constexpr const char* kSchemeName[] = {"Legacy", "SEED-U", "SEED-R"};
// Paper Table 4, "median / 90th" seconds, by cell (klass * 3 + scheme).
constexpr const char* kPaper[] = {"12.4 / 1024.0", "8.0 / 76.7",
                                  "4.4 / 48.6",    "476.0 / 2659.4",
                                  "0.9 / 1.0",     "0.6 / 0.7",
                                  "31.2 / 45.7",   "1.1 / 1.3",
                                  "0.4 / 0.7"};

struct Job {
  std::size_t cell = 0;  // klass * 3 + scheme index
  Klass klass = Klass::kCp;
  Scheme scheme = Scheme::kLegacy;
  SampledFailure f;
  std::uint64_t tb_seed = 0;
};

/// The sweep's jobs, derived from the workload seed exactly the way
/// bench_table4_disruption derives them from its fixed seed.
std::vector<Job> make_jobs(std::uint64_t seed) {
  const std::uint64_t base = 20220404 + 16 * seed;
  std::vector<Job> jobs;
  for (int k = 0; k < 3; ++k) {
    const auto klass = static_cast<Klass>(k);
    std::vector<std::pair<SampledFailure, std::uint64_t>> plan;
    if (klass == Klass::kDelivery) {
      for (std::size_t i = 0; i < kRunsPerCell; ++i) {
        plan.push_back({SampledFailure{}, (base + 3) * 977 + i});
      }
    } else {
      const bool cp = klass == Klass::kCp;
      sim::Rng mix(base + (cp ? 1 : 2));
      while (plan.size() < kRunsPerCell) {
        const SampledFailure f = seed::testbed::sample_table1_failure(mix);
        if (f.control_plane != cp) continue;
        plan.push_back({f, (base + (cp ? 1 : 2)) * 131 + plan.size() + 1});
      }
    }
    for (int s = 0; s < 3; ++s) {
      for (const auto& [f, tb_seed] : plan) {
        jobs.push_back(Job{static_cast<std::size_t>(k * 3 + s), klass,
                           kSchemes[s], f, tb_seed});
      }
    }
  }
  return jobs;
}

/// One scenario's result: outcome, counters and host times.
struct ScenarioOut {
  bool recovered = false;
  bool user_action = false;  // the device notified its user
  std::int64_t disruption_us = 0;
  std::uint64_t events = 0;
  std::uint64_t aka_setup = 0;
  std::uint64_t aka_run = 0;
  std::uint64_t nas_rx_run = 0;
  std::uint64_t rejects_run = 0;
  std::uint64_t diag_downlinks_run = 0;
  std::uint64_t registrations_run = 0;
  std::uint64_t queue = 0;  // simulator queue depth after bring-up
  std::uint64_t setup_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t step_ns = 0;
  struct Traced {
    std::vector<obs::ProfRow> profile;
    EventCounts events{};
    std::map<std::string, SpanTotals> spans;
  };
  std::unique_ptr<Traced> traced;  // traced pass only
};

ScenarioOut run_scenario(const Job& job, bool traced) {
  std::optional<CountingObserver> counter;
  if (traced) {
    obs::begin_shard_obs(/*traces=*/true, /*metrics=*/false,
                         /*profile=*/true);
    counter.emplace();
    obs::Tracer::instance().add_observer(&*counter);
    SpanLog::local().enable(true);
  }
  ScenarioOut o;
  const std::uint64_t t0 = wall_ns();
  {
    BENCH_SPAN(scenario, "testbed.scenario");
    std::unique_ptr<Testbed> tb;
    {
      BENCH_SPAN(construct, "testbed.construct");
      tb = std::make_unique<Testbed>(job.tb_seed, job.scheme);
    }
    if (job.klass == Klass::kCp && job.f.cp == CpFailure::kCustomUnknown) {
      tb->core().faults().custom_action_known =
          seed::proto::ResetAction::kB2CPlaneReattach;
    }
    if (job.klass == Klass::kDp && job.f.dp == DpFailure::kCustomUnknown) {
      tb->core().faults().custom_action_known =
          seed::proto::ResetAction::kB3DPlaneReset;
    }
    {
      BENCH_SPAN(bringup, "testbed.bring_up");
      tb->bring_up();
    }
    const std::uint64_t t1 = wall_ns();
    o.setup_ns = t1 - t0;
    o.queue = tb->simulator().queued();
    const seed::corenet::CoreStats before = tb->core().stats();
    const std::uint64_t regs0 =
        tb->dev().modem().stats().registrations_attempted;
    seed::testbed::Outcome out;
    {
      BENCH_SPAN(failure, "testbed.run_failure");
      switch (job.klass) {
        case Klass::kCp:
          out = tb->run_cp_failure(job.f.cp, sim::minutes(40));
          break;
        case Klass::kDp:
          out = tb->run_dp_failure(job.f.dp, sim::minutes(80));
          break;
        case Klass::kDelivery:
          out = tb->run_delivery_failure(DeliveryFailure::kStaleSession,
                                         sim::minutes(40));
          break;
      }
    }
    o.run_ns = wall_ns() - t1;
    const seed::corenet::CoreStats& after = tb->core().stats();
    o.recovered = out.recovered;
    o.user_action =
        out.user_action_required || tb->dev().user_notifications() > 0;
    o.disruption_us = std::llround(out.disruption_s * 1e6);
    o.events = tb->simulator().events_processed();
    o.aka_setup = before.auth_vectors;
    o.aka_run = after.auth_vectors - before.auth_vectors;
    o.nas_rx_run = after.nas_rx - before.nas_rx;
    o.rejects_run = after.rejects_sent - before.rejects_sent;
    o.diag_downlinks_run = after.diag_downlinks - before.diag_downlinks;
    o.registrations_run =
        tb->dev().modem().stats().registrations_attempted - regs0;
  }
  o.step_ns = wall_ns() - t0;
  if (traced) {
    obs::Tracer::instance().remove_observer(&*counter);
    o.traced = std::make_unique<ScenarioOut::Traced>();
    o.traced->profile = obs::end_shard_obs().profile;
    o.traced->events = counter->counts();
    o.traced->spans = SpanLog::local().drain();
  }
  return o;
}

struct CellSim {
  std::uint64_t n = 0;
  std::uint64_t recovered = 0;
  std::int64_t p50_ms = 0;  // recovered runs, as bench_table4 prints
  std::int64_t p90_ms = 0;
  bool operator==(const CellSim&) const = default;
};

/// Every simulated quantity of one sweep; rounds and passes must agree.
struct RoundSim {
  std::uint64_t scenarios = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t recovered = 0;
  std::uint64_t ok = 0;
  std::uint64_t user_action = 0;
  std::uint64_t seed_ok = 0;  // SEED-U/R scenarios behind the percentiles
  std::int64_t disruption_p75_us = 0;
  std::int64_t disruption_p90_us = 0;
  std::uint64_t aka_setup = 0;
  std::uint64_t aka_run = 0;
  std::uint64_t nas_rx_run = 0;
  std::uint64_t rejects_run = 0;
  std::uint64_t diag_downlinks_run = 0;
  std::uint64_t registrations_run = 0;
  std::uint64_t queue_p50 = 0;
  std::uint64_t queue_max = 0;
  std::vector<CellSim> cells;
  bool operator==(const RoundSim&) const = default;
};

struct Sweep {
  RoundSim sim;
  double setup_s = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t busy_ns = 0;
  std::vector<std::uint32_t> step_ns;  // per scenario
  std::vector<std::uint32_t> run_ns;   // per run_*_failure call
};

Sweep sweep(const std::vector<Job>& jobs, std::size_t workers, bool traced,
            std::map<std::string, obs::ZoneStats>& zones, EventCounts& events,
            std::map<std::string, SpanTotals>& spans) {
  const sim::FleetRunner fleet(workers);
  Sweep sw;
  const std::uint64_t c0 = cpu_ns();
  const std::uint64_t w0 = wall_ns();
  std::vector<ScenarioOut> outs;
  {
    BENCH_SPAN(map, "fleet.map");
    outs = fleet.map<ScenarioOut>(jobs.size(), [&](const sim::ShardInfo& i) {
      return run_scenario(jobs[i.index], traced);
    });
  }
  sw.wall_ns = wall_ns() - w0;
  sw.cpu_ns = cpu_ns() - c0;

  RoundSim& r = sw.sim;
  r.cells.resize(9);
  std::vector<seed::metrics::Samples> cell_samples(9);
  std::vector<std::int64_t> seed_disruptions;
  std::vector<std::uint64_t> queue;
  std::uint64_t setup_ns = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    ScenarioOut& o = outs[i];
    ++r.scenarios;
    r.sim_events += o.events;
    r.aka_setup += o.aka_setup;
    r.aka_run += o.aka_run;
    r.nas_rx_run += o.nas_rx_run;
    r.rejects_run += o.rejects_run;
    r.diag_downlinks_run += o.diag_downlinks_run;
    r.registrations_run += o.registrations_run;
    queue.push_back(o.queue);
    CellSim& cell = r.cells[job.cell];
    ++cell.n;
    if (o.recovered) {
      ++r.recovered;
      ++cell.recovered;
      cell_samples[job.cell].add(static_cast<double>(o.disruption_us) * 1e-6);
    }
    if (o.user_action) ++r.user_action;
    const bool ok = o.recovered && !o.user_action;
    if (ok) {
      ++r.ok;
      if (job.scheme != Scheme::kLegacy) {
        ++r.seed_ok;
        seed_disruptions.push_back(o.disruption_us);
      }
    }
    setup_ns += o.setup_ns;
    sw.busy_ns += o.step_ns;
    sw.step_ns.push_back(static_cast<std::uint32_t>(o.step_ns));
    sw.run_ns.push_back(static_cast<std::uint32_t>(o.run_ns));
    if (o.traced) {
      add_zones(zones, o.traced->profile);
      add_counts(events, o.traced->events);
      for (const auto& [name, s] : o.traced->spans) spans[name].add(s);
    }
  }
  for (std::size_t c = 0; c < 9; ++c) {
    if (cell_samples[c].empty()) continue;
    r.cells[c].p50_ms = std::llround(cell_samples[c].median() * 1e3);
    r.cells[c].p90_ms = std::llround(cell_samples[c].percentile(90) * 1e3);
  }
  std::sort(seed_disruptions.begin(), seed_disruptions.end());
  r.disruption_p75_us = percentile_sorted(seed_disruptions, 75);
  r.disruption_p90_us = percentile_sorted(seed_disruptions, 90);
  std::sort(queue.begin(), queue.end());
  r.queue_p50 = percentile_sorted(queue, 50);
  r.queue_max = queue.empty() ? 0 : queue.back();
  sw.setup_s = static_cast<double>(setup_ns) * 1e-9;
  return sw;
}

/// Resident growth per live single-UE harness: holds kHeldHarnesses
/// brought-up testbeds at once on the calling thread.
std::uint64_t held_harness_bytes(std::uint64_t seed) {
  const std::uint64_t rss0 = rss_bytes();
  std::vector<std::unique_ptr<Testbed>> held;
  for (std::size_t i = 0; i < kHeldHarnesses; ++i) {
    held.push_back(std::make_unique<Testbed>(seed * 7919 + i, Scheme::kSeedU));
    held.back()->bring_up();
  }
  const std::uint64_t rss1 = rss_bytes();
  held.clear();
  // Each Testbed pointed this thread's tracer and logger at its clock.
  obs::Tracer::instance().set_clock(nullptr);
  return rss1 > rss0 ? (rss1 - rss0) / kHeldHarnesses : 0;
}

void write_sim(Json& j, const RoundSim& r) {
  j.begin("sim")
      .num("injections", r.scenarios)
      .num("sim_events", r.sim_events)
      .num("attempted", r.scenarios)
      .num("recovered", r.recovered)
      .num("ok", r.ok)
      .num("user_action", r.user_action)
      .num("seed_ok", r.seed_ok)
      .num("disruption_p75_us", static_cast<std::uint64_t>(r.disruption_p75_us))
      .num("disruption_p90_us", static_cast<std::uint64_t>(r.disruption_p90_us))
      .num("healthy", r.recovered)
      .num("cache_hits", std::uint64_t{0})
      .num("cache_misses", std::uint64_t{0})
      .num("aka_setup", r.aka_setup)
      .num("aka_timed", r.aka_run)
      .num("nas_rx_timed", r.nas_rx_run)
      .num("rejects_timed", r.rejects_run)
      .num("diag_downlinks_timed", r.diag_downlinks_run)
      .num("registrations_timed", r.registrations_run)
      .num("queue_p50", r.queue_p50)
      .num("queue_max", r.queue_max)
      .end();
  j.begin_array("cells");
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    j.begin()
        .str("klass", kKlassName[c / 3])
        .str("scheme", kSchemeName[c % 3])
        .str("paper", kPaper[c])
        .num("n", r.cells[c].n)
        .num("recovered", r.cells[c].recovered)
        .num("p50_s", static_cast<double>(r.cells[c].p50_ms) * 1e-3)
        .num("p90_s", static_cast<double>(r.cells[c].p90_ms) * 1e-3)
        .end();
  }
  j.end_array();
}

}  // namespace

int run_table4(const Options& opt, std::ostream& out) {
  const bool traced = opt.pass == Pass::kTraced;
  const std::vector<Job> jobs = make_jobs(opt.seed);
  const std::uint64_t harness_bytes = held_harness_bytes(opt.seed);

  RoundPercentiles steps, runs;
  std::map<std::string, obs::ZoneStats> zones;
  EventCounts events{};
  std::map<std::string, SpanTotals> spans;
  std::vector<double> setup_s, round_wall_s, round_cpu_s;
  std::uint64_t busy_total = 0;

  SpanLog::local().enable(traced);
  const std::uint64_t start = wall_ns();
  std::optional<RoundSim> first;
  std::uint64_t peak_rss = 0;
  std::size_t rounds = 0;
  while (rounds < kMinRounds ||
         static_cast<double>(wall_ns() - start) * 1e-9 < opt.seconds) {
    Sweep sw = sweep(jobs, 1, traced, zones, events, spans);
    steps.add_round(sw.step_ns);
    runs.add_round(sw.run_ns);
    ++rounds;
    setup_s.push_back(sw.setup_s);
    round_wall_s.push_back(static_cast<double>(sw.wall_ns) * 1e-9);
    round_cpu_s.push_back(static_cast<double>(sw.cpu_ns) * 1e-9);
    busy_total += sw.busy_ns;
    if (!first) {
      first = sw.sim;
      peak_rss = peak_rss_bytes();  // as in storm.cc: one round's peak
    } else if (!(sw.sim == *first)) {
      std::cerr << "seedbench: table4 round " << rounds
                << " simulated counters differ from round 1\n";
      return 3;
    }
  }
  // Two-worker sweep for simcore.fleet.scaling_2w (traced pass only).
  const std::map<std::string, SpanTotals> main_spans =
      SpanLog::local().drain();
  for (const auto& [name, s] : main_spans) spans[name].add(s);
  double wall_2w = 0;
  if (traced) {
    SpanLog::local().enable(false);
    std::map<std::string, obs::ZoneStats> z2;
    EventCounts e2{};
    std::map<std::string, SpanTotals> sp2;
    const Sweep sw = sweep(jobs, 2, true, z2, e2, sp2);
    if (!(sw.sim == *first)) {
      std::cerr << "seedbench: table4 two-worker counters differ\n";
      return 3;
    }
    wall_2w = static_cast<double>(sw.wall_ns) * 1e-9;
  }

  Json j(out);
  j.begin()
      .str("workload", opt.workload)
      .num("seed", opt.seed)
      .num("rounds", static_cast<std::uint64_t>(rounds))
      .num("ues", std::uint64_t{1});
  write_sim(j, *first);
  j.array("setup_s", setup_s)
      .array("round_wall_s", round_wall_s)
      .array("round_cpu_s", round_cpu_s)
      .array("round_step_p50_us", steps.p50_us)
      .array("round_step_p99_us", steps.p99_us)
      .array("round_inject_p50_us", runs.p50_us);
  j.begin("timing")
      .num("busy_s", static_cast<double>(busy_total) * 1e-9)
      .num("wall_2w_s", wall_2w)
      .num("steps", steps.samples)
      .num("peak_rss_mb", static_cast<double>(peak_rss) / 1048576.0)
      .num("rss_growth_bytes", harness_bytes)
      .end();
  if (traced) {
    j.begin("layers");
    write_layers(j, zones, spans, events);
    j.end();
  }
  j.end();
  out << "\n";
  return 0;
}

}  // namespace seedbench

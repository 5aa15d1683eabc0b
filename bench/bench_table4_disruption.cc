// Reproduces paper Table 4: disruption-time percentiles (median / 90th)
// with legacy handling vs SEED-U vs SEED-R for control-plane, data-plane
// and data-delivery failures — plus the §7.1.1 coverage numbers (89.4% of
// c-plane and 95.5% of d-plane failures handled; the rest need user
// action).
//
// Every table cell is a fleet: the failure mix is pre-sampled
// sequentially (cheap, and it pins the exact per-run Testbed seeds the
// sequential bench used), then the runs fan out across the FleetRunner
// pool and fold back in shard order — so the printed table is
// byte-identical for any thread count. SEED_FLEET_THREADS / --threads=N
// pin the pool.
#include <iostream>

#include "fleet_bench.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "simcore/fleet_runner.h"
#include "testbed/testbed.h"

namespace {

using namespace seed;
using namespace seed::testbed;

struct ClassResult {
  metrics::Samples disruption;
  int handled = 0;
  int user_action = 0;
  int total = 0;
};

struct RunOut {
  Outcome out;
  SampledFailure f;
};

ClassResult run_plane(const sim::FleetRunner& fleet, device::Scheme scheme,
                      bool control_plane, std::uint64_t seed, int runs) {
  // Pre-sample the Table-1 mix exactly as the sequential loop did: the
  // mix RNG consumes every draw, but only matching-plane samples claim a
  // testbed seed (seed * 131 + k, k = 1-based match index).
  struct Job {
    SampledFailure f;
    std::uint64_t tb_seed;
  };
  std::vector<Job> jobs;
  sim::Rng mix_rng(seed);
  while (jobs.size() < static_cast<std::size_t>(runs)) {
    const SampledFailure f = sample_table1_failure(mix_rng);
    if (f.control_plane != control_plane) continue;
    jobs.push_back(Job{f, seed * 131 + (jobs.size() + 1)});
  }

  const auto outs = fleet.map<RunOut>(
      jobs.size(), [&](const sim::ShardInfo& info) {
        const Job& job = jobs[info.index];
        Testbed tb(job.tb_seed, scheme);
        if (control_plane && job.f.cp == CpFailure::kCustomUnknown) {
          // Table-4 mixture: operator-known custom failures carry a
          // suggested action (§5.2); pure-unknown learning is §7.2.4.
          tb.core().faults(tb.dev().ue_id()).custom_action_known =
              proto::ResetAction::kB2CPlaneReattach;
        }
        if (!control_plane && job.f.dp == DpFailure::kCustomUnknown) {
          tb.core().faults(tb.dev().ue_id()).custom_action_known =
              proto::ResetAction::kB3DPlaneReset;
        }
        tb.bring_up();
        const Outcome out =
            control_plane ? tb.run_cp_failure(job.f.cp, sim::minutes(40))
                          : tb.run_dp_failure(job.f.dp, sim::minutes(80));
        return RunOut{out, job.f};
      });

  ClassResult res;
  for (const RunOut& r : outs) {
    ++res.total;
    if (r.out.recovered) {
      ++res.handled;
      res.disruption.add(r.out.disruption_s);
    } else if (r.out.user_action_required ||
               (control_plane && r.f.cp == CpFailure::kUnauthorized) ||
               (!control_plane && r.f.dp == DpFailure::kExpiredPlan)) {
      ++res.user_action;
    }
  }
  return res;
}

ClassResult run_delivery(const sim::FleetRunner& fleet,
                         device::Scheme scheme, std::uint64_t seed,
                         int runs) {
  const auto outs = fleet.map<Outcome>(
      static_cast<std::size_t>(runs), [&](const sim::ShardInfo& info) {
        Testbed tb(seed * 977 + static_cast<std::uint64_t>(info.index),
                   scheme);
        tb.bring_up();
        // Table 4's delivery rows use the reconnection-recoverable class
        // (outdated gateway status in mobility, §7.1.1).
        return tb.run_delivery_failure(DeliveryFailure::kStaleSession,
                                       sim::minutes(40));
      });

  ClassResult res;
  for (const Outcome& out : outs) {
    ++res.total;
    if (out.recovered) {
      ++res.handled;
      res.disruption.add(out.disruption_s);
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kSeed = 20220404;
  constexpr int kRuns = 60;

  const sim::FleetRunner fleet(benchutil::fleet_threads(argc, argv));

  metrics::print_banner(std::cout,
                        "Table 4: disruption percentiles (s), legacy vs "
                        "SEED-U vs SEED-R (seed " + std::to_string(kSeed) +
                        ", " + std::to_string(kRuns) + " runs/cell)");

  struct Row {
    const char* klass;
    const char* scheme;
    ClassResult r;
    const char* paper;
  };
  std::vector<Row> rows;
  rows.push_back({"Control Plane", "Legacy",
                  run_plane(fleet, device::Scheme::kLegacy, true, kSeed + 1,
                            kRuns),
                  "12.4 / 1024.0"});
  rows.push_back({"", "SEED-U",
                  run_plane(fleet, device::Scheme::kSeedU, true, kSeed + 1,
                            kRuns),
                  "8.0 / 76.7"});
  rows.push_back({"", "SEED-R",
                  run_plane(fleet, device::Scheme::kSeedR, true, kSeed + 1,
                            kRuns),
                  "4.4 / 48.6"});
  rows.push_back({"Data Plane", "Legacy",
                  run_plane(fleet, device::Scheme::kLegacy, false, kSeed + 2,
                            kRuns),
                  "476.0 / 2659.4"});
  rows.push_back({"", "SEED-U",
                  run_plane(fleet, device::Scheme::kSeedU, false, kSeed + 2,
                            kRuns),
                  "0.9 / 1.0"});
  rows.push_back({"", "SEED-R",
                  run_plane(fleet, device::Scheme::kSeedR, false, kSeed + 2,
                            kRuns),
                  "0.6 / 0.7"});
  rows.push_back({"Data Delivery", "Legacy",
                  run_delivery(fleet, device::Scheme::kLegacy, kSeed + 3,
                               kRuns),
                  "31.2 / 45.7"});
  rows.push_back({"", "SEED-U",
                  run_delivery(fleet, device::Scheme::kSeedU, kSeed + 3,
                               kRuns),
                  "1.1 / 1.3"});
  rows.push_back({"", "SEED-R",
                  run_delivery(fleet, device::Scheme::kSeedR, kSeed + 3,
                               kRuns),
                  "0.4 / 0.7"});

  metrics::Table t({"Failures", "Handling", "Median (s)", "90th (s)",
                    "Paper med/90th"});
  for (const auto& row : rows) {
    t.row({row.klass, row.scheme,
           metrics::Table::num(row.r.disruption.median(), 1),
           metrics::Table::num(row.r.disruption.percentile(90), 1),
           row.paper});
  }
  t.print(std::cout);

  // §7.1.1 coverage: fraction of failures SEED handles (the remainder
  // requires user action: unauthorized subscribers / expired plans).
  const auto cp =
      run_plane(fleet, device::Scheme::kSeedU, true, kSeed + 4, kRuns);
  const auto dp =
      run_plane(fleet, device::Scheme::kSeedU, false, kSeed + 5, kRuns);
  std::cout << "\nCoverage (SEED-U): control-plane "
            << metrics::Table::pct(
                   static_cast<double>(cp.handled) / cp.total, 1)
            << " handled (paper 89.4%), data-plane "
            << metrics::Table::pct(
                   static_cast<double>(dp.handled) / dp.total, 1)
            << " handled (paper 95.5%); unhandled cases required user "
               "action ("
            << cp.user_action + dp.user_action << " runs)\n";
  return 0;
}

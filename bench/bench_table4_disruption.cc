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
#include "metrics/table.h"

namespace {

using namespace seed;
using namespace seed::testbed;

benchutil::OutcomeTally run_cell(const sim::FleetRunner& fleet,
                                 device::Scheme scheme,
                                 const std::vector<Scenario>& jobs) {
  const auto outs = fleet.map<Outcome>(
      jobs.size(), [&](const sim::ShardInfo& info) {
        Testbed tb(jobs[info.index].tb_seed, scheme);
        return run_scenario(tb, jobs[info.index]);
      });
  benchutil::OutcomeTally res;
  for (std::size_t i = 0; i < jobs.size(); ++i) res.add(outs[i], jobs[i]);
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

  // Every scheme replays the same jobs of a failure class.
  const std::vector<Scenario> jobs[] = {
      table1_scenarios(kSeed + 1, kRuns, /*control_plane=*/true),
      table1_scenarios(kSeed + 2, kRuns, /*control_plane=*/false),
      delivery_scenarios(kSeed + 3, kRuns)};
  const char* const klass[] = {"Control Plane", "Data Plane",
                               "Data Delivery"};
  const device::Scheme schemes[] = {device::Scheme::kLegacy,
                                    device::Scheme::kSeedU,
                                    device::Scheme::kSeedR};
  // Paper Table 4, "median / 90th" seconds.
  const char* const paper[3][3] = {
      {"12.4 / 1024.0", "8.0 / 76.7", "4.4 / 48.6"},
      {"476.0 / 2659.4", "0.9 / 1.0", "0.6 / 0.7"},
      {"31.2 / 45.7", "1.1 / 1.3", "0.4 / 0.7"}};

  metrics::Table t({"Failures", "Handling", "Median (s)", "90th (s)",
                    "Paper med/90th"});
  for (int k = 0; k < 3; ++k) {
    for (int s = 0; s < 3; ++s) {
      const auto r = run_cell(fleet, schemes[s], jobs[k]);
      t.row({s == 0 ? klass[k] : "",
             std::string(device::scheme_name(schemes[s])),
             metrics::Table::num(r.disruption.median(), 1),
             metrics::Table::num(r.disruption.percentile(90), 1),
             paper[k][s]});
    }
  }
  t.print(std::cout);

  // §7.1.1 coverage: fraction of failures SEED handles (the remainder
  // requires user action: unauthorized subscribers / expired plans).
  const auto cp = run_cell(fleet, device::Scheme::kSeedU,
                           table1_scenarios(kSeed + 4, kRuns, true));
  const auto dp = run_cell(fleet, device::Scheme::kSeedU,
                           table1_scenarios(kSeed + 5, kRuns, false));
  std::cout << "\nCoverage (SEED-U): control-plane "
            << metrics::Table::pct(
                   static_cast<double>(cp.recovered) / cp.total, 1)
            << " handled (paper 89.4%), data-plane "
            << metrics::Table::pct(
                   static_cast<double>(dp.recovered) / dp.total, 1)
            << " handled (paper 95.5%); unhandled cases required user "
               "action ("
            << cp.user_action + dp.user_action << " runs)\n";
  return 0;
}

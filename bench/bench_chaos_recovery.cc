// Chaos-recovery bench: how well does SEED's own recovery path hold up
// when the chaos layer impairs it? Sweeps an impairment level p (applied
// as AT-command failure probability plus loss on both collaboration
// directions) across Legacy / SEED-U / SEED-R over the Table-1 failure
// mix, and reports recovery rate and the disruption distribution per
// cell. One JSON line per cell goes to BENCH_chaos.json.
//
// p = 0 runs without a chaos engine at all — the unimpaired baseline the
// acceptance bound (impaired disruption <= 3x baseline at p = 0.1) is
// measured against. Like the other fleet benches, the failure mix is
// pre-sampled sequentially and the runs fan out over the FleetRunner
// pool, so the output is byte-identical for any thread count.
#include <fstream>
#include <iostream>
#include <vector>

#include "chaos/chaos.h"
#include "fleet_bench.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "simcore/fleet_runner.h"
#include "testbed/testbed.h"

namespace {

using namespace seed;
using namespace seed::testbed;

constexpr std::uint64_t kSeed = 20260806;
constexpr int kRuns = 40;
constexpr double kLevels[] = {0.0, 0.05, 0.10, 0.20};

chaos::ChaosConfig impairment(double p) {
  chaos::ChaosConfig cfg;
  cfg.at_fail = p;
  cfg.downlink_drop = p;
  cfg.uplink_drop = p;
  return cfg;
}

struct CellResult {
  int total = 0;
  int recovered = 0;
  int user_action = 0;
  metrics::Samples disruption;
  std::uint64_t injections = 0;

  double recovery_rate() const {
    // User-action failures (unauthorized / expired plan) are terminal by
    // design in every scheme; the rate is over the recoverable runs.
    const int recoverable = total - user_action;
    return recoverable > 0
               ? static_cast<double>(recovered) / recoverable
               : 1.0;
  }
};

struct RunOut {
  Outcome out;
  bool user_action_class = false;
  std::uint64_t injections = 0;
};

CellResult run_cell(const sim::FleetRunner& fleet, device::Scheme scheme,
                    double p, std::uint64_t seed) {
  struct Job {
    SampledFailure f;
    std::uint64_t tb_seed;
  };
  std::vector<Job> jobs;
  sim::Rng mix_rng(seed);
  for (int k = 0; k < kRuns; ++k) {
    jobs.push_back(Job{sample_table1_failure(mix_rng),
                       seed * 131 + static_cast<std::uint64_t>(k + 1)});
  }

  const auto outs = fleet.map<RunOut>(
      jobs.size(), [&](const sim::ShardInfo& info) {
        const Job& job = jobs[info.index];
        Testbed tb(job.tb_seed, scheme);
        if (job.f.control_plane && job.f.cp == CpFailure::kCustomUnknown) {
          tb.core().faults(tb.dev().ue_id()).custom_action_known =
              proto::ResetAction::kB2CPlaneReattach;
        }
        if (!job.f.control_plane && job.f.dp == DpFailure::kCustomUnknown) {
          tb.core().faults(tb.dev().ue_id()).custom_action_known =
              proto::ResetAction::kB3DPlaneReset;
        }
        if (p > 0.0) tb.enable_chaos(impairment(p));
        tb.bring_up();
        RunOut r;
        r.out = job.f.control_plane
                    ? tb.run_cp_failure(job.f.cp, sim::minutes(40))
                    : tb.run_dp_failure(job.f.dp, sim::minutes(80));
        r.user_action_class =
            r.out.user_action_required ||
            (job.f.control_plane && job.f.cp == CpFailure::kUnauthorized) ||
            (!job.f.control_plane && job.f.dp == DpFailure::kExpiredPlan);
        if (tb.chaos() != nullptr) r.injections = tb.chaos()->stats().total();
        return r;
      });

  CellResult res;
  for (const RunOut& r : outs) {
    ++res.total;
    res.injections += r.injections;
    if (r.out.recovered) {
      ++res.recovered;
      res.disruption.add(r.out.disruption_s);
    } else if (r.user_action_class) {
      ++res.user_action;
    }
  }
  return res;
}

void append_json(std::ostream& os, const char* scheme, double p,
                 const CellResult& r) {
  os << "{\"bench\":\"chaos_recovery\",\"scheme\":\"" << scheme
     << "\",\"impair_p\":" << p << ",\"runs\":" << r.total
     << ",\"recovered\":" << r.recovered
     << ",\"user_action\":" << r.user_action
     << ",\"recovery_rate\":" << r.recovery_rate()
     << ",\"injections\":" << r.injections << ",\"disruption_s\":{"
     << "\"p10\":" << r.disruption.percentile(10)
     << ",\"p50\":" << r.disruption.median()
     << ",\"p90\":" << r.disruption.percentile(90)
     << ",\"p99\":" << r.disruption.percentile(99) << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const sim::FleetRunner fleet(benchutil::fleet_threads(argc, argv));
  constexpr std::size_t kCells =
      (sizeof(kLevels) / sizeof(kLevels[0])) * 3;
  benchutil::FleetStopwatch watch("chaos_recovery", fleet.threads(),
                                  kCells * kRuns);

  metrics::print_banner(
      std::cout,
      "Chaos recovery: rate and disruption vs impairment p (AT fail + "
      "collab loss; seed " + std::to_string(kSeed) + ", " +
      std::to_string(kRuns) + " runs/cell)");

  struct Cell {
    device::Scheme scheme;
    const char* name;
  };
  const Cell cells[] = {{device::Scheme::kLegacy, "Legacy"},
                        {device::Scheme::kSeedU, "SEED-U"},
                        {device::Scheme::kSeedR, "SEED-R"}};

  std::ofstream json("BENCH_chaos.json");
  metrics::Table t({"Handling", "p", "Recovery", "Median (s)", "90th (s)",
                    "99th (s)", "Injections"});
  // Per-scheme unimpaired medians anchor the <=3x acceptance ratio.
  for (const Cell& c : cells) {
    double baseline_median = 0.0;
    for (double p : kLevels) {
      // Seed each cell off (scheme, p) so adding a level never reshuffles
      // the other cells' runs.
      const std::uint64_t cell_seed =
          kSeed + static_cast<std::uint64_t>(&c - cells) * 1000 +
          static_cast<std::uint64_t>(p * 100);
      const CellResult r = run_cell(fleet, c.scheme, p, cell_seed);
      if (p == 0.0) baseline_median = r.disruption.median();
      append_json(json, c.name, p, r);
      t.row({c.name, metrics::Table::num(p, 2),
             metrics::Table::pct(r.recovery_rate(), 1),
             metrics::Table::num(r.disruption.median(), 1),
             metrics::Table::num(r.disruption.percentile(90), 1),
             metrics::Table::num(r.disruption.percentile(99), 1),
             std::to_string(r.injections)});
      if (p == 0.10 && baseline_median > 0.0) {
        std::cout << "  [" << c.name << "] p=0.10 median/baseline = "
                  << metrics::Table::num(
                         r.disruption.median() / baseline_median, 2)
                  << "x (acceptance bound 3x)\n";
      }
    }
  }
  t.print(std::cout);
  watch.append_json();
  std::cout << "\nwall: " << watch.elapsed_ms()
            << " ms; cells appended to BENCH_chaos.json\n";
  return 0;
}

// Reproduces paper Fig. 11a: core-network CPU utilization vs failure-event
// rate, Magma vs Magma+SEED. Per §7.2.1: 200 emulated devices perform
// attach/detach procedures randomly; failure events are injected at
// 0..100 events/s; SEED's decision-tree diagnosis + assistance transfer
// adds only a few percent of CPU at the 100/s stress point.
//
// The load generator drives a CpuMeter with the calibrated per-operation
// core costs from common/params.h (procedures, failure handling,
// diagnosis), using Poisson arrivals on the event simulator. The
// simulated CoreNetwork itself keeps no CPU account.
#include <iostream>

#include "common/params.h"
#include "metrics/meters.h"
#include "metrics/table.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace {

using namespace seed;

double run_load(bool with_seed, double failure_rate_hz, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  metrics::CpuMeter cpu(params::kCoreServerCores);
  constexpr double kWallSeconds = 120.0;
  // 200 devices attach/detach randomly: ~1.1 procedures/s each.
  constexpr double kProcedureRateHz = 218.0;

  // Poisson procedure arrivals.
  std::function<void()> proc = [&] {
    cpu.charge("procedure", params::kCoreCostPerProcedure);
    cpu.charge("nas", 6 * 0.0002);  // registration+session signaling
    sim.schedule_after(sim::secs_f(rng.exponential(1.0 / kProcedureRateHz)),
                       proc);
  };
  sim.schedule_after(sim::secs_f(rng.exponential(1.0 / kProcedureRateHz)),
                     proc);

  std::function<void()> fail;  // outlives the scheduling below
  if (failure_rate_hz > 0) {
    fail = [&] {
      cpu.charge("failure", params::kCoreCostPerFailure);
      if (with_seed) {
        // Fig. 8 classification + assistance compose + EEA2/EIA2 + the
        // extra Auth Request/Failure round trips.
        cpu.charge("diagnosis", params::kCoreCostPerDiagnosis);
        cpu.charge("nas", 2 * 0.0002);
      }
      sim.schedule_after(sim::secs_f(rng.exponential(1.0 / failure_rate_hz)),
                         fail);
    };
    sim.schedule_after(sim::secs_f(rng.exponential(1.0 / failure_rate_hz)),
                       fail);
  }

  sim.run_until(sim::kTimeZero + sim::secs_f(kWallSeconds));
  // Baseline platform load (NMS, orchestrator, logging): ~12% of 8 cores.
  const double baseline = 0.12;
  return baseline + cpu.utilization(kWallSeconds);
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 20221111;
  metrics::print_banner(std::cout,
                        "Fig. 11a: core CPU utilization vs failure rate "
                        "(200 emulated UEs; seed " + std::to_string(kSeed) +
                        ")");
  metrics::Table t({"Failures/s", "Magma (%)", "Magma+SEED (%)",
                    "SEED extra (%)"});
  double extra_at_100 = 0;
  for (int rate : {0, 20, 40, 60, 80, 100}) {
    const double base = run_load(false, rate, kSeed + rate) * 100.0;
    const double seeded = run_load(true, rate, kSeed + rate) * 100.0;
    if (rate == 100) extra_at_100 = seeded - base;
    t.row({std::to_string(rate), metrics::Table::num(base, 1),
           metrics::Table::num(seeded, 1),
           metrics::Table::num(seeded - base, 1)});
  }
  t.print(std::cout);
  std::cout << "SEED extra CPU at 100 failures/s: "
            << metrics::Table::num(extra_at_100, 1)
            << "% (paper: 4.7%)\n";
  return 0;
}

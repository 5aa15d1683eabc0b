// Reproduces paper Fig. 11a: core-network CPU utilization vs failure-event
// rate, Magma vs Magma+SEED. Per §7.2.1: 200 emulated devices perform
// attach/detach procedures randomly; failure events are injected at
// 0..100 events/s; SEED's decision-tree diagnosis + assistance transfer
// adds only a few percent of CPU at the 100/s stress point.
//
// A linear model over counted operations, not a measurement: the event
// simulator draws Poisson procedure and failure arrivals over 120 s, and
// utilization is the counts times the calibrated per-operation core costs
// in common/params.h, over the core budget. The simulated CoreNetwork is
// not run here.
#include <functional>
#include <iostream>

#include "common/params.h"
#include "metrics/table.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace {

using namespace seed;

constexpr double kWallSeconds = 120.0;
// One NAS message's core cost (core-seconds).
constexpr double kNasMessageCost = 0.0002;

struct Arrivals {
  long procedures = 0;
  long failures = 0;
};

Arrivals count_arrivals(double failure_rate_hz, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  Arrivals n;
  // 200 devices attach/detach randomly: ~1.1 procedures/s each.
  constexpr double kProcedureRateHz = 218.0;

  // Poisson procedure arrivals.
  std::function<void()> proc = [&] {
    ++n.procedures;
    sim.schedule_after(sim::secs_f(rng.exponential(1.0 / kProcedureRateHz)),
                       proc);
  };
  sim.schedule_after(sim::secs_f(rng.exponential(1.0 / kProcedureRateHz)),
                     proc);

  std::function<void()> fail;  // outlives the scheduling below
  if (failure_rate_hz > 0) {
    fail = [&] {
      ++n.failures;
      sim.schedule_after(sim::secs_f(rng.exponential(1.0 / failure_rate_hz)),
                         fail);
    };
    sim.schedule_after(sim::secs_f(rng.exponential(1.0 / failure_rate_hz)),
                       fail);
  }

  sim.run_until(sim::kTimeZero + sim::secs_f(kWallSeconds));
  return n;
}

double utilization(const Arrivals& n, bool with_seed) {
  // A procedure is its handling plus six NAS messages (registration and
  // session signaling). With SEED a failure adds the Fig. 8 classification,
  // the assistance compose + EEA2/EIA2, and the extra Auth
  // Request/Failure round trip (two NAS messages).
  const double per_failure =
      params::kCoreCostPerFailure +
      (with_seed ? params::kCoreCostPerDiagnosis + 2 * kNasMessageCost : 0.0);
  const double busy_core_s =
      n.procedures * (params::kCoreCostPerProcedure + 6 * kNasMessageCost) +
      n.failures * per_failure;
  // Baseline platform load (NMS, orchestrator, logging): ~12% of 8 cores.
  const double baseline = 0.12;
  return baseline + busy_core_s / (params::kCoreServerCores * kWallSeconds);
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
    // Both schemes see the same arrivals: SEED draws nothing extra.
    const Arrivals n = count_arrivals(rate, kSeed + rate);
    const double base = utilization(n, false) * 100.0;
    const double seeded = utilization(n, true) * 100.0;
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

// Reproduces paper Table 5: average app-perceived disruption for five
// latency-sensitive apps under control-plane, data-plane and
// data-delivery failures, with legacy handling vs SEED-U vs SEED-R.
// App buffers absorb outages (video ~30 s, live ~3 s); the AR app has no
// buffer and a 100 ms budget.
#include <iostream>

#include "apps/app_model.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "testbed/testbed.h"

namespace {

using namespace seed;
using namespace seed::testbed;

enum class FailureClass { kControl, kData, kDelivery };

double run_once(device::Scheme scheme, const apps::AppSpec& spec,
                FailureClass klass, std::uint64_t seed) {
  Testbed tb(seed, scheme);
  // Controlled app experiment (§7.1.2): no background congestion layer,
  // recommended Android timers, and the lighter fault mix of the app
  // study (operator config propagation ~3 min rather than ~8).
  tb.secondary_congestion_prob = 0;
  tb.use_default_android_timers = false;
  tb.dp_heal_median_s = 170.0;
  tb.bring_up();
  apps::App& app = tb.dev().add_app(spec);
  tb.simulator().run_for(sim::seconds(30));  // steady state

  const auto t0 = tb.simulator().now();
  Outcome out;
  switch (klass) {
    case FailureClass::kControl:
      out = tb.run_cp_failure(CpFailure::kIdentityDesync, sim::minutes(40));
      break;
    case FailureClass::kData:
      out = tb.run_dp_failure(DpFailure::kOutdatedDnn, sim::minutes(80));
      break;
    case FailureClass::kDelivery:
      out = tb.run_delivery_failure(DeliveryFailure::kStaleSession,
                                    sim::minutes(40));
      break;
  }
  if (!out.recovered) return sim::to_seconds(sim::minutes(40));
  // Run until the app itself sees data again.
  auto& sim = tb.simulator();
  sim.poll_until([&] { return app.perceived_disruption(t0).has_value(); },
                 sim::seconds(1), sim.now() + sim::minutes(10));
  return app.perceived_disruption(t0).value_or(0.0);
}

double run_avg(device::Scheme scheme, const apps::AppSpec& spec,
               FailureClass klass, std::uint64_t seed, int runs) {
  metrics::Samples s;
  for (int i = 0; i < runs; ++i) {
    s.add(run_once(scheme, spec, klass,
                   seed + static_cast<std::uint64_t>(i) * 13));
  }
  return s.mean();
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 20220505;
  constexpr int kRuns = 12;

  const apps::AppSpec specs[] = {apps::video_app(), apps::live_stream_app(),
                                 apps::web_app(), apps::navigation_app(),
                                 apps::edge_ar_app()};
  const char* paper[] = {
      "C 68.3/1.1/1.0  D 184.5/0.0/0.0  DD 75.0/0.0/0.0",
      "C 79.2/4.3/3.5  D 199.2/1.5/1.1  DD 105.4/0.5/0.0",
      "C 80.3/6.8/5.4  D 200.8/1.8/1.6  DD 110.5/0.8/0.3",
      "C 78.3/5.0/4.1  D 199.9/1.3/1.2  DD 106.7/0.2/0.0",
      "C 81.9/6.7/5.7  D 201.9/2.6/2.1  DD 108.2/1.3/0.4",
  };

  metrics::print_banner(std::cout,
                        "Table 5: average app disruption (s), Legacy / "
                        "SEED-U / SEED-R (seed " + std::to_string(kSeed) +
                        ", " + std::to_string(kRuns) + " runs/cell)");
  metrics::Table t({"App", "C-plane L/U/R", "D-plane L/U/R",
                    "Delivery L/U/R", "Paper (L/U/R per class)"});

  int idx = 0;
  for (const auto& spec : specs) {
    std::string cells[3];
    int col = 0;
    for (FailureClass klass : {FailureClass::kControl, FailureClass::kData,
                               FailureClass::kDelivery}) {
      const double l = run_avg(device::Scheme::kLegacy, spec, klass,
                               kSeed + 100 * col + 1, kRuns);
      const double u = run_avg(device::Scheme::kSeedU, spec, klass,
                               kSeed + 100 * col + 2, kRuns);
      const double r = run_avg(device::Scheme::kSeedR, spec, klass,
                               kSeed + 100 * col + 3, kRuns);
      cells[col] = metrics::Table::num(l, 1) + "/" +
                   metrics::Table::num(u, 1) + "/" +
                   metrics::Table::num(r, 1);
      ++col;
    }
    t.row({spec.name, cells[0], cells[1], cells[2], paper[idx++]});
  }
  t.print(std::cout);
  std::cout << "(Legacy data-plane runs use the modem's blind retry + "
               "Android escalation; SEED columns use config update / fast "
               "reset — expect legacy ~minutes, SEED ~seconds, buffered "
               "apps masking sub-buffer outages entirely.)\n";
  return 0;
}

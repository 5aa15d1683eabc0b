// Scenario: a congested cell during a failure storm. SEED must not make
// things worse: congestion warnings carry back-off timers the SIM obeys
// (§5.2), and the per-action rate limiter keeps reset signaling bounded
// (§4.4.2) even when failures arrive faster than recoveries.
//
//   ./build/examples/failure_storm
#include <iostream>

#include "metrics/table.h"
#include "testbed/testbed.h"

int main() {
  using namespace seed;
  using namespace seed::testbed;

  metrics::Table t({"Scheme", "Storm window", "Reg. attempts",
                    "Resets fired", "Rate-limited", "Healthy after"});

  for (device::Scheme scheme :
       {device::Scheme::kLegacy, device::Scheme::kSeedU}) {
    Testbed tb(31337, scheme);
    tb.secondary_congestion_prob = 0;
    tb.bring_up();

    // Five minutes of rolling congestion with repeated reattach triggers:
    // every 30 s the cell flips congested for ~20 s and the device is
    // bounced (handover churn). The clear is a tracked timer: arming a
    // new burst cancels any still-pending clear, so a stale timer from a
    // previous burst can never end the new one early (run_for only
    // advances *at least* 30 s — with a backlogged event queue the prior
    // clear can still be in flight when the next burst starts).
    sim::Timer congestion_clear(tb.simulator());
    for (int burst = 0; burst < 10; ++burst) {
      tb.core().faults(tb.dev().ue_id()).congested = true;
      congestion_clear.arm(sim::seconds(20), [&tb] {
        tb.core().faults(tb.dev().ue_id()).congested = false;
      });
      tb.dev().modem().trigger_reattach();
      tb.simulator().run_for(sim::seconds(30));
    }
    tb.simulator().run_for(sim::minutes(2));

    const auto& m = tb.dev().modem().stats();
    const auto& a = tb.dev().applet().stats();
    t.row({std::string(device::scheme_name(scheme)), "5 min x 10 bursts",
           std::to_string(m.registrations_attempted),
           std::to_string(a.actions_run),
           std::to_string(a.actions_rate_limited),
           tb.dev().traffic().path_healthy() ? "yes" : "no"});
  }
  std::cout << "Failure storm under rolling congestion:\n";
  t.print(std::cout);
  std::cout << "SEED's congestion warnings + rate limiter keep its own\n"
               "signaling bounded — the reset count stays far below the\n"
               "failure count, and the device ends healthy.\n";
  return 0;
}

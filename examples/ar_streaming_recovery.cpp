// Scenario: an edge-AR application (the paper's most disruption-sensitive
// workload — 100 ms budget, no buffer) hits a UDP-blocking network
// misconfiguration, the failure class Android cannot even detect without
// DNS side effects (§3.3). The AR daemon uses SEED's failure report API
// (§4.3.2); the SIM ships the report over DIAG DNNs; the core validates
// it against the user policy, repairs the erroneous block, and modifies
// the session — all while the data plane is nominally "up".
//
//   ./build/examples/ar_streaming_recovery
#include <iostream>

#include "apps/app_model.h"
#include "metrics/table.h"
#include "testbed/testbed.h"

int main() {
  using namespace seed;
  using namespace seed::testbed;

  metrics::Table t({"Scheme", "Recovered", "AR outage (s)",
                    "Reports via DIAG DNN", "Notes"});

  for (device::Scheme scheme :
       {device::Scheme::kLegacy, device::Scheme::kSeedU,
        device::Scheme::kSeedR}) {
    Testbed tb(/*seed=*/777, scheme);
    tb.secondary_congestion_prob = 0;
    tb.bring_up();
    apps::App& ar = tb.dev().add_app(apps::edge_ar_app());
    tb.simulator().run_for(sim::seconds(20));

    const auto t0 = tb.simulator().now();
    const Outcome out = tb.run_delivery_failure(
        DeliveryFailure::kUdpBlock, sim::minutes(12),
        /*immediate_detection=*/scheme != device::Scheme::kLegacy);

    // Give the app a beat to see fresh frames after recovery.
    tb.simulator().poll_until(
        [&] { return ar.perceived_disruption(t0).has_value(); },
        sim::seconds(1), tb.simulator().now() + sim::seconds(30));
    const double outage = ar.perceived_disruption(t0).value_or(
        sim::to_seconds(tb.simulator().now() - t0));

    std::string note;
    if (scheme == device::Scheme::kLegacy) {
      note = out.recovered ? "recovered (unexpectedly)"
                           : "UDP block invisible to Android; no recovery";
    } else if (scheme == device::Scheme::kSeedU) {
      note = out.recovered
                 ? "recovered"
                 : "A3 reset cannot fix a network-side policy (needs root)";
    } else {
      note = "report -> policy check -> session modification";
    }
    t.row({std::string(device::scheme_name(scheme)),
           out.recovered ? "yes" : "no",
           metrics::Table::num(outage, 1),
           std::to_string(tb.core().stats().diag_reports_rx), note});
  }

  std::cout << "Edge AR under an erroneous network-side UDP block:\n";
  t.print(std::cout);
  std::cout << "The AR daemon reports (type=UDP, direction, addr:port); the\n"
               "network finds the effective policy conflicting with the\n"
               "user's intended policy and repairs it (paper §4.4.2).\n";
  return 0;
}

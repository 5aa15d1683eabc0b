// Reproduces paper Fig. 3: Android data-stall detection latency for TCP,
// UDP and DNS failures. Per §3.3: block each traffic class at the core
// while background video plays and the browser visits a site every 5 s;
// measure failure-time -> Android-stall-report latency. UDP failures are
// only caught via the consecutive-DNS-timeout side effect; a pure-UDP
// block with working DNS would go undetected (also reported).
#include <iostream>

#include "apps/app_model.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "testbed/testbed.h"

int main() {
  using namespace seed;
  using namespace seed::testbed;
  constexpr std::uint64_t kSeed = 20220303;
  constexpr int kRuns = 30;

  struct Case {
    DeliveryFailure failure;
    const char* name;
    const char* paper;
  };
  const Case cases[] = {
      {DeliveryFailure::kTcpBlock, "TCP", "avg ~1.8 min"},
      {DeliveryFailure::kUdpBlock, "UDP", "avg ~8 min (via DNS timeouts)"},
      {DeliveryFailure::kDnsOutage, "DNS", "50% not within 8.7 min"},
  };

  metrics::print_banner(std::cout,
                        "Fig. 3: Android failure detection latency (seed " +
                            std::to_string(kSeed) + ")");
  metrics::Table t({"Failure", "Detected", "Mean (s)", "Median (s)",
                    "p90 (s)", "Paper"});

  for (const auto& c : cases) {
    metrics::Samples lat;
    int undetected = 0;
    for (int i = 0; i < kRuns; ++i) {
      Testbed tb(kSeed + static_cast<std::uint64_t>(i) * 7,
                 device::Scheme::kLegacy);
      // Detection-only experiment: keep the sequential retry from
      // interfering with the measurement.
      tb.dev().os().set_sequential_retry_enabled(false);
      tb.bring_up();
      tb.dev().add_app(apps::video_app());
      tb.dev().add_app(apps::web_app());
      tb.simulator().run_for(sim::minutes(2));  // steady state
      tb.dev().os().clear_stall_record();

      const auto t0 = tb.simulator().now();
      (void)tb.run_delivery_failure(c.failure, sim::minutes(25),
                                    /*immediate_detection=*/false);
      // run_delivery_failure returns at timeout (nothing recovers);
      // the detector time stamp is what we came for.
      const auto detected = tb.dev().os().last_stall_at();
      if (detected && *detected > t0) {
        lat.add(sim::to_seconds(*detected - t0));
      } else {
        ++undetected;
      }
    }
    if (lat.empty()) {
      t.row({c.name, "0/" + std::to_string(kRuns), "-", "-", "-", c.paper});
      continue;
    }
    t.row({c.name,
           std::to_string(kRuns - undetected) + "/" + std::to_string(kRuns),
           metrics::Table::num(lat.mean(), 1),
           metrics::Table::num(lat.median(), 1),
           metrics::Table::num(lat.percentile(90), 1), c.paper});
  }
  t.print(std::cout);

  // False-positive check (paper §3.3): blocking only the portal-check
  // server still trips Android's detector.
  {
    int false_positives = 0;
    constexpr int kFpRuns = 10;
    for (int i = 0; i < kFpRuns; ++i) {
      Testbed tb(kSeed + 900 + static_cast<std::uint64_t>(i),
                 device::Scheme::kLegacy);
      tb.dev().os().set_sequential_retry_enabled(false);
      tb.bring_up();
      tb.dev().add_app(apps::video_app());
      tb.simulator().run_for(sim::minutes(2));
      tb.dev().os().clear_stall_record();
      // Block only the portal probe path (port 80): app traffic on
      // 443 keeps working, the connection is actually fine.
      corenet::TrafficPolicy p;
      p.blocked_ports.insert(80);
      tb.core().set_effective_policy(tb.dev().ue_id(), p);
      tb.simulator().run_for(sim::minutes(6));
      if (tb.dev().os().last_stall_at()) ++false_positives;
    }
    std::cout << "portal-server-only outage flagged as data stall in "
              << false_positives << "/" << kFpRuns
              << " runs (paper: false positives occur)\n";
  }
  return 0;
}

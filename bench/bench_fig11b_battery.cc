// Reproduces paper Fig. 11b: device battery over 30 minutes for the
// default phone, SEED (1 diagnosis/s stress) and MobileInsight (diag-port
// decoding). Per §7.2.1: SEED's SIM-based diagnosis costs ~1.2% extra
// battery over 30 min even under the stress load; MobileInsight ~8.5%.
//
// A linear energy model over counted operations, not a measurement: the
// testbed runs the 30-minute window and counts the SIM diagnoses the
// applet handled; battery use is the window's baseline draw, plus each
// diagnosis (or MobileInsight's diag-port decoding) at the calibrated
// energy in common/params.h, over the battery capacity.
#include <iostream>

#include "common/params.h"
#include "metrics/table.h"
#include "testbed/testbed.h"

namespace {

using namespace seed;
using namespace seed::testbed;

constexpr sim::Duration kWindow = sim::minutes(30);

double run_battery(device::Scheme scheme, bool stress_diag,
                   bool mobileinsight, std::uint64_t seed) {
  Testbed tb(seed, scheme);
  tb.bring_up();
  const auto diagnoses = [&tb] {
    const applet::AppletStats& s = tb.dev().applet().stats();
    return s.diags_received + s.reports_received;
  };
  const std::uint64_t diagnoses_before = diagnoses();
  std::function<void()> stress;  // outlives the run below
  if (stress_diag) {
    // Stress: one SIM diagnosis per second (paper §7.2.1). Reports arrive
    // through the carrier app; the healthy path means no resets fire —
    // only the diagnosis work is billed.
    stress = [&tb, &stress] {
      proto::FailureReport r;
      r.type = proto::FailureType::kTcp;
      r.direction = proto::TrafficDirection::kBoth;
      r.port = 443;
      tb.dev().carrier_app().report_failure(r);
      tb.simulator().schedule_after(sim::seconds(1), stress);
    };
    tb.simulator().schedule_after(sim::seconds(1), stress);
  }
  tb.simulator().run_for(kWindow);

  const double window_s = sim::to_seconds(kWindow);
  double mj = window_s * params::kBaselineDrawMw;
  if (mobileinsight) {
    mj += window_s * params::kMobileInsightMsgRateHz *
          params::kMobileInsightMsgEnergyMj;
  }
  mj += static_cast<double>(diagnoses() - diagnoses_before) *
        params::kSimDiagnosisEnergyMj;
  return mj / params::kBatteryCapacityMj * 100.0;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 20221212;
  metrics::print_banner(std::cout,
                        "Fig. 11b: battery use over 30 min (seed " +
                            std::to_string(kSeed) + ")");
  const double def =
      run_battery(device::Scheme::kLegacy, false, false, kSeed);
  const double seed_mode =
      run_battery(device::Scheme::kSeedU, true, false, kSeed + 1);
  const double mi =
      run_battery(device::Scheme::kLegacy, false, true, kSeed + 2);

  metrics::Table t({"Configuration", "Battery used (30 min)", "Paper"});
  t.row({"Default", metrics::Table::num(def, 1) + "%", "5.4%"});
  t.row({"SEED (1 diag/s stress)", metrics::Table::num(seed_mode, 1) + "%",
         "6.6% (+1.2%)"});
  t.row({"MobileInsight", metrics::Table::num(mi, 1) + "%",
         "13.9% (+8.5%)"});
  t.print(std::cout);
  std::cout << "SEED extra: " << metrics::Table::num(seed_mode - def, 1)
            << "% | MobileInsight extra: "
            << metrics::Table::num(mi - def, 1) << "%\n";
  return 0;
}

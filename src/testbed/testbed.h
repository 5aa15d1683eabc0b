// Single-device experiment harness: the paper's one core, one gNB, one
// device testbed (§7 "Experimental Setup") as an N=1 MultiTestbed, plus
// the scripted drivers that arm one failure condition, trigger the
// affected procedure, and measure disruption to recovery.
#pragma once

#include <cstdint>

#include "testbed/multi_testbed.h"

namespace seed::testbed {

struct Outcome {
  bool recovered = false;
  double disruption_s = 0.0;  // failure start -> service healthy
  bool user_action_required = false;
};

/// Runs SEED without an online learner unless a caller shares one via
/// core().set_learner(); spans carry no per-UE tag (no TagScope is ever
/// opened).
class Testbed : public MultiTestbed {
 public:
  Testbed(std::uint64_t seed, Scheme scheme);

  /// Powers the device and runs until the data service is healthy.
  void bring_up();

  Outcome run_cp_failure(CpFailure f,
                         sim::Duration timeout = sim::minutes(40));
  Outcome run_dp_failure(DpFailure f,
                         sim::Duration timeout = sim::minutes(80));
  Outcome run_delivery_failure(DeliveryFailure f,
                               sim::Duration timeout = sim::minutes(40),
                               bool immediate_detection = true);

  /// Injects an operator-custom (unstandardized) failure with the given
  /// cause code on the chosen plane (the §7.2.4 experiment).
  Outcome run_custom_failure(nas::Plane plane, core::CustomCause code,
                             sim::Duration timeout = sim::minutes(12));

  /// Table 5-style configuration: the app experiment runs controlled
  /// faults with the recommended Android timers and a faster operator
  /// config-propagation heal.
  bool use_default_android_timers = true;
  double dp_heal_median_s = 460.0;

  /// Probability that a c-plane failure event carries a secondary
  /// congestion layer (drives Table 4's long tails). Tests set 0.
  double secondary_congestion_prob = 0.10;

  /// The one device (fleet index 0).
  device::Device& dev() { return MultiTestbed::dev(0); }

 private:
  /// Runs until the end-to-end path is healthy; returns seconds from t0.
  Outcome await_recovery(sim::TimePoint t0, sim::Duration timeout);
};

}  // namespace seed::testbed

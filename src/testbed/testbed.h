// Single-device experiment harness: the paper's one core, one gNB, one
// device testbed (§7 "Experimental Setup") as an N=1 MultiTestbed, plus
// the scripted drivers that arm one failure condition, trigger the
// affected procedure, and measure disruption to recovery.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

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

/// One Table 4-style run: the failure class, the sampled failure (ignored
/// for kDelivery, which is always kStaleSession) and the seed of the
/// fresh single-UE Testbed it runs on.
struct Scenario {
  enum class Klass { kCp, kDp, kDelivery };
  Klass klass = Klass::kCp;
  SampledFailure f;
  std::uint64_t tb_seed = 0;
};

/// `runs` draws of the Table 1 mix from Rng(seed). With `control_plane`
/// set, only that plane's failures are kept (the rest still consume their
/// draw). The k-th kept draw (0-based) runs on testbed seed
/// seed * 131 + k + 1.
std::vector<Scenario> table1_scenarios(
    std::uint64_t seed, int runs,
    std::optional<bool> control_plane = std::nullopt);

/// `runs` Table 4 delivery scenarios on testbed seeds seed * 977 + i.
std::vector<Scenario> delivery_scenarios(std::uint64_t seed, int runs);

/// Arms the operator-known action of a custom failure (§5.2: B2 for the
/// control plane, B3 for the data plane; pure-unknown learning is
/// §7.2.4), brings the device up and runs the failure with the Table 4
/// timeouts (40 / 80 / 40 minutes). Caller hooks such as enable_chaos()
/// go before the call, stats capture after it.
Outcome run_scenario(Testbed& tb, const Scenario& s);

enum class OutcomeClass { kRecovered, kUserAction, kFailed };

/// Which §7.1.1 bucket a run lands in: recovered, "user must act" (the
/// device notified its user, or the failure is #3 illegal UE / #29
/// expired plan, which no scheme can fix), or failed.
///
/// perfbench/table4.cc still uses another rule: user action when the
/// device notified its user, and ok only when recovered without any
/// notification. The two disagree on runs of the benches' own sweeps:
/// 4 Legacy Table 4 runs and 12 Legacy chaos runs time out on #3/#29
/// without a notification (user action here, failed there), and 17 chaos
/// runs at p > 0 recover after notifying the user (recovered here, not ok
/// there). See EXPERIMENTS.md "Two user-action rules".
OutcomeClass classify(const Outcome& out, const Scenario& s);

}  // namespace seed::testbed

// SIM-side handling decisions: paper Table 3 + §4.4.2 timing rules.
//
// Given a diagnosis (standardized cause with/without config, customized
// cause with suggested action, congestion warning, or an app/OS data
// delivery report) and the device mode (SEED-U without root / SEED-R with
// root), produce the multi-tier reset plan.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nas/causes.h"
#include "seedproto/diag_payload.h"
#include "seedproto/failure_report.h"
#include "simcore/time.h"

namespace seed::core {

enum class DeviceMode : std::uint8_t { kSeedU, kSeedR };

/// Diagnosis classes of Table 3 (rows) plus the special flows.
enum class DiagnosisClass : std::uint8_t {
  kControlPlaneCause,
  kControlPlaneCauseWithConfig,
  kDataPlaneCause,
  kDataPlaneCauseWithConfig,
  kDataDeliveryReport,
  kCustomWithSuggestedAction,
  kCustomUnknown,       // -> online-learning sequential trial
  kCongestion,          // -> wait, no reset
  kUserActionRequired,  // -> notify user
};

struct HandlingPlan {
  DiagnosisClass klass;
  /// Ordered actions to run (Table 3 cell; e.g. SEED-U c-plane w/ config
  /// runs A2 then A1).
  std::vector<proto::ResetAction> actions;
  /// Delay before the first action (2 s for hardware/c-plane resets so
  /// transient failures self-recover, §4.4.2; congestion uses the
  /// network-provided timer).
  sim::Duration wait{0};
  bool notify_user = false;
  /// True when the plan came from online learning trial mode.
  bool learning_trial = false;
};

/// Classifies a downlink DiagInfo into a Table 3 row.
DiagnosisClass classify(const proto::DiagInfo& info);

/// Table 3: plan for a downlink assistance message.
HandlingPlan decide(const proto::DiagInfo& info, DeviceMode mode);

/// Plan for an app/OS data-delivery failure report (Table 3 last row).
HandlingPlan decide_for_report(const proto::FailureReport& report,
                               DeviceMode mode);

/// Algorithm 1 line 2: the sequential trial order for unknown causes,
/// filtered to the actions available in `mode`.
std::vector<proto::ResetAction> learning_trial_order(DeviceMode mode);

/// How the decision module reacts when a reset action fails (chaos-layer
/// hardening). The applet is hardened exactly when a chaos engine is
/// attached; unhardened, it makes one attempt per action with no
/// deadline, no escalation beyond the plan and no rate-limit refund, so
/// unimpaired runs stay byte-identical to the original behaviour.
/// Hardened, it makes kHardenedAttempts per action with backoff_delay()
/// between them, treats a command outstanding past kActionDeadline as
/// failed, walks escalation_ladder() once the plan is exhausted, then
/// notifies the user, and refunds a failed reset's rate-limit charge.
inline constexpr int kHardenedAttempts = 3;
inline constexpr sim::Duration kActionDeadline = sim::seconds(20);

/// Attempt is 1-based: the delay before attempt `attempt + 1` after
/// attempt `attempt` failed — 500 ms, doubling per attempt, capped at 8 s.
sim::Duration backoff_delay(int attempt);

/// Tier escalation (chaos hardening): the Table-3-ordered actions that
/// remain *after* `plan` failed — learning_trial_order(mode) minus the
/// plan's own actions. SEED-R devices therefore escalate A-tier plans
/// into the B tier; the terminal fallback past the ladder is a user
/// notification.
std::vector<proto::ResetAction> escalation_ladder(
    const std::vector<proto::ResetAction>& plan, DeviceMode mode);

}  // namespace seed::core

#include "seed/decision.h"

#include <array>
#include <string_view>

#include "common/params.h"
#include "simcore/log.h"

namespace seed::core {

using proto::AssistKind;
using proto::ResetAction;

namespace {
// Log slugs per diagnosis class, indexed by DiagnosisClass.
constexpr std::array<std::string_view, 9> kClassSlugs = {
    "cplane_cause",        "cplane_cause_config", "dplane_cause",
    "dplane_cause_config", "delivery_report",     "custom_suggested",
    "custom_unknown",      "congestion",          "user_action",
};

std::string_view klass_slug(DiagnosisClass k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kClassSlugs.size() ? kClassSlugs[i] : "?";
}

void note_decision(const HandlingPlan& plan) {
  SLOG(kDebug, "decision") << klass_slug(plan.klass) << " -> "
                           << plan.actions.size() << " action(s), wait "
                           << sim::to_ms(plan.wait) << " ms";
}
}  // namespace

DiagnosisClass classify(const proto::DiagInfo& info) {
  switch (info.kind) {
    case AssistKind::kCongestionWarning:
      return DiagnosisClass::kCongestion;
    case AssistKind::kSuggestedAction:
      return DiagnosisClass::kCustomWithSuggestedAction;
    case AssistKind::kCustomCauseNoAction:
      return DiagnosisClass::kCustomUnknown;
    case AssistKind::kHardwareResetRequest:
      // Passive timeout branch of Fig. 8: infra asks for a hardware reset.
      return DiagnosisClass::kCustomWithSuggestedAction;
    case AssistKind::kStandardCause:
    case AssistKind::kCauseWithConfig:
      break;
  }
  const nas::CauseInfo* ci = nas::find_cause(info.plane, info.cause);
  if (ci && ci->user_action_required) {
    return DiagnosisClass::kUserActionRequired;
  }
  if (ci && ci->category == nas::CauseCategory::kCongestion) {
    return DiagnosisClass::kCongestion;
  }
  const bool with_config = info.config.has_value();
  if (info.plane == nas::Plane::kControl) {
    return with_config ? DiagnosisClass::kControlPlaneCauseWithConfig
                       : DiagnosisClass::kControlPlaneCause;
  }
  return with_config ? DiagnosisClass::kDataPlaneCauseWithConfig
                     : DiagnosisClass::kDataPlaneCause;
}

HandlingPlan decide(const proto::DiagInfo& info, DeviceMode mode) {
  HandlingPlan plan;
  plan.klass = classify(info);
  const bool root = mode == DeviceMode::kSeedR;
  switch (plan.klass) {
    case DiagnosisClass::kControlPlaneCause:
      // Table 3 row 1: A1 (SEED-U) / B1 (SEED-R); 2 s transient wait.
      plan.actions = {root ? ResetAction::kB1ModemReset
                           : ResetAction::kA1ProfileReload};
      plan.wait = params::kSeedCplaneWait;
      break;
    case DiagnosisClass::kControlPlaneCauseWithConfig:
      // Row 2: A2 & A1 / B2-with-update.
      if (root) {
        plan.actions = {ResetAction::kA2CPlaneConfigUpdate,
                        ResetAction::kB2CPlaneReattach};
      } else {
        plan.actions = {ResetAction::kA2CPlaneConfigUpdate,
                        ResetAction::kA1ProfileReload};
      }
      plan.wait = params::kSeedCplaneWait;
      break;
    case DiagnosisClass::kDataPlaneCause:
      // Row 3: A1 / B3 — data plane resets immediately (no 2 s wait;
      // §4.4.2 applies the wait to hardware and control-plane resets).
      plan.actions = {root ? ResetAction::kB3DPlaneReset
                           : ResetAction::kA1ProfileReload};
      break;
    case DiagnosisClass::kDataPlaneCauseWithConfig:
      // Row 4: A3 / B3-modification.
      plan.actions = {root ? ResetAction::kB3DPlaneReset
                           : ResetAction::kA3DPlaneConfigUpdate};
      break;
    case DiagnosisClass::kDataDeliveryReport:
      plan.actions = {root ? ResetAction::kB3DPlaneReset
                           : ResetAction::kA3DPlaneConfigUpdate};
      break;
    case DiagnosisClass::kCustomWithSuggestedAction: {
      ResetAction a = info.suggested.value_or(ResetAction::kNone);
      if (!root) {
        // Downgrade rooted actions when root is unavailable.
        if (a == ResetAction::kB1ModemReset) a = ResetAction::kA1ProfileReload;
        if (a == ResetAction::kB2CPlaneReattach) {
          a = ResetAction::kA1ProfileReload;
        }
        if (a == ResetAction::kB3DPlaneReset) {
          // The rootless whole-module equivalent of a data-plane reset is
          // the profile reload (Table 3 row 3), which rebuilds the
          // session context via a fresh registration.
          a = ResetAction::kA1ProfileReload;
        }
      }
      if (a != ResetAction::kNone) plan.actions = {a};
      if (a == ResetAction::kB1ModemReset ||
          a == ResetAction::kB2CPlaneReattach ||
          a == ResetAction::kA1ProfileReload) {
        plan.wait = params::kSeedCplaneWait;
      }
      break;
    }
    case DiagnosisClass::kCustomUnknown:
      plan.actions = learning_trial_order(mode);
      plan.learning_trial = true;
      break;
    case DiagnosisClass::kCongestion:
      plan.wait = info.congestion_wait_s
                      ? sim::seconds(*info.congestion_wait_s)
                      : params::kSeedCplaneWait;
      break;
    case DiagnosisClass::kUserActionRequired:
      plan.notify_user = true;
      break;
  }
  note_decision(plan);
  return plan;
}

HandlingPlan decide_for_report(const proto::FailureReport& /*report*/,
                               DeviceMode mode) {
  HandlingPlan plan;
  plan.klass = DiagnosisClass::kDataDeliveryReport;
  // Table 3 last row: A3 config update without root; with root, the SIM
  // forwards the report to the infrastructure, which reset/modifies the
  // data plane (B3).
  plan.actions = {mode == DeviceMode::kSeedR
                      ? proto::ResetAction::kB3DPlaneReset
                      : proto::ResetAction::kA3DPlaneConfigUpdate};
  note_decision(plan);
  return plan;
}

std::vector<ResetAction> learning_trial_order(DeviceMode mode) {
  // Algorithm 1 line 2: [B3, A3, B2, A2, B1, A1] — data plane first,
  // hardware last. Without root only the A-tier is available.
  if (mode == DeviceMode::kSeedR) {
    return {ResetAction::kB3DPlaneReset, ResetAction::kA3DPlaneConfigUpdate,
            ResetAction::kB2CPlaneReattach, ResetAction::kA2CPlaneConfigUpdate,
            ResetAction::kB1ModemReset, ResetAction::kA1ProfileReload};
  }
  return {ResetAction::kA3DPlaneConfigUpdate,
          ResetAction::kA2CPlaneConfigUpdate, ResetAction::kA1ProfileReload};
}

sim::Duration backoff_delay(const RetryPolicy& policy, int attempt) {
  double d = sim::to_seconds(policy.backoff_initial);
  for (int i = 1; i < attempt; ++i) d *= policy.backoff_factor;
  const double cap = sim::to_seconds(policy.backoff_cap);
  return sim::secs_f(d < cap ? d : cap);
}

std::vector<ResetAction> escalation_ladder(
    const std::vector<ResetAction>& plan, DeviceMode mode) {
  std::vector<ResetAction> out;
  for (ResetAction a : learning_trial_order(mode)) {
    bool in_plan = false;
    for (ResetAction p : plan) {
      if (p == a) in_plan = true;
    }
    if (!in_plan) out.push_back(a);
  }
  return out;
}

}  // namespace seed::core

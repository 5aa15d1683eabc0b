// Diagnosis-outcome taxonomy for ground-truth evaluation.
//
// Every Fig. 8 decision (tree, cache hit, or learner suggestion), every
// report-handling outcome on the infra side, and every SIM-local plan is
// condensed into a DiagnosisVerdict and emitted as a kDiagnosisVerdict
// trace event. The event's `label` field — stamped automatically from
// the simulator's context cell — joins the verdict back to the labeled
// injection that provoked it, so the eval scorer can build
// per-cause confusion matrices without any side-channel bookkeeping.
//
// CauseFamily is the ground-truth vocabulary: the cause families the
// labeled scenario generator can inject, packed into the high byte of
// the 32-bit label (the low 24 bits are a per-injection ordinal).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "obs/trace.h"

namespace seed::core {

/// Ground-truth cause families injectable by testbed::LabeledScenarioGen.
/// Values are wire-stable (they ride in trace labels and goldens):
/// append only.
enum class CauseFamily : std::uint8_t {
  kNone = 0,               // unlabeled / unattributed
  kIdentityDesync,         // GUTI mapping dropped (mm cause #9)
  kOutdatedPlmn,           // PLMN no longer served (mm cause #11)
  kStateMismatch,          // transient CM-state mismatch (mm cause #98)
  kUnauthorized,           // subscription revoked (mm cause #3)
  kTransientCongestion,    // congestion, short advertised wait
  kPersistentCongestion,   // congestion, long advertised wait
  kStaleDnn,               // device requests a decommissioned DNN
  kOutdatedSlice,          // device requests a stale S-NSSAI
  kExpiredPlan,            // data plan lapsed (sm cause #29)
  kPolicyBlock,            // infra policy silently drops a flow
  kStaleSession,           // PDU session state stale after core restart
  kDeliveryTypeMismatch,   // report's flow type != the blocked flow type
  kSimChannelFault,        // device unresponsive (SIM/modem channel dead)
  kCustomUnknown,          // operator-customized cause, no known action
  kAdversarialPoisoning,   // malformed/forged collab traffic
};
inline constexpr std::size_t kCauseFamilyCount = 16;  // incl. kNone

std::string_view family_name(CauseFamily f);
std::optional<CauseFamily> family_from(std::string_view name);

/// Label packing: family in the high byte, injection ordinal below.
/// Fleet shards carve disjoint ordinal ranges so merged streams never
/// collide (see LabeledScenarioGen).
constexpr std::uint32_t make_label(CauseFamily f, std::uint32_t ordinal) {
  return (static_cast<std::uint32_t>(f) << 24) | (ordinal & 0xffffffu);
}
constexpr CauseFamily family_of_label(std::uint32_t label) {
  return static_cast<CauseFamily>((label >> 24) & 0xffu);
}
constexpr std::uint32_t ordinal_of_label(std::uint32_t label) {
  return label & 0xffffffu;
}

/// What shape of answer the diagnosis produced. The first five mirror
/// proto::AssistKind (Fig. 8 leaves); the rest cover the infra's
/// report-handling outcomes and the SIM's local plans, which are
/// diagnoses in their own right even though no DiagInfo is composed.
enum class VerdictKind : std::uint8_t {
  kNone = 0,
  kStandardCause,       // forwarded standardized cause
  kCauseWithConfig,     // cause + up-to-date config payload
  kSuggestedAction,     // operator- or learner-suggested action
  kCustomNoAction,      // custom cause, SIM runs the trial sequence
  kCongestionWarning,   // congestion + advertised wait
  kHardwareReset,       // passive no-response -> hardware reset request
  kDplaneReset,         // delivery failure -> network d-plane reset
  kPolicyFix,           // report matched a blocked flow; policy repaired
  kDnsFix,              // report blamed DNS; backup resolver configured
  kStaleReset,          // report fell through to the stale-session reset
  kReportReject,        // uplink rejected (malformed / untrusted peer)
  kLocalPlan,           // SIM-local plan (SEED-U or uplink fallback)
};

/// Who actually decided: the Fig. 8 tree, a DiagnosisCache replay, the
/// §5.3 crowd-sourced learner, the infra's report handler, or the SIM
/// deciding locally.
enum class VerdictSource : std::uint8_t {
  kNone = 0,
  kTree,
  kCache,
  kLearner,
  kReport,
  kSim,
};

std::string_view verdict_kind_token(VerdictKind k);
std::optional<VerdictKind> verdict_kind_from(std::string_view token);
std::string_view verdict_source_token(VerdictSource s);
std::optional<VerdictSource> verdict_source_from(std::string_view token);

struct DiagnosisVerdict {
  std::uint8_t plane = 0;        // 0 = control, 1 = data
  std::uint8_t cause = 0;        // standardized or custom (low byte)
  VerdictKind kind = VerdictKind::kNone;
  VerdictSource source = VerdictSource::kNone;
  std::uint8_t action = 0;       // proto::ResetAction code; 0 = none
  std::uint16_t wait_s = 0;      // advertised congestion wait; 0 = n/a
  /// Crowd reports absorbed for this cause at decision time (learner
  /// verdicts only) — the x-axis of the convergence curve.
  std::uint32_t learner_records = 0;

  bool operator==(const DiagnosisVerdict&) const = default;
};

/// Records the verdict as a kDiagnosisVerdict trace event
/// (detail = "<kind>/<source>", wait in trans_ms, learner records in
/// prep_ms; the ground-truth label is stamped from the simulator cell).
void emit_verdict(const DiagnosisVerdict& v);

/// Records a kGroundTruthLabel trace event at an injection site. The
/// family also rides in `cause` so scorers need not unpack the label.
void emit_ground_truth(CauseFamily family, std::uint8_t plane,
                       std::uint32_t label);

/// Reconstructs a verdict from its trace event (nullopt when the event
/// is not a kDiagnosisVerdict or its detail token is unknown).
std::optional<DiagnosisVerdict> verdict_from_event(const obs::Event& e);

/// The cause family a verdict amounts to claiming — the prediction side
/// of the confusion matrix. Congestion splits transient/persistent on
/// the advertised wait (< 60 s = transient, the operator-desk
/// convention the labeled packs follow).
CauseFamily predicted_family(const DiagnosisVerdict& v);

/// True when `e` is a labeled kDiagnosisVerdict whose predicted family
/// contradicts its ground-truth label — the misdiagnosis retention
/// trigger. Shaped as a pure event predicate so it can ride in
/// obs::RetentionPolicy::trigger (obs sits below this layer).
bool verdict_mismatch(const obs::Event& e);

}  // namespace seed::core

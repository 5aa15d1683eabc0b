#include "seed/verdict.h"

#include <array>
#include <string>

namespace seed::core {
namespace {

constexpr std::array<std::string_view, kCauseFamilyCount> kFamilyNames = {
    "none",
    "identity_desync",
    "outdated_plmn",
    "state_mismatch",
    "unauthorized",
    "transient_congestion",
    "persistent_congestion",
    "stale_dnn",
    "outdated_slice",
    "expired_plan",
    "policy_block",
    "stale_session",
    "delivery_type_mismatch",
    "sim_channel_fault",
    "custom_unknown",
    "adversarial_poisoning",
};

constexpr std::array<std::string_view, 13> kVerdictKindTokens = {
    "none",       "std",        "cfg",      "sugg",       "noact",
    "cong",       "hwreset",    "dreset",   "policy_fix", "dns_fix",
    "stale_rst",  "rej",        "local",
};

constexpr std::array<std::string_view, 6> kVerdictSourceTokens = {
    "none", "tree", "cache", "learner", "report", "sim",
};

/// The congestion transient/persistent split point (seconds).
constexpr std::uint16_t kPersistentWaitThresholdS = 60;

}  // namespace

std::string_view family_name(CauseFamily f) {
  const auto i = static_cast<std::size_t>(f);
  return i < kFamilyNames.size() ? kFamilyNames[i] : "unknown";
}

std::optional<CauseFamily> family_from(std::string_view name) {
  for (std::size_t i = 0; i < kFamilyNames.size(); ++i) {
    if (kFamilyNames[i] == name) return static_cast<CauseFamily>(i);
  }
  return std::nullopt;
}

std::string_view verdict_kind_token(VerdictKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kVerdictKindTokens.size() ? kVerdictKindTokens[i] : "unknown";
}

std::optional<VerdictKind> verdict_kind_from(std::string_view token) {
  for (std::size_t i = 0; i < kVerdictKindTokens.size(); ++i) {
    if (kVerdictKindTokens[i] == token) return static_cast<VerdictKind>(i);
  }
  return std::nullopt;
}

std::string_view verdict_source_token(VerdictSource s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kVerdictSourceTokens.size() ? kVerdictSourceTokens[i]
                                         : "unknown";
}

std::optional<VerdictSource> verdict_source_from(std::string_view token) {
  for (std::size_t i = 0; i < kVerdictSourceTokens.size(); ++i) {
    if (kVerdictSourceTokens[i] == token) {
      return static_cast<VerdictSource>(i);
    }
  }
  return std::nullopt;
}

void emit_verdict(const DiagnosisVerdict& v) {
  if (!obs::enabled()) return;
  std::string detail(verdict_kind_token(v.kind));
  detail.push_back('/');
  detail.append(verdict_source_token(v.source));
  obs::emit(obs::EventKind::kDiagnosisVerdict,
            v.source == VerdictSource::kSim ? obs::Origin::kSim
                                            : obs::Origin::kInfra,
            {.plane = v.plane,
             .cause = v.cause,
             .action = v.action,
             .prep_ms = static_cast<double>(v.learner_records),
             .trans_ms = static_cast<double>(v.wait_s),
             .detail = detail});
}

void emit_ground_truth(CauseFamily family, std::uint8_t plane,
                       std::uint32_t label) {
  obs::emit(obs::EventKind::kGroundTruthLabel, obs::Origin::kTestbed,
            {.plane = plane,
             .cause = static_cast<std::uint8_t>(family),
             .label = label,
             .detail = family_name(family)});
}

std::optional<DiagnosisVerdict> verdict_from_event(const obs::Event& e) {
  if (e.kind != obs::EventKind::kDiagnosisVerdict) return std::nullopt;
  const auto slash = e.detail.find('/');
  if (slash == std::string::npos) return std::nullopt;
  const auto kind = verdict_kind_from(
      std::string_view(e.detail).substr(0, slash));
  const auto source = verdict_source_from(
      std::string_view(e.detail).substr(slash + 1));
  if (!kind || !source) return std::nullopt;
  DiagnosisVerdict v;
  v.plane = e.plane;
  v.cause = e.cause;
  v.kind = *kind;
  v.source = *source;
  v.action = e.action;
  v.wait_s = static_cast<std::uint16_t>(e.trans_ms);
  v.learner_records = static_cast<std::uint32_t>(e.prep_ms);
  return v;
}

CauseFamily predicted_family(const DiagnosisVerdict& v) {
  switch (v.kind) {
    case VerdictKind::kReportReject:
      return CauseFamily::kAdversarialPoisoning;
    case VerdictKind::kHardwareReset:
      return CauseFamily::kSimChannelFault;
    case VerdictKind::kCongestionWarning:
      return v.wait_s < kPersistentWaitThresholdS
                 ? CauseFamily::kTransientCongestion
                 : CauseFamily::kPersistentCongestion;
    case VerdictKind::kPolicyFix:
      return CauseFamily::kPolicyBlock;
    case VerdictKind::kStaleReset:
    case VerdictKind::kDplaneReset:
    case VerdictKind::kLocalPlan:
      // The generic answer to an unexplained delivery report: reset the
      // d-plane session. It claims the session state was stale.
      return CauseFamily::kStaleSession;
    case VerdictKind::kSuggestedAction:
    case VerdictKind::kCustomNoAction:
      return CauseFamily::kCustomUnknown;
    case VerdictKind::kStandardCause:
    case VerdictKind::kCauseWithConfig:
      switch (v.cause) {
        case 9: return CauseFamily::kIdentityDesync;
        case 11: case 15: return CauseFamily::kOutdatedPlmn;
        case 98: return CauseFamily::kStateMismatch;
        case 3: return CauseFamily::kUnauthorized;
        case 29: return CauseFamily::kExpiredPlan;
        case 27: case 33: return CauseFamily::kStaleDnn;
        case 70: return CauseFamily::kOutdatedSlice;
        case 22: case 26:
          return v.wait_s < kPersistentWaitThresholdS
                     ? CauseFamily::kTransientCongestion
                     : CauseFamily::kPersistentCongestion;
        default: return CauseFamily::kNone;
      }
    case VerdictKind::kDnsFix:
    case VerdictKind::kNone:
      return CauseFamily::kNone;
  }
  return CauseFamily::kNone;
}

bool verdict_mismatch(const obs::Event& e) {
  if (e.kind != obs::EventKind::kDiagnosisVerdict || e.label == 0) {
    return false;
  }
  const auto v = verdict_from_event(e);
  // An unparseable verdict on a labeled injection is itself suspicious:
  // retain it rather than silently aging the lifecycle out.
  if (!v) return true;
  return predicted_family(*v) != family_of_label(e.label);
}

}  // namespace seed::core

#include "seed/infra_assist.h"

#include "obs/prof.h"
#include "obs/trace.h"
#include "seed/verdict.h"
#include "simcore/log.h"

namespace seed::core {

using proto::AssistKind;
using proto::DiagInfo;

namespace {
AssistAdvice classify_failure_impl(const FailureEvent& event,
                                   NetRecord* learner, sim::Rng& rng) {
  AssistAdvice advice;
  DiagInfo d;
  d.plane = event.plane;

  if (!event.network_initiated) {
    // ---- Passive branch of Fig. 8.
    if (!event.device_responded) {
      // Timeout without device response -> hardware reset request.
      d.kind = AssistKind::kHardwareResetRequest;
      d.suggested = proto::ResetAction::kB1ModemReset;
      advice.diag = d;
      return advice;
    }
    if (event.sim_reported_delivery) {
      // Data delivery failure reported by SIM -> trigger data-plane reset
      // (§4.3) or warn congestion (§5.2).
      if (event.congested) {
        d.kind = AssistKind::kCongestionWarning;
        d.cause = static_cast<std::uint8_t>(nas::MmCause::kCongestion);
        d.congestion_wait_s = event.congestion_wait_s;
        advice.diag = d;
        return advice;
      }
      advice.trigger_dplane_reset = true;
      return advice;
    }
    // Device reject with a standardized cause -> forward the cause code.
    d.kind = AssistKind::kStandardCause;
    d.cause = event.standardized_cause;
    advice.diag = d;
    return advice;
  }

  // ---- Active branch (network-initialized reject).
  if (event.standardized_cause != 0) {
    d.cause = event.standardized_cause;
    const auto kind = nas::config_kind_for(event.plane, d.cause);
    if (kind != nas::ConfigKind::kNone && event.config) {
      d.kind = AssistKind::kCauseWithConfig;  // config-needed branch
      d.config = event.config;
    } else {
      d.kind = AssistKind::kStandardCause;  // no-config branch
    }
    advice.diag = d;
    return advice;
  }

  // Unstandardized cause.
  d.cause = static_cast<std::uint8_t>(event.custom_cause & 0xff);
  if (event.custom_action) {
    d.kind = AssistKind::kSuggestedAction;  // operator-provided handling
    d.suggested = event.custom_action;
    advice.diag = d;
    return advice;
  }
  // No suggested action -> consult the online learner (§5.3).
  if (learner != nullptr) {
    if (const auto suggestion = learner->suggest(event.custom_cause, rng)) {
      d.kind = AssistKind::kSuggestedAction;
      d.suggested = suggestion;
      advice.diag = d;
      return advice;
    }
  }
  d.kind = AssistKind::kCustomCauseNoAction;  // SIM runs the trial sequence
  advice.diag = d;
  return advice;
}

VerdictKind verdict_kind_of(AssistKind kind) {
  switch (kind) {
    case AssistKind::kStandardCause: return VerdictKind::kStandardCause;
    case AssistKind::kCauseWithConfig: return VerdictKind::kCauseWithConfig;
    case AssistKind::kSuggestedAction: return VerdictKind::kSuggestedAction;
    case AssistKind::kCustomCauseNoAction:
      return VerdictKind::kCustomNoAction;
    case AssistKind::kCongestionWarning:
      return VerdictKind::kCongestionWarning;
    case AssistKind::kHardwareResetRequest:
      return VerdictKind::kHardwareReset;
  }
  return VerdictKind::kNone;
}

// Shared by the tree and the cache-hit path so both produce the same
// log line and trace event — a cached diagnosis is observably identical
// to a computed one (its verdict differs only in provenance).
void log_and_emit(const AssistAdvice& advice, VerdictSource source,
                  const FailureEvent& event, const NetRecord* learner) {
  if (advice.diag) {
    SLOG(kDebug, "infra") << "diagnosis for cause #" << int(advice.diag->cause)
                          << (advice.diag->config ? " + config" : "");
    const auto& suggested = advice.diag->suggested;
    obs::emit(obs::EventKind::kDiagnosisMade, obs::Origin::kInfra,
              {.plane = static_cast<std::uint8_t>(advice.diag->plane),
               .cause = advice.diag->cause,
               .action = suggested ? static_cast<std::uint8_t>(*suggested)
                                   : std::uint8_t{0}});
    if (obs::enabled()) {
      DiagnosisVerdict v;
      v.plane = static_cast<std::uint8_t>(advice.diag->plane);
      v.cause = advice.diag->cause;
      v.kind = verdict_kind_of(advice.diag->kind);
      v.source = source;
      v.action = advice.diag->suggested
                     ? static_cast<std::uint8_t>(*advice.diag->suggested)
                     : 0;
      if (event.congested ||
          v.kind == VerdictKind::kCongestionWarning) {
        v.wait_s = event.congestion_wait_s;
      }
      // A suggested action for a custom cause with no operator mapping
      // can only have come from the crowd-sourced learner; record the
      // model depth that backed it (the convergence curve's x-axis).
      // This branch is never cached (cacheable() bypasses it), so cached
      // and uncached runs agree on learner_records too.
      if (source == VerdictSource::kTree && learner != nullptr &&
          event.network_initiated && event.standardized_cause == 0 &&
          !event.custom_action) {
        if (v.kind == VerdictKind::kSuggestedAction) {
          v.source = VerdictSource::kLearner;
        }
        v.learner_records = learner->record_count(event.custom_cause);
      }
      emit_verdict(v);
    }
  } else if (advice.trigger_dplane_reset) {
    SLOG(kDebug, "infra") << "delivery report -> network d-plane reset";
    obs::emit(obs::EventKind::kDiagnosisMade, obs::Origin::kInfra,
              {.plane = 1});
    if (obs::enabled()) {
      DiagnosisVerdict v;
      v.plane = 1;
      v.kind = VerdictKind::kDplaneReset;
      v.source = source;
      emit_verdict(v);
    }
  }
}
}  // namespace

AssistAdvice classify_failure(const FailureEvent& event, NetRecord* learner,
                              sim::Rng& rng) {
  AssistAdvice advice = classify_failure_impl(event, learner, rng);
  log_and_emit(advice, VerdictSource::kTree, event, learner);
  return advice;
}

// --------------------------------------------------------- DiagnosisCache

bool DiagnosisCache::cacheable(const FailureEvent& event,
                               const NetRecord* learner) {
  // The only impure branch of Fig. 8: an active unstandardized failure
  // with no operator-known action consults the online learner, whose
  // sigmoid gate draws the RNG and whose answer evolves as records are
  // crowdsourced. Everything else is a pure function of the event.
  const bool consults_learner = event.network_initiated &&
                                event.standardized_cause == 0 &&
                                !event.custom_action && learner != nullptr;
  return !consults_learner;
}

std::uint64_t DiagnosisCache::digest(const FailureEvent& event) {
  PROF_ZONE("diagcache.digest");
  // FNV-1a, folding in every field classify_failure reads.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    // Mix all 8 bytes so multi-byte fields (counts, waits) fully land.
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(event.network_initiated ? 1 : 0);
  mix(event.device_responded ? 1 : 0);
  mix(event.sim_reported_delivery ? 1 : 0);
  mix(static_cast<std::uint64_t>(event.plane));
  mix(event.standardized_cause);
  mix(event.custom_cause);
  mix(event.custom_action
          ? 0x100ull | static_cast<std::uint64_t>(*event.custom_action)
          : 0ull);
  mix(event.congested ? 1 : 0);
  mix(event.congestion_wait_s);
  if (event.config) {
    mix(0x200ull | static_cast<std::uint64_t>(event.config->kind));
    mix(event.config->value.size());
    for (const std::uint8_t b : event.config->value) mix(b);
  } else {
    mix(0x300ull);
  }
  return h;
}

DiagnosisCache::Key DiagnosisCache::key_of(const FailureEvent& event) {
  Key k;
  k.plane = static_cast<std::uint8_t>(event.plane);
  k.standardized_cause = event.standardized_cause;
  k.custom_cause = event.custom_cause;
  k.context_digest = digest(event);
  return k;
}

const AssistAdvice* DiagnosisCache::lookup(const FailureEvent& event) {
  PROF_ZONE("diagcache.lookup");
  const auto it = entries_.find(key_of(event));
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

void DiagnosisCache::insert(const FailureEvent& event, AssistAdvice advice) {
  entries_.insert_or_assign(key_of(event), std::move(advice));
}

void DiagnosisCache::invalidate() {
  entries_.clear();
  ++stats_.invalidations;
}

AssistAdvice classify_failure_cached(const FailureEvent& event,
                                     NetRecord* learner, sim::Rng& rng,
                                     DiagnosisCache* cache) {
  if (cache == nullptr) return classify_failure(event, learner, rng);
  if (!DiagnosisCache::cacheable(event, learner)) {
    cache->note_bypass();
    return classify_failure(event, learner, rng);
  }
  if (const AssistAdvice* hit = cache->lookup(event)) {
    obs::emit(obs::EventKind::kCacheLookup, obs::Origin::kInfra,
              {.plane = static_cast<std::uint8_t>(event.plane),
               .cause = event.standardized_cause,
               .ok = true});
    log_and_emit(*hit, VerdictSource::kCache, event, learner);
    return *hit;
  }
  obs::emit(obs::EventKind::kCacheLookup, obs::Origin::kInfra,
            {.plane = static_cast<std::uint8_t>(event.plane),
             .cause = event.standardized_cause});
  // lookup() above already counted the miss; run the tree once and keep
  // the result for every later failure with the same shape.
  AssistAdvice advice = classify_failure(event, learner, rng);
  cache->insert(event, advice);
  return advice;
}

}  // namespace seed::core

#include "testbed/testbed.h"

#include <optional>
#include <stdexcept>

#include "obs/trace.h"
#include "simcore/log.h"

namespace seed::testbed {

namespace {

// Representative cause codes for injected failures (what the network will
// reject with), used to label the tracer's FailureInjected span openers.
std::uint8_t cp_cause_of(CpFailure f) {
  switch (f) {
    case CpFailure::kIdentityDesync: return 9;
    case CpFailure::kOutdatedPlmn: return 11;
    case CpFailure::kTransientStateMismatch: return 98;
    case CpFailure::kQuickTransient: return 98;
    case CpFailure::kUnauthorized: return 3;
    case CpFailure::kCongestion: return 22;
    case CpFailure::kCustomUnknown: return 0xc1;
  }
  return 0;
}

std::uint8_t dp_cause_of(DpFailure f) {
  switch (f) {
    case DpFailure::kOutdatedDnn: return 33;
    case DpFailure::kUnknownDnn: return 27;
    case DpFailure::kOutdatedSlice: return 70;
    case DpFailure::kExpiredPlan: return 29;
    case DpFailure::kCongestion: return 26;
    case DpFailure::kCustomUnknown: return 0xd7;
  }
  return 0;
}

}  // namespace

Testbed::Testbed(std::uint64_t seed, Scheme scheme)
    : MultiTestbed(seed, {.ue_count = 1,
                          .scheme = scheme,
                          .diag_cache = false,
                          .outdated_dnn_population = false,
                          .seed_r_every = 0}) {
  core().set_learner(nullptr);
}

void Testbed::bring_up() {
  dev().power_on();
  auto& sim = simulator();
  const auto deadline = sim.now() + sim::minutes(5);
  while (sim.now() < deadline && !dev().traffic().path_healthy()) {
    sim.run_for(sim::ms(100));
  }
  if (!dev().traffic().path_healthy()) {
    throw std::runtime_error("Testbed::bring_up: device failed to attach");
  }
  // Let things settle (timers, probes).
  sim.run_for(sim::seconds(2));
}

Outcome Testbed::await_recovery(sim::TimePoint t0, sim::Duration timeout) {
  auto& sim = simulator();
  Outcome out;
  const auto deadline = t0 + timeout;
  while (sim.now() < deadline) {
    sim.run_for(sim::ms(50));
    if (dev().traffic().path_healthy()) {
      out.recovered = true;
      out.disruption_s = sim::to_seconds(sim.now() - t0);
      SLOG(kDebug, "testbed") << "recovered after " << out.disruption_s
                              << " s";
      obs::emit(obs::EventKind::kRecovered, obs::Origin::kTestbed);
      // Let trailing protocol actions (release completions, record
      // uploads, cancelled timers) settle before returning.
      sim.run_for(sim::seconds(6));
      obs::Tracer::instance().end_span();
      return out;
    }
  }
  out.recovered = false;
  out.disruption_s = sim::to_seconds(timeout);
  out.user_action_required = dev().user_notifications() > 0;
  SLOG(kDebug, "testbed") << "recovery timeout after "
                          << sim::to_seconds(timeout) << " s";
  obs::Tracer::instance().end_span();
  return out;
}

Outcome Testbed::run_cp_failure(CpFailure f, sim::Duration timeout) {
  const corenet::UeId ue = dev().ue_id();
  arm(ue, f);

  // Failures cluster under load: a fraction of events carry a secondary
  // congestion layer that delays even a correct first reset (this is the
  // long tail of Table 4's SEED rows).
  if (f != CpFailure::kUnauthorized && f != CpFailure::kCongestion &&
      rng().chance(secondary_congestion_prob)) {
    congest(ue, sim::secs_f(rng().uniform(40.0, 80.0)));
  }

  // Trace replay uses stock Android behaviour (3-minute action timers);
  // the recommended short timers are the *delivery* baseline (§7.1.1).
  if (use_default_android_timers) {
    dev().os().set_retry_timers(android::RetryTimers::kDefault);
  }

  const auto t0 = simulator().now();
  SLOG(kDebug, "testbed") << "inject c-plane failure, expected cause #"
                          << int(cp_cause_of(f));
  obs::emit(obs::EventKind::kFailureInjected, obs::Origin::kTestbed,
            {.plane = 0, .cause = cp_cause_of(f)});
  // Mobility/TAU event forces the control-plane procedure under fault.
  dev().modem().trigger_reattach();
  Outcome out = await_recovery(t0, timeout);

  // The custom control-plane fault is cured by any fresh-identity attach
  // (cleared inside the core when a SUCI registration succeeds); clear the
  // leftover flag for hygiene.
  core().faults(ue).custom_cause_cp.reset();
  return out;
}

Outcome Testbed::run_dp_failure(DpFailure f, sim::Duration timeout) {
  const corenet::UeId ue = dev().ue_id();
  arm(ue, f);

  // Config faults: the network side moved on and the device's copy
  // (modem + SIM profile) is outdated. Legacy recovers only when the
  // operator's config propagation heals the old value (minutes); SEED
  // ships the new value with the reject.
  corenet::Subscriber* sub = db().find(supi_of(ue));
  std::optional<double> heal_after_s;
  switch (f) {
    case DpFailure::kOutdatedDnn:
      // The subscription moved to a new DNN -> #33.
      sub->subscribed_dnns = {"internet.v2"};
      db().note_subscriber_mutation();
      heal_after_s = rng().lognormal_median(dp_heal_median_s, 1.25);
      break;
    case DpFailure::kUnknownDnn:
      // The operator deprovisioned the device's DNN network-wide -> #27.
      // The SIM profile copy is equally outdated, so even a legacy modem
      // reboot re-reads the same broken value; only the operator-side
      // re-provisioning (heal) or SEED's suggested DNN recovers.
      sub->subscribed_dnns = {"internet.v2"};
      db().forget_dnn("internet");  // forget_dnn bumps the mutation epoch
      heal_after_s = rng().lognormal_median(dp_heal_median_s, 1.25);
      break;
    case DpFailure::kOutdatedSlice:
      // The subscriber moved to a new slice; the device keeps requesting
      // the old S-NSSAI -> #70. SEED ships the served slice (Appendix-A
      // suggested S-NSSAI).
      sub->subscribed_slices = {nas::SNssai{2, 0x0000a1}};
      db().note_subscriber_mutation();
      heal_after_s = rng().lognormal_median(dp_heal_median_s, 1.25);
      break;
    default:
      break;
  }

  if (heal_after_s) {
    const bool slice_heal = f == DpFailure::kOutdatedSlice;
    simulator().schedule_after(
        sim::secs_f(*heal_after_s), [this, ue, slice_heal] {
          corenet::Subscriber* s = db().find(supi_of(ue));
          if (s == nullptr) return;
          if (slice_heal) {
            s->subscribed_slices.push_back(nas::SNssai{1, std::nullopt});
            db().note_subscriber_mutation();
          } else {
            db().register_known_dnn("internet");  // bumps the epoch
            s->subscribed_dnns.push_back("internet");
            db().note_subscriber_mutation();
          }
        });
  }

  if (use_default_android_timers) {
    dev().os().set_retry_timers(android::RetryTimers::kDefault);
  }

  const auto t0 = simulator().now();
  SLOG(kDebug, "testbed") << "inject d-plane failure, expected cause #"
                          << int(dp_cause_of(f));
  obs::emit(obs::EventKind::kFailureInjected, obs::Origin::kTestbed,
            {.plane = 1, .cause = dp_cause_of(f)});
  // Data-plane management procedure under fault: the SMF lost the
  // session context (state desync) and the device re-requests it while
  // staying registered. Disruption is measured from the procedure start.
  core().drop_sessions(ue);
  dev().modem().restart_data_session();
  Outcome out = await_recovery(t0, timeout);
  core().faults(ue).custom_cause_dp.reset();
  return out;
}

Outcome Testbed::run_delivery_failure(DeliveryFailure f,
                                      sim::Duration timeout,
                                      bool immediate_detection) {
  const corenet::UeId ue = dev().ue_id();
  arm(ue, f);

  const auto t0 = simulator().now();
  SLOG(kDebug, "testbed") << "inject data-delivery failure";
  obs::emit(obs::EventKind::kFailureInjected, obs::Origin::kTestbed,
            {.plane = 1});
  if (immediate_detection) {
    // Paper §7.1.1 measures recovery with the failure reported promptly
    // (apps use the SEED report API; the legacy baseline is triggered at
    // its sequential-retry entry point) — detection latency itself is
    // Fig. 3's experiment.
    if (scheme_of(ue) == Scheme::kLegacy) {
      // Recovery-focused experiment: detection fires promptly (detection
      // latency itself is Fig. 3's measurement). A fraction of recovery
      // re-registrations hit a transient reject — the paper's 90th
      // percentile shows some runs escalating past the re-register step.
      if (f == DeliveryFailure::kStaleSession && rng().chance(0.2)) {
        core().faults(ue).transient_reject_count = 1;
      }
      simulator().schedule_after(sim::ms(200),
                                 [this] { dev().os().force_stall(); });
    } else {
      // An app daemon files a report right away (paper's report API).
      simulator().schedule_after(sim::ms(300), [this, f] {
        dev().carrier_app().report_failure(app_failure_report(f));
      });
    }
  }
  return await_recovery(t0, timeout);
}

Outcome Testbed::run_custom_failure(nas::Plane plane, core::CustomCause code,
                                    sim::Duration timeout) {
  const corenet::UeId ue = dev().ue_id();
  auto& faults = core().faults(ue);
  const auto t0 = simulator().now();
  obs::emit(obs::EventKind::kFailureInjected, obs::Origin::kTestbed,
            {.plane = static_cast<std::uint8_t>(
                 plane == nas::Plane::kControl ? 0 : 1),
             .cause = static_cast<std::uint8_t>(code & 0xff)});
  if (plane == nas::Plane::kControl) {
    faults.custom_cause_cp = code;
    dev().modem().trigger_reattach();
  } else {
    faults.custom_cause_dp = code;
    faults.custom_dp_armed_reg_gen = core().registration_generation(ue);
    core().drop_sessions(ue);
    dev().modem().restart_data_session();
  }
  Outcome out = await_recovery(t0, timeout);
  faults.custom_cause_cp.reset();
  faults.custom_cause_dp.reset();
  return out;
}

std::vector<Scenario> table1_scenarios(std::uint64_t seed, int runs,
                                       std::optional<bool> control_plane) {
  std::vector<Scenario> out;
  sim::Rng mix_rng(seed);
  while (out.size() < static_cast<std::size_t>(runs)) {
    const SampledFailure f = sample_table1_failure(mix_rng);
    if (control_plane && f.control_plane != *control_plane) continue;
    out.push_back({f.control_plane ? Scenario::Klass::kCp
                                   : Scenario::Klass::kDp,
                   f, seed * 131 + out.size() + 1});
  }
  return out;
}

std::vector<Scenario> delivery_scenarios(std::uint64_t seed, int runs) {
  std::vector<Scenario> out;
  for (int i = 0; i < runs; ++i) {
    out.push_back({Scenario::Klass::kDelivery, {},
                   seed * 977 + static_cast<std::uint64_t>(i)});
  }
  return out;
}

Outcome run_scenario(Testbed& tb, const Scenario& s) {
  auto& known = tb.core().faults(tb.dev().ue_id()).custom_action_known;
  if (s.klass == Scenario::Klass::kCp &&
      s.f.cp == CpFailure::kCustomUnknown) {
    known = proto::ResetAction::kB2CPlaneReattach;
  }
  if (s.klass == Scenario::Klass::kDp &&
      s.f.dp == DpFailure::kCustomUnknown) {
    known = proto::ResetAction::kB3DPlaneReset;
  }
  tb.bring_up();
  switch (s.klass) {
    case Scenario::Klass::kCp:
      return tb.run_cp_failure(s.f.cp, sim::minutes(40));
    case Scenario::Klass::kDp:
      return tb.run_dp_failure(s.f.dp, sim::minutes(80));
    case Scenario::Klass::kDelivery:
      // Table 4's delivery rows use the reconnection-recoverable class
      // (outdated gateway status in mobility, §7.1.1).
      return tb.run_delivery_failure(DeliveryFailure::kStaleSession,
                                     sim::minutes(40));
  }
  return {};
}

OutcomeClass classify(const Outcome& out, const Scenario& s) {
  if (out.recovered) return OutcomeClass::kRecovered;
  const bool user_must_act =
      (s.klass == Scenario::Klass::kCp &&
       s.f.cp == CpFailure::kUnauthorized) ||
      (s.klass == Scenario::Klass::kDp && s.f.dp == DpFailure::kExpiredPlan);
  return out.user_action_required || user_must_act ? OutcomeClass::kUserAction
                                                   : OutcomeClass::kFailed;
}

}  // namespace seed::testbed

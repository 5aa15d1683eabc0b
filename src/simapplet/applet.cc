#include "simapplet/applet.h"

#include <algorithm>

#include "chaos/chaos.h"
#include "common/codec.h"
#include "common/params.h"
#include "obs/trace.h"
#include "seed/verdict.h"
#include "simcore/log.h"

namespace seed::applet {

namespace {
constexpr std::uint8_t kSeedBearer = 7;
// Emulated footprint of the applet code itself (the paper's applet is
// 1244 lines of Java; Javacard bytecode ~30 KB installed).
constexpr std::size_t kAppletCodeBytes = 30 * 1024;

// A SIM-local delivery plan is a diagnosis in its own right (SEED-U, or
// SEED-R degraded off the collab uplink): record what the SIM decided.
void emit_local_plan_verdict(const core::HandlingPlan& plan) {
  if (!obs::enabled()) return;
  core::DiagnosisVerdict v;
  v.plane = 1;
  v.kind = core::VerdictKind::kLocalPlan;
  v.source = core::VerdictSource::kSim;
  v.action = plan.actions.empty()
                 ? 0
                 : static_cast<std::uint8_t>(plan.actions.front());
  core::emit_verdict(v);
}
}  // namespace

SeedApplet::SeedApplet(sim::Simulator& sim, sim::Rng& rng,
                       modem::SimProfile profile, const crypto::Key128& k,
                       const crypto::Key128& opc,
                       const crypto::Key128& seed_key)
    : sim_(sim),
      rng_(rng),
      profile_(std::move(profile)),
      milenage_(crypto::Milenage::from_opc(k, opc)),
      seed_ctx_(seed_key, kSeedBearer),
      pending_wait_(sim),
      retry_timer_(sim),
      action_deadline_(sim) {}

modem::AuthResult SeedApplet::authenticate(
    const std::array<std::uint8_t, 16>& rand,
    const std::array<std::uint8_t, 16>& autn) {
  ++stats_.auths_performed;

  if (proto::is_dflag(rand)) {
    if (!enabled_ || applet_down()) {
      // A legacy SIM — or a crashed/dead applet — runs Milenage on the
      // garbage RAND and fails the MAC.
      modem::AuthResult r;
      r.kind = modem::AuthResult::Kind::kMacFailure;
      return r;
    }
    // SEED downlink fragment: do not verify the key; parse the AUTH
    // (paper §4.5). ACK via synchronization failure.
    ++stats_.fragments_acked;
    if (const auto frame = reassembler_.feed_view(autn)) {
      if (seed_ctx_.unprotect_into(*frame, crypto::Direction::kDownlink,
                                   plain_scratch_)) {
        if (const auto info = proto::DiagInfo::decode(plain_scratch_)) {
          last_diag_frame_.assign(frame->begin(), frame->end());
          // Hand off to the decision module after SIM processing time.
          const proto::DiagInfo copy = *info;
          sim_.schedule_after(sim::ms(4), [this, copy] { handle_diag(copy); });
        } else {
          note_malformed_downlink("undecodable assistance payload");
        }
      } else if (frame->size() == last_diag_frame_.size() &&
                 std::equal(frame->begin(), frame->end(),
                            last_diag_frame_.begin())) {
        // Exact replay of the frame just consumed: the core retransmitted
        // after a lost synch-failure ACK. The ACK below re-acknowledges
        // it; nothing malformed about the peer.
      } else {
        note_malformed_downlink("integrity-failed assistance frame");
      }
    } else if (reassembler_.last_rejected()) {
      note_malformed_downlink("malformed AUTN fragment");
    }
    modem::AuthResult r;
    r.kind = modem::AuthResult::Kind::kSynchFailure;
    r.auts.fill(0x5e);  // opaque ACK token
    return r;
  }

  // Normal 5G-AKA: derive RES from RAND/AUTN via Milenage. The AUTN MAC
  // is verified against the SQN carried in AUTN.
  crypto::Block rnd{};
  for (std::size_t i = 0; i < 16; ++i) rnd[i] = rand[i];
  std::array<std::uint8_t, 2> amf = {autn[6], autn[7]};
  // Recover SQN: AK depends only on RAND, compute with a dummy SQN first.
  const auto probe = milenage_.compute(rnd, {}, amf);
  std::array<std::uint8_t, 6> sqn{};
  for (std::size_t i = 0; i < 6; ++i) sqn[i] = autn[i] ^ probe.ak[i];
  const auto out = milenage_.compute(rnd, sqn, amf);
  bool mac_ok = true;
  for (std::size_t i = 0; i < 8; ++i) {
    if (autn[8 + i] != out.mac_a[i]) mac_ok = false;
  }
  modem::AuthResult r;
  if (!mac_ok) {
    r.kind = modem::AuthResult::Kind::kMacFailure;
    return r;
  }
  r.kind = modem::AuthResult::Kind::kSuccess;
  r.res = Bytes(out.res.begin(), out.res.end());
  return r;
}

void SeedApplet::on_root_status(bool rooted) {
  mode_ = rooted ? core::DeviceMode::kSeedR : core::DeviceMode::kSeedU;
}

void SeedApplet::notify_recovered() {
  if (pending_wait_.armed()) {
    pending_wait_.cancel();
    ++stats_.plans_cancelled_by_recovery;
    plan_in_flight_ = false;
  }
  if (retry_timer_.armed()) {
    // Service came back mid-backoff: the pending retry is unnecessary.
    retry_timer_.cancel();
    ++stats_.plans_cancelled_by_recovery;
    plan_in_flight_ = false;
  }
}

bool SeedApplet::applet_down() const {
  return dead_ || sim_.now() < down_until_;
}

void SeedApplet::note_malformed_downlink(const char* what) {
  ++stats_.malformed_downlinks;
  SLOG(kDebug, "applet") << "discarding " << what;
}

void SeedApplet::crash() {
  ++stats_.applet_crashes;
  // Volatile state is lost: partial reassembly, in-flight plan, timers.
  reassembler_.reset();
  last_diag_frame_.clear();
  pending_wait_.cancel();
  retry_timer_.cancel();
  action_deadline_.cancel();
  ++action_epoch_;  // outstanding action completions are stale
  plan_in_flight_ = false;
  pending_dp_config_dnn_.reset();
  ++crash_count_;
  if (crash_count_ >= chaos_->config().applet_max_crashes) {
    dead_ = true;
    SLOG(kWarn, "applet") << "applet dead after " << crash_count_
                          << " crashes";
    obs::emit(obs::EventKind::kDegraded, obs::Origin::kSim);
    if (on_dead_) on_dead_();
    return;
  }
  down_until_ = sim_.now() + chaos_->config().applet_restart_time;
  SLOG(kWarn, "applet") << "applet crashed, restart in "
                        << sim::to_ms(chaos_->config().applet_restart_time)
                        << " ms";
}

std::size_t SeedApplet::storage_used_bytes() const {
  return kAppletCodeBytes + nas::registry_storage_bytes() +
         records_.storage_bytes() + /*config store*/ 256;
}

// ------------------------------------------------------- decision module

void SeedApplet::handle_diag(const proto::DiagInfo& info) {
  if (!enabled_) return;
  if (chaos_ != nullptr) {
    if (applet_down()) return;  // diagnosis lost while crashed/dead
    if (chaos_->crash_applet()) {
      crash();
      return;
    }
  }
  ++stats_.diags_received;
  SLOG(kInfo, "applet") << "diagnosis: "
                        << nas::cause_name(info.plane, info.cause) << " (#"
                        << int(info.cause) << ")"
                        << (info.config ? " + config" : "");
  last_cause_time_ = sim_.now();

  if (info.config) apply_config(*info.config);

  core::HandlingPlan plan = core::decide(info, mode_);
  obs::emit(obs::EventKind::kDiagnosisMade, obs::Origin::kSim,
            {.plane = static_cast<std::uint8_t>(info.plane),
             .cause = info.cause,
             .action = plan.actions.empty()
                           ? std::uint8_t{0}
                           : static_cast<std::uint8_t>(plan.actions.front())});
  if (plan.notify_user) {
    ++stats_.user_notifications;
    obs::emit(obs::EventKind::kTerminalFailure, obs::Origin::kSim,
              {.plane = static_cast<std::uint8_t>(info.plane),
               .cause = info.cause,
               .detail = "diagnosis says notify user"});
    if (notify_user_) {
      notify_user_(std::string(nas::cause_name(info.plane, info.cause)));
    }
    return;
  }
  if (plan.actions.empty() && plan.wait.count() == 0) return;
  execute_plan(std::move(plan), info.cause);
}

void SeedApplet::apply_config(const proto::ConfigPayload& config) {
  Reader r(config.value);
  switch (config.kind) {
    case nas::ConfigKind::kSuggestedDnn: {
      if (const auto dnn = nas::Dnn::decode(r); dnn && r.done()) {
        profile_.dnn = dnn->to_string();
        pending_dp_config_dnn_ = profile_.dnn;
      }
      break;
    }
    case nas::ConfigKind::kSupportedRat: {
      if (const auto plmn = nas::PlmnId::decode(r); plmn && r.done()) {
        profile_.preferred_plmn = *plmn;
      }
      break;
    }
    case nas::ConfigKind::kSuggestedSnssai: {
      if (const auto slice = nas::SNssai::decode(r); slice && r.done()) {
        profile_.snssai = *slice;
        if (control_ != nullptr) control_->update_slice(*slice);
        // The follow-up A3/B3 re-establishes on the served slice; mark a
        // data-plane config so B3 runs as a modification.
        pending_dp_config_dnn_ = profile_.dnn;
      }
      break;
    }
    case nas::ConfigKind::kSuggestedSessionType: {
      const std::uint8_t t = r.u8();
      if (r.done() && t >= 1 && t <= 5) {
        profile_.pdu_type = static_cast<nas::PduSessionType>(t);
      }
      break;
    }
    case nas::ConfigKind::kSuggested5qi: {
      const std::uint8_t q = r.u8();
      if (r.done() && nas::is_standard_5qi(q)) profile_.fiveqi = q;
      break;
    }
    default:
      break;  // TFT/filter suggestions are applied network-side
  }
}

void SeedApplet::execute_plan(core::HandlingPlan plan, std::uint8_t cause) {
  if (plan_in_flight_) return;  // one handling at a time
  plan_in_flight_ = true;
  ++stats_.plans_executed;
  if (plan.learning_trial) ++stats_.learning_trials;

  auto start = [this, plan, cause] {
    // Transient check: if service already recovered during the wait, the
    // reset is unnecessary (§4.4.2).
    if (recovery_probe_ && recovery_probe_()) {
      ++stats_.plans_cancelled_by_recovery;
      plan_in_flight_ = false;
      return;
    }
    run_actions(plan.actions, 0, /*attempt=*/1, plan.learning_trial, cause,
                /*escalated=*/false);
  };

  if (plan.wait.count() > 0) {
    pending_wait_.arm(plan.wait, start);
  } else {
    start();
  }
}

bool SeedApplet::rate_limited(proto::ResetAction a) const {
  const auto it = last_action_time_.find(a);
  return it != last_action_time_.end() &&
         sim_.now() - it->second < params::kSeedActionRateLimit;
}

void SeedApplet::charge_rate_limit(proto::ResetAction a) {
  last_action_time_[a] = sim_.now();
}

void SeedApplet::refund_rate_limit(proto::ResetAction a,
                                   sim::TimePoint issued_at) {
  if (!retry_policy_.refund_failed_actions) return;
  // A failed reset must not consume rate-limit budget and suppress the
  // follow-up retry; erase the charge unless a newer issue of the same
  // action has overwritten it.
  const auto it = last_action_time_.find(a);
  if (it != last_action_time_.end() && it->second == issued_at) {
    last_action_time_.erase(it);
  }
}

void SeedApplet::run_actions(std::vector<proto::ResetAction> actions,
                             std::size_t idx, int attempt, bool learning,
                             std::uint8_t cause, bool escalated) {
  if (idx >= actions.size()) {
    // Plan exhausted. Hardened policy walks the rest of the Table 3
    // ladder once, then falls back to the terminal rung: the user.
    if (retry_policy_.escalate_beyond_plan && !escalated) {
      std::vector<proto::ResetAction> ladder =
          core::escalation_ladder(actions, mode_);
      if (!ladder.empty()) {
        ++stats_.tier_escalations;
        obs::emit(obs::EventKind::kTierEscalated, obs::Origin::kSim,
                  {.action = static_cast<std::uint8_t>(ladder.front())});
        SLOG(kInfo, "applet")
            << "plan exhausted, escalating to "
            << proto::reset_action_name(ladder.front());
        run_actions(std::move(ladder), 0, 1, learning, cause, true);
        return;
      }
    }
    if (retry_policy_.notify_user_on_exhaust) {
      ++stats_.user_notifications;
      obs::emit(obs::EventKind::kTerminalFailure, obs::Origin::kSim,
                {.cause = cause, .detail = "recovery actions exhausted"});
      if (notify_user_) notify_user_("recovery actions exhausted");
    }
    plan_in_flight_ = false;
    return;
  }
  const proto::ResetAction action = actions[idx];
  if (control_ == nullptr) {
    plan_in_flight_ = false;
    return;
  }
  if (rate_limited(action)) {
    ++stats_.actions_rate_limited;
    obs::emit(obs::EventKind::kRateLimited, obs::Origin::kSim,
              {.action = static_cast<std::uint8_t>(action)});
    run_actions(std::move(actions), idx + 1, 1, learning, cause, escalated);
    return;
  }
  ++stats_.actions_run;
  SLOG(kInfo, "applet") << "reset action " << proto::reset_action_name(action)
                        << (attempt > 1 ? " (retry)" : "");
  const auto issued_at = sim_.now();
  charge_rate_limit(action);

  const std::uint64_t epoch = ++action_epoch_;
  auto complete = [this, actions, idx, attempt, learning, cause, escalated,
                   action, issued_at, epoch](bool ok) mutable {
    if (epoch != action_epoch_) return;  // stale (deadline already fired,
                                         // a crash, or a newer action)
    ++action_epoch_;                     // first completion wins
    action_deadline_.cancel();
    // A2 is a pure config write: done(true) confirms the write landed,
    // but recovery is judged by the follow-up action (A1/B2) that uses
    // the config, so the plan always advances. done(false) — only
    // possible under chaos — is retryable like any other action.
    const bool config_only = action == proto::ResetAction::kA2CPlaneConfigUpdate;
    const bool healthy =
        ok && !config_only && (!recovery_probe_ || recovery_probe_());
    if (healthy) {
      if (learning) {
        // Algorithm 1 lines 3-7: record and upload the success.
        records_.record_success(cause, actions[idx]);
        if (upload_records_) {
          upload_records_(records_.snapshot());
          records_.clear();
        }
      }
      plan_in_flight_ = false;
      return;
    }
    if (!ok) {
      refund_rate_limit(action, issued_at);
      if (attempt < retry_policy_.max_attempts_per_action) {
        ++stats_.actions_retried;
        obs::emit(obs::EventKind::kActionRetry, obs::Origin::kSim,
                  {.plane = static_cast<std::uint8_t>(attempt + 1),
                   .action = static_cast<std::uint8_t>(action)});
        retry_timer_.arm(
            core::backoff_delay(retry_policy_, attempt),
            [this, actions = std::move(actions), idx, attempt, learning,
             cause, escalated]() mutable {
              if (recovery_probe_ && recovery_probe_()) {
                ++stats_.plans_cancelled_by_recovery;
                plan_in_flight_ = false;
                return;
              }
              run_actions(std::move(actions), idx, attempt + 1, learning,
                          cause, escalated);
            });
        return;
      }
      if (retry_policy_.escalate_beyond_plan && idx + 1 < actions.size()) {
        ++stats_.tier_escalations;
        obs::emit(obs::EventKind::kTierEscalated, obs::Origin::kSim,
                  {.action = static_cast<std::uint8_t>(actions[idx + 1])});
      }
    }
    run_actions(std::move(actions), idx + 1, 1, learning, cause, escalated);
  };

  if (retry_policy_.action_deadline.count() > 0) {
    // AT-command hang guard: treat a command that never answers as failed.
    action_deadline_.arm(retry_policy_.action_deadline,
                         [complete]() mutable { complete(false); });
  }
  issue_action(action, std::move(complete));
}

void SeedApplet::issue_action(proto::ResetAction action,
                              modem::ModemControl::Done done) {
  switch (action) {
    case proto::ResetAction::kA1ProfileReload:
      control_->refresh_profile(std::move(done));
      break;
    case proto::ResetAction::kA2CPlaneConfigUpdate:
      control_->update_cplane_config(profile_.preferred_plmn,
                                     std::move(done));
      break;
    case proto::ResetAction::kA3DPlaneConfigUpdate:
      control_->update_dplane_config(profile_.dnn, std::nullopt,
                                     std::move(done));
      break;
    case proto::ResetAction::kB1ModemReset:
      control_->at_modem_reset(std::move(done));
      break;
    case proto::ResetAction::kB2CPlaneReattach:
      control_->at_reattach(std::move(done));
      break;
    case proto::ResetAction::kB3DPlaneReset:
      if (pending_dp_config_dnn_) {
        // Config-related cause: modify with the fresh config (Table 3).
        const std::string dnn = *pending_dp_config_dnn_;
        pending_dp_config_dnn_.reset();
        control_->at_dplane_modify(dnn, std::move(done));
      } else {
        control_->fast_dplane_reset(std::move(done));
      }
      break;
    case proto::ResetAction::kNone:
    case proto::ResetAction::kNotifyUser:
      done(false);
      break;
  }
}

// --------------------------------------------------- data delivery path

void SeedApplet::report_failure(const proto::FailureReport& report) {
  if (!enabled_) return;
  if (chaos_ != nullptr) {
    if (applet_down()) return;  // report lost while crashed/dead
    if (chaos_->crash_applet()) {
      crash();
      return;
    }
  }
  ++stats_.reports_received;
  // Conflict window: an ongoing cause-based handling supersedes (§4.4.2).
  if (sim_.now() - last_cause_time_ < params::kSeedConflictWindow) {
    ++stats_.reports_suppressed_conflict;
    SLOG(kDebug, "applet") << "delivery report suppressed (conflict window)";
    obs::emit(obs::EventKind::kConflictSuppressed, obs::Origin::kSim);
    return;
  }
  if (mode_ == core::DeviceMode::kSeedR && !collab_uplink_dead_) {
    send_report_uplink(report);
    return;
  }
  core::HandlingPlan plan = core::decide_for_report(report, mode_);
  emit_local_plan_verdict(plan);
  execute_plan(std::move(plan), 0);
}

void SeedApplet::on_os_data_stall() {
  proto::FailureReport r;
  r.type = proto::FailureType::kNoConnection;
  r.direction = proto::TrafficDirection::kBoth;
  report_failure(r);
}

void SeedApplet::send_report_uplink(const proto::FailureReport& report) {
  if (control_ == nullptr) return;
  ++stats_.reports_sent_uplink;
  // Uplink prep: APDU collection + SIM-side encode/crypto (Fig. 12).
  const auto prep_start = sim_.now();
  const auto prep = sim::secs_f(rng_.lognormal_median(
      sim::to_seconds(params::kUplinkPrepMedian), params::kPrepSigma));
  // Scratch-composed uplink: encode -> protect -> pack without
  // intermediate copies (all buffers recycled across reports).
  Writer w(std::move(report_scratch_));
  report.encode_into(w);
  report_scratch_ = std::move(w).take();
  seed_ctx_.protect_into(report_scratch_, crypto::Direction::kUplink,
                         frame_scratch_);
  const auto dnns = proto::DiagDnnCodec::pack(frame_scratch_);
  sim_.schedule_after(prep, [this, dnns, report, prep_start] {
    report_prep_ms_.push_back(sim::to_ms(sim_.now() - prep_start));
    const auto send_start = sim_.now();
    control_->send_diag_report(dnns, [this, report, send_start](bool acked) {
      if (!acked) {
        // The modem gave up on the transfer (chaos-impaired channel).
        // Fall back to the local Table 3 plan; after a streak, declare
        // the collab uplink dead so future reports go local directly.
        ++stats_.uplink_report_failures;
        SLOG(kWarn, "applet") << "uplink report failed";
        if (++uplink_fail_streak_ >= 3 && !collab_uplink_dead_) {
          collab_uplink_dead_ = true;
          obs::emit(obs::EventKind::kDegraded, obs::Origin::kSim);
          SLOG(kWarn, "applet") << "collab uplink declared dead";
        }
        core::HandlingPlan plan = core::decide_for_report(report, mode_);
        emit_local_plan_verdict(plan);
        execute_plan(std::move(plan), 0);
        return;
      }
      uplink_fail_streak_ = 0;
      report_trans_ms_.push_back(sim::to_ms(sim_.now() - send_start));
      SLOG(kDebug, "applet") << "uplink report delivered";
      obs::emit(obs::EventKind::kCollabUplink, obs::Origin::kSim,
                {.prep_ms = report_prep_ms_.back(),
                 .trans_ms = report_trans_ms_.back()});
      // Give the network a beat to apply a config-only fix (modification
      // command); if service is still down, run the Fig. 6 fast reset.
      sim_.schedule_after(sim::ms(120), [this] {
        if (recovery_probe_ && recovery_probe_()) return;
        if (!rate_limited(proto::ResetAction::kB3DPlaneReset)) {
          ++stats_.actions_run;
          const auto issued_at = sim_.now();
          charge_rate_limit(proto::ResetAction::kB3DPlaneReset);
          control_->fast_dplane_reset([this, issued_at](bool ok) {
            if (!ok) {
              refund_rate_limit(proto::ResetAction::kB3DPlaneReset,
                                issued_at);
            }
          });
        } else {
          ++stats_.actions_rate_limited;
          obs::emit(obs::EventKind::kRateLimited, obs::Origin::kSim,
                    {.action = static_cast<std::uint8_t>(
                         proto::ResetAction::kB3DPlaneReset)});
        }
      });
    });
  });
}

}  // namespace seed::applet

#include "modem/modem.h"

#include <array>

#include "chaos/chaos.h"
#include "common/params.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "seedproto/diag_payload.h"
#include "simcore/log.h"

namespace seed::modem {

using nas::MmCause;
using nas::SmCause;

namespace {
std::uint8_t mm_code(MmCause c) { return static_cast<std::uint8_t>(c); }

// When tracing is on, wraps a reset action's completion so the tracer
// sees the issue/complete pair. With the tracer off the original callback
// is returned untouched — no std::function rebuild on the hot path.
ModemControl::Done trace_reset(std::uint8_t action, ModemControl::Done done) {
  if (!obs::enabled()) return done;
  obs::emit(obs::EventKind::kResetIssued, obs::Origin::kModem,
            {.action = action});
  return [action, done = std::move(done)](bool ok) {
    obs::emit(obs::EventKind::kResetCompleted, obs::Origin::kModem,
              {.action = action, .ok = ok});
    if (done) done(ok);
  };
}

// Ack-guard for uplink DIAG-DNN fragments: only armed when a chaos engine
// is attached (an unimpaired reject-ACK always arrives).
constexpr sim::Duration kReportAckGuard = sim::seconds(2);
constexpr int kMaxReportRetries = 5;

// Flips one bit in the payload labels (1..) of a DIAG DNN fragment; the
// header label stays intact so the fragment still routes to the SEED
// plugin, whose MAC check must detect and discard the frame.
nas::Dnn corrupt_diag_dnn(const nas::Dnn& dnn, const chaos::BitFlip& flip) {
  std::vector<Bytes> labels = dnn.labels();
  std::size_t payload = 0;
  for (std::size_t i = 1; i < labels.size(); ++i) payload += labels[i].size();
  if (payload == 0) return dnn;
  std::size_t target = flip.byte % payload;
  for (std::size_t i = 1; i < labels.size(); ++i) {
    if (target < labels[i].size()) {
      labels[i][target] ^= static_cast<std::uint8_t>(1u << flip.bit);
      break;
    }
    target -= labels[i].size();
  }
  return nas::Dnn::from_labels(std::move(labels));
}
}  // namespace

Modem::Modem(sim::Simulator& sim, sim::Rng& rng, SimCard& sim_card,
             ran::Gnb& gnb, std::function<void(BytesView)> uplink)
    : sim_(sim),
      rng_(rng),
      sim_card_(sim_card),
      gnb_(gnb),
      uplink_(std::move(uplink)),
      t3510_(sim),
      t3511_(sim),
      t3502_(sim),
      t3580_(sim),
      report_guard_(sim) {}

SmState Modem::sm(std::uint8_t psi) const {
  const auto it = sessions_.find(psi);
  return it == sessions_.end() ? SmState::kInactive : it->second.state;
}

void Modem::notify_data_state() {
  const bool now = data_connected();
  if (now != last_notified_state_) {
    last_notified_state_ = now;
    if (on_data_state_) on_data_state_(now);
  }
}

void Modem::send(const nas::NasMessage& msg) {
  SLOG(kDebug, "modem") << "-> " << nas::msg_type_name(nas::message_type(msg));
  Bytes wire = tx_pool_.acquire();
  nas::encode_message_into(msg, wire);
  const auto latency = params::kModemProcessing + gnb_.hop_latency() +
                       params::kGnbCoreLatency;
  sim_.schedule_after(latency, [this, wire = std::move(wire)]() mutable {
    if (uplink_ && gnb_.radio_up()) uplink_(wire);
    tx_pool_.release(std::move(wire));
  });
}

// -------------------------------------------------------------- power on

void Modem::power_on() {
  const SimProfile& p = sim_card_.profile();
  plmn_ = p.preferred_plmn;
  dnn_ = p.dnn;
  pdu_type_ = p.pdu_type;
  snssai_ = p.snssai;
  session_wanted_ = true;
  reg_waiters_.push_back([this](bool ok) {
    if (ok) {
      establish_session(kDataPsi, dnn_, [](bool, std::uint8_t) {});
    }
  });
  start_registration(/*fresh_search=*/true, /*full_plmn_search=*/false);
}

void Modem::trigger_reattach() {
  // Mobility event: the current registration is void; re-register (and
  // re-establish data) through the normal — possibly failing — path.
  // The device is already camped on the new cell, so no fresh search.
  mm_ = MmState::kIdle;
  sessions_.clear();
  notify_data_state();
  reg_waiters_.push_back([this](bool ok) {
    if (ok && session_wanted_) {
      establish_session(kDataPsi, dnn_, [](bool, std::uint8_t) {});
    }
  });
  start_registration(/*fresh_search=*/false, /*full_plmn_search=*/false);
}

void Modem::request_data_session() {
  session_wanted_ = true;
  if (registered()) {
    establish_session(kDataPsi, dnn_, [](bool, std::uint8_t) {});
  } else {
    reg_waiters_.push_back([this](bool ok) {
      if (ok) establish_session(kDataPsi, dnn_, [](bool, std::uint8_t) {});
    });
    start_registration(true, false);
  }
}

void Modem::restart_data_session() {
  session_wanted_ = true;
  sessions_.erase(kDataPsi);
  notify_data_state();
  if (registered()) {
    establish_session(kDataPsi, dnn_, [](bool, std::uint8_t) {});
  } else {
    request_data_session();
  }
}

void Modem::release_data_session(std::function<void()> done) {
  session_wanted_ = false;
  release_session(kDataPsi, std::move(done));
}

// ---------------------------------------------------------- registration

void Modem::start_registration(bool fresh_search, bool full_plmn_search) {
  t3511_.cancel();
  t3502_.cancel();
  t3510_.cancel();
  mm_ = MmState::kSearching;

  sim::Duration delay{0};
  if (full_plmn_search) {
    ++stats_.full_plmn_searches;
    delay += sim::secs_f(
        rng_.lognormal_median(sim::to_seconds(params::kFullPlmnSearchMedian),
                              params::kFullPlmnSearchSigma));
  } else if (fresh_search) {
    delay += sim::secs_f(
        rng_.lognormal_median(sim::to_seconds(params::kCellSearchMedian),
                              params::kCellSearchSigma));
  }
  sim_.schedule_after(delay, [this, full_plmn_search] {
    if (mm_ != MmState::kSearching) return;  // superseded
    if (full_plmn_search) {
      // The exhaustive search discovers the currently-allowed PLMN.
      plmn_ = nas::PlmnId{310, 310};
    }
    gnb_.rrc_connect([this](bool ok) {
      if (mm_ != MmState::kSearching) return;
      if (!ok) {
        mm_ = MmState::kIdle;
        t3511_.arm(params::kT3511, [this] { start_registration(true, false); });
        return;
      }
      send_registration_request();
    });
  });
}

void Modem::send_registration_request() {
  mm_ = MmState::kRegistering;
  ++stats_.registrations_attempted;
  nas::RegistrationRequest req;
  if (have_guti_) {
    req.identity.kind = nas::MobileIdentity::Kind::kGuti;
    req.identity.guti = guti_;
  } else {
    req.identity.kind = nas::MobileIdentity::Kind::kSuci;
    nas::Suci suci = sim_card_.profile().suci;
    suci.plmn = plmn_;  // the PLMN the modem selected
    req.identity.suci = suci;
  }
  req.requested_nssai = {nas::SNssai{1, std::nullopt}};
  send(nas::NasMessage(req));
  t3510_.arm(sim::seconds(15), [this] { on_registration_timeout(); });
}

void Modem::on_registration_timeout() {
  if (mm_ != MmState::kRegistering) return;
  mm_ = MmState::kIdle;
  registration_settled(false);  // waiters fail fast; auto-retry continues
  ++reg_attempts_;
  if (reg_attempts_ < params::kMaxRegistrationAttempts) {
    t3511_.arm(params::kT3511, [this] { start_registration(false, false); });
  } else {
    reg_attempts_ = 0;
    have_guti_ = false;
    t3502_.arm(params::kT3502, [this] { start_registration(true, false); });
  }
}

void Modem::handle_registration_reject(const nas::RegistrationReject& m) {
  t3510_.cancel();
  if (mm_ != MmState::kRegistering) return;
  mm_ = MmState::kIdle;
  ++stats_.registrations_rejected;
  SLOG(kDebug, "modem") << "registration reject, cause #" << int(m.cause);
  obs::emit(obs::EventKind::kFailureDetected, obs::Origin::kModem,
            {.plane = 0, .cause = m.cause});
  if (on_reject_) on_reject_(nas::Plane::kControl, m.cause);
  registration_settled(false);  // waiters fail fast; auto-retry continues

  // Permanent causes: the modem stops by itself; only user action helps.
  if (m.cause == mm_code(MmCause::kIllegalUe) ||
      m.cause == mm_code(MmCause::kIllegalMe) ||
      m.cause == mm_code(MmCause::kServicesNotAllowed)) {
    return;
  }

  ++reg_attempts_;

  if (m.cause == mm_code(MmCause::kMessageTypeNotCompatibleWithState) &&
      reg_attempts_ == 1) {
    // Transient state-mismatch: one immediate re-attempt before falling
    // back to T3511 pacing (this is the ~20% of c-plane failures that
    // self-recover within 2 s, paper §3.2/§4.4.2).
    sim_.schedule_after(sim::ms(150), [this] {
      if (mm_ == MmState::kIdle) start_registration(false, false);
    });
    return;
  }

  if (m.cause == mm_code(MmCause::kPlmnNotAllowed) ||
      m.cause == mm_code(MmCause::kNoSuitableCellsInTrackingArea)) {
    // Legacy: exhaustive PLMN/cell search, tens of seconds (§4.4.1).
    start_registration(false, /*full_plmn_search=*/true);
    return;
  }

  if (m.cause == mm_code(MmCause::kUeIdentityCannotBeDerived) &&
      !behavior_.sticky_identity_on_cause9) {
    have_guti_ = false;  // spec-clean fallback to SUCI
  }

  if (reg_attempts_ < params::kMaxRegistrationAttempts) {
    t3511_.arm(params::kT3511, [this] { start_registration(false, false); });
  } else {
    // Attempts exhausted: clear cached identity, wait T3502 (the paper's
    // §3.2 long-tail — ~12 minutes).
    reg_attempts_ = 0;
    have_guti_ = false;
    const auto t3502 = m.t3502_seconds
                           ? sim::seconds(*m.t3502_seconds)
                           : params::kT3502;
    t3502_.arm(t3502, [this] { start_registration(true, false); });
  }
}

void Modem::handle_registration_accept(const nas::RegistrationAccept& m) {
  t3510_.cancel();
  t3511_.cancel();
  t3502_.cancel();
  mm_ = MmState::kRegistered;
  have_guti_ = true;
  guti_ = m.guti;
  reg_attempts_ = 0;
  SLOG(kDebug, "modem") << "registered (control plane recovered)";
  registration_settled(true);
  // Restore the default data session after any successful (re-)attach,
  // whether the registration came from a waiter or a background retry.
  if (session_wanted_ && sm(kDataPsi) == SmState::kInactive) {
    establish_session(kDataPsi, dnn_, [](bool, std::uint8_t) {});
  }
}

void Modem::registration_settled(bool success) {
  auto waiters = std::move(reg_waiters_);
  reg_waiters_.clear();
  for (auto& w : waiters) {
    if (w) w(success);
  }
}

// ------------------------------------------------------------------- auth

void Modem::handle_auth_request(const nas::AuthenticationRequest& m) {
  PROF_ZONE("modem.collab_rx");
  PROF_BYTES(m.rand.size() + m.autn.size());
  if (chaos_ != nullptr && proto::is_dflag(m.rand)) {
    // Impaired collaboration channel: the downlink AUTN diag fragment may
    // be lost (core's ack-guard retransmits), bit-flipped (the SIM's MAC
    // check discards the frame), or delivered twice (the duplicate ACK is
    // absorbed upstream and the reassembler ignores the re-send).
    if (chaos_->drop_downlink()) return;
    nas::AuthenticationRequest eff = m;
    chaos::BitFlip flip;
    if (chaos_->corrupt_downlink(&flip)) {
      eff.autn[flip.byte % eff.autn.size()] ^=
          static_cast<std::uint8_t>(1u << flip.bit);
    }
    // Semantic adversary: forge a plausible-but-wrong fragment header
    // (the reassembler, not just the MAC check, must reject it).
    chaos::SemanticMutation mut;
    if (chaos_->mutate_downlink(&mut)) {
      chaos::apply_semantic_autn(mut, eff.autn.data(), eff.autn.size());
    }
    chaos_->capture_downlink(eff.autn.data(), eff.autn.size());
    deliver_auth(eff);
    if (chaos_->duplicate_downlink()) deliver_auth(eff);
    // Stale-fragment replay: re-deliver a fragment captured earlier in
    // the run, as a recorded-and-replayed downlink would arrive.
    std::array<std::uint8_t, 16> stale;
    if (chaos_->replay_stale_downlink(&stale)) {
      nas::AuthenticationRequest replayed = m;
      replayed.autn = stale;
      deliver_auth(replayed);
    }
    return;
  }
  deliver_auth(m);
}

void Modem::deliver_auth(const nas::AuthenticationRequest& m) {
  // Forward RAND/AUTN to the SIM over APDU (this is where the SEED applet
  // intercepts DFlag frames).
  sim_.schedule_after(params::kApduLatency, [this, m] {
    const AuthResult result = sim_card_.authenticate(m.rand, m.autn);
    switch (result.kind) {
      case AuthResult::Kind::kSuccess: {
        nas::AuthenticationResponse resp;
        resp.res = result.res;
        send(nas::NasMessage(resp));
        break;
      }
      case AuthResult::Kind::kSynchFailure: {
        nas::AuthenticationFailure f;
        f.cause = mm_code(MmCause::kSynchFailure);
        f.auts = result.auts;
        send(nas::NasMessage(f));
        break;
      }
      case AuthResult::Kind::kMacFailure: {
        nas::AuthenticationFailure f;
        f.cause = mm_code(MmCause::kMacFailure);
        send(nas::NasMessage(f));
        break;
      }
    }
  });
}

// --------------------------------------------------------------- sessions

void Modem::establish_session(std::uint8_t psi, const std::string& dnn,
                              std::function<void(bool, std::uint8_t)> done) {
  if (!registered()) {
    reg_waiters_.push_back([this, psi, dnn, done](bool ok) {
      if (ok) {
        establish_session(psi, dnn, done);
      } else if (done) {
        done(false, 0);
      }
    });
    if (mm_ == MmState::kIdle) start_registration(false, false);
    return;
  }
  Session s;
  s.state = SmState::kActivating;
  s.dnn = dnn;
  s.pti = next_pti_++;
  s.done = std::move(done);
  sessions_[psi] = std::move(s);
  send_pdu_request(psi);
}

void Modem::send_pdu_request(std::uint8_t psi) {
  auto it = sessions_.find(psi);
  if (it == sessions_.end()) return;
  ++stats_.pdu_attempted;
  nas::PduSessionEstablishmentRequest req;
  req.hdr = {psi, it->second.pti};
  req.type = pdu_type_;
  req.dnn = nas::Dnn(it->second.dnn);
  req.snssai = snssai_;
  send(nas::NasMessage(req));
  if (psi == kDataPsi) {
    t3580_.arm(params::kT3580, [this, psi] {
      // No response: retry per T3580 up to the attempt limit.
      auto it = sessions_.find(psi);
      if (it == sessions_.end() || it->second.state != SmState::kActivating) {
        return;
      }
      if (++it->second.attempts >= params::kMaxPduAttempts) {
        auto done = std::move(it->second.done);
        sessions_.erase(it);
        if (done) done(false, 0);
        return;
      }
      send_pdu_request(psi);
    });
  }
}

void Modem::handle_pdu_accept(const nas::PduSessionEstablishmentAccept& m) {
  const std::uint8_t psi = m.hdr.pdu_session_id;
  auto it = sessions_.find(psi);
  if (it == sessions_.end()) return;
  if (psi == kDataPsi) t3580_.cancel();
  it->second.state = SmState::kActive;
  it->second.attempts = 0;
  if (psi == kDataPsi || psi == kSwapPsi) {
    ue_addr_ = m.ue_addr;
    dns_addr_ = m.dns_addr;
  }
  if (psi == kDataPsi) ++session_generation_;
  SLOG(kDebug, "modem") << "pdu session " << int(psi)
                        << " active (data plane up)";
  auto done = std::move(it->second.done);
  it->second.done = nullptr;
  notify_data_state();
  if (done) done(true, 0);
}

void Modem::handle_pdu_reject(const nas::PduSessionEstablishmentReject& m) {
  const std::uint8_t psi = m.hdr.pdu_session_id;

  // Uplink diagnosis report path: the reject is the ACK (Fig. 7b).
  if (psi == kDiagPsi && !pending_report_.empty()) {
    if (chaos_ != nullptr) {
      // A duplicated fragment earns two reject-ACKs; only the first may
      // advance the transfer.
      if (!report_outstanding_) return;
      report_outstanding_ = false;
      report_retries_ = 0;
      report_guard_.cancel();
    }
    send_diag_report({}, nullptr);  // advances / completes the transfer
    return;
  }

  auto it = sessions_.find(psi);
  if (it == sessions_.end()) return;
  ++stats_.pdu_rejected;
  SLOG(kDebug, "modem") << "pdu reject on psi " << int(psi) << ", cause #"
                        << int(m.cause);
  obs::emit(obs::EventKind::kFailureDetected, obs::Origin::kModem,
            {.plane = 1, .cause = m.cause});
  if (on_reject_) on_reject_(nas::Plane::kData, m.cause);

  if (psi != kDataPsi) {
    auto done = std::move(it->second.done);
    sessions_.erase(it);
    notify_data_state();
    if (done) done(false, m.cause);
    return;
  }

  // Legacy data-plane handling: blind retry with the same (possibly
  // outdated) configuration — the repeated-failure loop of §3.2.
  t3580_.cancel();
  ++it->second.attempts;
  if (it->second.attempts >= params::kMaxPduAttempts) {
    auto done = std::move(it->second.done);
    sessions_.erase(it);
    notify_data_state();
    if (done) done(false, m.cause);
    return;
  }
  const auto backoff = m.backoff_seconds ? sim::seconds(*m.backoff_seconds)
                                         : params::kT3580;
  it->second.state = SmState::kActivating;
  t3580_.arm(backoff, [this, psi] { send_pdu_request(psi); });
}

void Modem::release_session(std::uint8_t psi, std::function<void()> done) {
  auto it = sessions_.find(psi);
  if (it == sessions_.end() || it->second.state != SmState::kActive) {
    if (done) done();
    return;
  }
  nas::PduSessionReleaseRequest req;
  req.hdr = {psi, next_pti_++};
  send(nas::NasMessage(req));
  // Completion is driven by the Release Command from the network.
  it->second.done = [done](bool, std::uint8_t) {
    if (done) done();
  };
  it->second.state = SmState::kInactive;
}

// ---------------------------------------------------------------- downlink

void Modem::on_downlink(BytesView wire) {
  if (chaos_ != nullptr) {
    // Unsolicited pre-security-context injection: a forged DFlag Auth
    // Request with no transfer behind it, delivered ahead of the real
    // downlink. The SIM applet must discard it without wedging.
    std::array<std::uint8_t, 16> forged;
    if (chaos_->unsolicited_downlink(&forged)) {
      nas::AuthenticationRequest fake;
      fake.rand = proto::kDFlag;
      fake.autn = forged;
      deliver_auth(fake);
    }
  }
  nas::DecodeError err;
  const auto msg = nas::decode_message(wire, &err);
  if (!msg) {
    ++stats_.decode_rejects;
    obs::emit(obs::EventKind::kDecodeRejected, obs::Origin::kModem,
              {.cause = static_cast<std::uint8_t>(err)});
    SLOG(kWarn, "modem") << "dropping undecodable downlink ("
                         << nas::decode_error_name(err) << ", "
                         << wire.size() << " bytes)";
    return;
  }
  SLOG(kDebug, "modem") << "<- " << nas::msg_type_name(nas::message_type(*msg));
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, nas::AuthenticationRequest>) {
          handle_auth_request(m);
        } else if constexpr (std::is_same_v<T, nas::SecurityModeCommand>) {
          send(nas::NasMessage(nas::SecurityModeComplete{}));
        } else if constexpr (std::is_same_v<T, nas::RegistrationAccept>) {
          handle_registration_accept(m);
        } else if constexpr (std::is_same_v<T, nas::RegistrationReject>) {
          handle_registration_reject(m);
        } else if constexpr (std::is_same_v<T, nas::AuthenticationReject>) {
          t3510_.cancel();
          mm_ = MmState::kIdle;
          if (on_reject_) {
            on_reject_(nas::Plane::kControl,
                       mm_code(MmCause::kIllegalUe));
          }
          registration_settled(false);
        } else if constexpr (std::is_same_v<
                                 T, nas::PduSessionEstablishmentAccept>) {
          handle_pdu_accept(m);
        } else if constexpr (std::is_same_v<
                                 T, nas::PduSessionEstablishmentReject>) {
          handle_pdu_reject(m);
        } else if constexpr (std::is_same_v<T, nas::PduSessionReleaseCommand>) {
          const std::uint8_t psi = m.hdr.pdu_session_id;
          auto it = sessions_.find(psi);
          std::function<void(bool, std::uint8_t)> done;
          if (it != sessions_.end()) {
            done = std::move(it->second.done);
            sessions_.erase(it);
          }
          nas::PduSessionReleaseComplete fin;
          fin.hdr = m.hdr;
          send(nas::NasMessage(fin));
          notify_data_state();
          if (done) done(true, 0);
        } else if constexpr (std::is_same_v<
                                 T, nas::PduSessionModificationCommand>) {
          if (m.dns_addr) dns_addr_ = *m.dns_addr;
          if (on_modification_) on_modification_();
        } else if constexpr (std::is_same_v<T, nas::ServiceAccept> ||
                             std::is_same_v<T, nas::ServiceReject> ||
                             std::is_same_v<T,
                                            nas::ConfigurationUpdateCommand>) {
          // Accepted silently in this testbed.
        }
      },
      *msg);
}

// ------------------------------------------------- SEED ModemControl

bool Modem::chaos_intercept(std::uint8_t action, Done& done) {
  if (chaos_ == nullptr) return false;
  switch (chaos_->reset_outcome(action)) {
    case chaos::ResetOutcome::kNormal:
      return false;
    case chaos::ResetOutcome::kFail:
      // The command returns ERROR after a short round trip and leaves the
      // modem state untouched.
      SLOG(kDebug, "modem") << "chaos: reset action " << int(action)
                            << " returns ERROR";
      sim_.schedule_after(chaos_->config().at_fail_latency,
                          [done = std::move(done)] {
                            if (done) done(false);
                          });
      return true;
    case chaos::ResetOutcome::kTimeout:
      // Swallowed entirely: only the applet's action deadline catches it.
      SLOG(kDebug, "modem") << "chaos: reset action " << int(action)
                            << " times out";
      done = nullptr;
      return true;
  }
  return false;
}

void Modem::refresh_profile(Done done) {
  ++stats_.profile_reloads;
  SLOG(kDebug, "modem") << "reset A1: SIM REFRESH, full re-attach";
  done = trace_reset(1, std::move(done));
  if (chaos_intercept(1, done)) return;
  sim_.schedule_after(params::kProfileReloadTime, [this, done] {
    const SimProfile& p = sim_card_.profile();
    plmn_ = p.preferred_plmn;
    dnn_ = p.dnn;
    pdu_type_ = p.pdu_type;
    snssai_ = p.snssai;
    have_guti_ = false;  // refreshed identities (paper §4.4.1 A1)
    mm_ = MmState::kIdle;
    sessions_.clear();
    reg_attempts_ = 0;
    notify_data_state();
    reg_waiters_.push_back([this, done](bool ok) {
      if (!ok) {
        if (done) done(false);
        return;
      }
      establish_session(kDataPsi, dnn_, [done](bool ok2, std::uint8_t) {
        if (done) done(ok2);
      });
    });
    start_registration(/*fresh_search=*/true, false);
  });
}

void Modem::update_cplane_config(const nas::PlmnId& plmn, Done done) {
  SLOG(kDebug, "modem") << "reset A2: c-plane config update";
  // Synchronous config write: the issue/complete pair collapses to one
  // instant.
  done = trace_reset(2, std::move(done));
  if (chaos_intercept(2, done)) return;
  plmn_ = plmn;
  if (done) done(true);
}

void Modem::update_slice(const nas::SNssai& snssai) {
  snssai_ = snssai;
}

void Modem::update_dplane_config(const std::string& dnn,
                                 std::optional<nas::Ipv4> dns, Done done) {
  SLOG(kDebug, "modem") << "reset A3: d-plane config update via carrier app";
  done = trace_reset(3, std::move(done));
  if (chaos_intercept(3, done)) return;
  sim_.schedule_after(params::kCarrierConfigUpdateTime, [this, dnn, dns,
                                                         done] {
    if (!dnn.empty()) dnn_ = dnn;
    if (dns) dns_addr_ = *dns;
    const bool active = data_connected();
    if (active && dns && dnn.empty()) {
      // DNS-only change applies in place.
      if (done) done(true);
      return;
    }
    if (!active) {
      establish_session(kDataPsi, dnn_, [done](bool ok, std::uint8_t) {
        if (done) done(ok);
      });
      return;
    }
    // Make-before-break restart so the last radio bearer never drops:
    // bring up a swap session, cycle DATA, drop the swap session.
    establish_session(kSwapPsi, dnn_, [this, done](bool ok, std::uint8_t) {
      if (!ok) {
        if (done) done(false);
        return;
      }
      release_session(kDataPsi, [this, done] {
        establish_session(kDataPsi, dnn_, [this, done](bool ok2,
                                                       std::uint8_t) {
          release_session(kSwapPsi, [done, ok2] {
            if (done) done(ok2);
          });
        });
      });
    });
  });
}

void Modem::at_modem_reset(Done done) {
  ++stats_.at_commands;
  SLOG(kDebug, "modem") << "reset B1: AT+CFUN modem reset";
  done = trace_reset(4, std::move(done));
  if (chaos_intercept(4, done)) return;
  mm_ = MmState::kIdle;
  sessions_.clear();
  have_guti_ = false;
  reg_attempts_ = 0;
  t3510_.cancel();
  t3511_.cancel();
  t3502_.cancel();
  t3580_.cancel();
  notify_data_state();
  sim_.schedule_after(params::kModemRebootTime, [this, done] {
    const SimProfile& p = sim_card_.profile();
    plmn_ = p.preferred_plmn;
    dnn_ = p.dnn;
    reg_waiters_.push_back([this, done](bool ok) {
      if (!ok) {
        if (done) done(false);
        return;
      }
      establish_session(kDataPsi, dnn_, [done](bool ok2, std::uint8_t) {
        if (done) done(ok2);
      });
    });
    start_registration(/*fresh_search=*/true, false);
  });
}

void Modem::at_reattach(Done done) {
  ++stats_.at_commands;
  SLOG(kDebug, "modem") << "reset B2: AT+CGATT detach/attach";
  done = trace_reset(5, std::move(done));
  if (chaos_intercept(5, done)) return;
  mm_ = MmState::kIdle;
  sessions_.clear();
  have_guti_ = false;
  reg_attempts_ = 0;
  notify_data_state();
  reg_waiters_.push_back([this, done](bool ok) {
    if (!ok) {
      if (done) done(false);
      return;
    }
    establish_session(kDataPsi, dnn_, [done](bool ok2, std::uint8_t) {
      if (done) done(ok2);
    });
  });
  // AT+CGATT: detach/attach cycle; the modem stays camped (no re-search).
  sim_.schedule_after(params::kAtReattachLatency, [this] {
    start_registration(/*fresh_search=*/false, false);
  });
}

void Modem::send_diag_report(const std::vector<nas::Dnn>& dnns, Done done) {
  if (!dnns.empty()) {
    pending_report_ = dnns;
    next_report_ = 0;
    report_done_ = std::move(done);
    report_retries_ = 0;
  }
  if (next_report_ >= pending_report_.size()) {
    // All fragments ACKed.
    pending_report_.clear();
    next_report_ = 0;
    report_outstanding_ = false;
    report_guard_.cancel();
    auto cb = std::move(report_done_);
    report_done_ = nullptr;
    if (cb) cb(true);
    return;
  }
  transmit_report_fragment(next_report_++);
}

void Modem::transmit_report_fragment(std::size_t idx) {
  PROF_ZONE("modem.collab_tx");
  PROF_BYTES(pending_report_[idx].wire_size());
  if (chaos_ != nullptr) {
    report_outstanding_ = true;
    report_guard_.arm(kReportAckGuard,
                      [this, idx] { on_report_guard(idx); });
    if (chaos_->drop_uplink()) return;  // lost on the air; guard retransmits
  }
  ++stats_.pdu_attempted;
  nas::PduSessionEstablishmentRequest req;
  req.hdr = {kDiagPsi, next_pti_++};
  req.dnn = pending_report_[idx];
  bool duplicate = false;
  if (chaos_ != nullptr) {
    chaos::BitFlip flip;
    if (chaos_->corrupt_uplink(&flip)) {
      req.dnn = corrupt_diag_dnn(req.dnn, flip);
    }
    // Semantic adversary: rewrite the DIAG header label (fragment count /
    // sequence / framing) instead of flipping payload bits.
    chaos::SemanticMutation mut;
    if (chaos_->mutate_uplink(&mut)) {
      std::vector<Bytes> labels = req.dnn.labels();
      chaos::apply_semantic_dnn(mut, labels);
      req.dnn = nas::Dnn::from_labels(std::move(labels));
    }
    duplicate = chaos_->duplicate_uplink();
  }
  send(nas::NasMessage(req));
  if (duplicate) {
    ++stats_.pdu_attempted;
    req.hdr.pti = next_pti_++;
    send(nas::NasMessage(req));
  }
}

void Modem::on_report_guard(std::size_t idx) {
  if (pending_report_.empty() || !report_outstanding_) return;
  if (++report_retries_ > kMaxReportRetries) {
    // Uplink collab channel unusable for this transfer: abort and let the
    // applet fall back to a local plan.
    SLOG(kWarn, "modem") << "diag report fragment " << idx
                         << " unacked after " << kMaxReportRetries
                         << " retries, aborting transfer";
    pending_report_.clear();
    next_report_ = 0;
    report_outstanding_ = false;
    auto cb = std::move(report_done_);
    report_done_ = nullptr;
    if (cb) cb(false);
    return;
  }
  transmit_report_fragment(idx);
}

void Modem::at_dplane_modify(const std::string& dnn, Done done) {
  ++stats_.at_commands;
  SLOG(kDebug, "modem") << "reset B3: AT+CGDCONT d-plane modification";
  done = trace_reset(6, std::move(done));
  if (chaos_intercept(6, done)) return;
  // AT+CGDCONT + context re-activation processing under root.
  if (!dnn.empty()) dnn_ = dnn;
  sim_.schedule_after(sim::ms(350), [this, done] {
    if (!data_connected()) {
      establish_session(kDataPsi, dnn_, [done](bool ok, std::uint8_t) {
        if (done) done(ok);
      });
      return;
    }
    nas::PduSessionModificationRequest req;
    req.hdr = {kDataPsi, next_pti_++};
    send(nas::NasMessage(req));
    // Modification command returns after one round trip.
    sim_.schedule_after(sim::ms(80), [done] {
      if (done) done(true);
    });
  });
}

void Modem::fast_dplane_reset(Done done) {
  ++stats_.at_commands;
  SLOG(kDebug, "modem") << "reset B3: fast d-plane reset (DIAG swap)";
  done = trace_reset(6, std::move(done));
  if (chaos_intercept(6, done)) return;
  // Fig. 6: DIAG session up -> DATA released -> DATA re-established ->
  // DIAG released. The gNB keeps >= 1 bearer throughout, so no reattach.
  sim_.schedule_after(params::kFastDplaneResetOverhead, [this, done] {
    establish_session(kDiagPsi, "DIAG", [this, done](bool ok, std::uint8_t) {
      if (!ok) {
        if (done) done(false);
        return;
      }
      release_session(kDataPsi, [this, done] {
        establish_session(kDataPsi, dnn_, [this, done](bool ok2,
                                                       std::uint8_t) {
          release_session(kDiagPsi, [done, ok2] {
            if (done) done(ok2);
          });
        });
      });
    });
  });
}

}  // namespace seed::modem

#include "corenet/core_network.h"

#include <algorithm>

#include "common/codec.h"
#include "common/params.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "seed/verdict.h"
#include "simcore/log.h"

namespace seed::corenet {

using nas::MmCause;
using nas::SmCause;

namespace {
std::uint8_t mm(MmCause c) { return static_cast<std::uint8_t>(c); }
std::uint8_t sm(SmCause c) { return static_cast<std::uint8_t>(c); }
}  // namespace

CoreNetwork::CoreNetwork(sim::Simulator& sim, sim::Rng& rng, SubscriberDb& db)
    : sim_(sim), rng_(rng), db_(db) {}

CoreNetwork::~CoreNetwork() = default;

CoreNetwork::UeContext& CoreNetwork::context(UeId ue) { return *ues_.at(ue); }

const CoreNetwork::UeContext& CoreNetwork::context(UeId ue) const {
  return *ues_.at(ue);
}

UeId CoreNetwork::attach_device(const std::string& supi, ran::Gnb& gnb,
                                std::function<void(BytesView)> downlink) {
  UeContext* ue = nullptr;
  const auto it = supi_to_ue_.find(supi);
  if (it != supi_to_ue_.end()) {
    ue = ues_[it->second].get();  // re-attach: rebind the link in place
  } else {
    const auto id = static_cast<UeId>(ues_.size());
    ues_.push_back(std::make_unique<UeContext>(sim_, id));
    supi_to_ue_.emplace(supi, id);
    ue = ues_.back().get();
    ue->supi = supi;
  }
  ue->gnb = &gnb;
  ue->downlink = std::move(downlink);
  if (Subscriber* sub = sub_of(*ue)) {
    ue->seed_ctx.emplace(sub->seed_key, proto::kSeedBearer);
  }
  return ue->id;
}

const std::string& CoreNetwork::ue_supi(UeId ue) const {
  static const std::string kEmpty;
  return ue < ues_.size() ? ues_[ue]->supi : kEmpty;
}

Faults& CoreNetwork::faults(UeId ue) { return context(ue).faults; }

void CoreNetwork::set_effective_policy(UeId ue, const TrafficPolicy& p) {
  context(ue).effective_policy = p;
}

const TrafficPolicy& CoreNetwork::effective_policy(UeId ue) const {
  return context(ue).effective_policy;
}

void CoreNetwork::drop_sessions(UeId ue) { context(ue).sessions.clear(); }

std::uint64_t CoreNetwork::registration_generation(UeId ue) const {
  return context(ue).reg_gen;
}

bool CoreNetwork::device_registered(UeId ue) const {
  return context(ue).registered;
}

const UeStats& CoreNetwork::ue_stats(UeId ue) const {
  return context(ue).stats;
}

CoreStats CoreNetwork::stats() const {
  CoreStats sum;
  for (const auto& ue : ues_) sum += ue->stats;
  return sum;
}

UeStats& UeStats::operator+=(const UeStats& o) {
  nas_rx += o.nas_rx;
  nas_tx += o.nas_tx;
  rejects_sent += o.rejects_sent;
  diag_downlinks += o.diag_downlinks;
  diag_reports_rx += o.diag_reports_rx;
  auth_vectors += o.auth_vectors;
  fast_dplane_resets += o.fast_dplane_resets;
  decode_rejects += o.decode_rejects;
  malformed_rx += o.malformed_rx;
  quarantine_drops += o.quarantine_drops;
  suspect_reports_dropped += o.suspect_reports_dropped;
  return *this;
}

void CoreNetwork::enable_diag_cache(bool on) {
  if (on) {
    diag_cache_ = std::make_unique<core::DiagnosisCache>();
    diag_cache_epoch_ = db_.mutation_epoch();
  } else {
    diag_cache_.reset();
  }
}

void CoreNetwork::send(UeContext& ue, const nas::NasMessage& msg) {
  ++ue.stats.nas_tx;
  Bytes wire = tx_pool_.acquire();
  nas::encode_message_into(msg, wire);
  const auto latency = params::kCoreProcessing + params::kGnbCoreLatency +
                       ue.gnb->hop_latency();
  sim_.schedule_after(latency, [this, &ue, wire = std::move(wire)]() mutable {
    if (ue.downlink && ue.gnb->radio_up()) ue.downlink(wire);
    tx_pool_.release(std::move(wire));
  });
}

void CoreNetwork::on_uplink(UeId id, BytesView wire) {
  UeContext& ue = context(id);
  ++ue.stats.nas_rx;
  nas::DecodeError err;
  const auto msg = nas::decode_message(wire, &err);
  if (!msg) {
    ++ue.stats.decode_rejects;
    obs::emit(obs::EventKind::kDecodeRejected, obs::Origin::kInfra,
              {.cause = static_cast<std::uint8_t>(err)});
    SLOG(kWarn, "core") << "undecodable NAS message ("
                        << nas::decode_error_name(err) << ", " << wire.size()
                        << " bytes)";
    note_malformed(ue, "undecodable NAS message");
    return;
  }
  std::visit(
      [this, &ue](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, nas::RegistrationRequest>) {
          handle_registration(ue, m);
        } else if constexpr (std::is_same_v<T, nas::AuthenticationResponse>) {
          handle_auth_response(ue, m);
        } else if constexpr (std::is_same_v<T, nas::AuthenticationFailure>) {
          handle_auth_failure(ue, m);
        } else if constexpr (std::is_same_v<T, nas::SecurityModeComplete>) {
          handle_smc_complete(ue);
        } else if constexpr (std::is_same_v<T, nas::ServiceRequest>) {
          handle_service_request(ue, m);
        } else if constexpr (std::is_same_v<T, nas::DeregistrationRequest>) {
          ue.registered = false;
          ue.sessions.clear();
          ue.gnb->rrc_release();
        } else if constexpr (std::is_same_v<
                                 T, nas::PduSessionEstablishmentRequest>) {
          handle_pdu_request(ue, m);
        } else if constexpr (std::is_same_v<T, nas::PduSessionReleaseRequest>) {
          handle_pdu_release(ue, m);
        } else if constexpr (std::is_same_v<
                                 T, nas::PduSessionModificationRequest>) {
          handle_pdu_modification(ue, m);
        } else if constexpr (std::is_same_v<T,
                                            nas::PduSessionReleaseComplete>) {
          // final ack of a release; nothing to do
        }
      },
      *msg);
}

// ------------------------------------------------- quarantine / penalty box

namespace {
/// Every third semantic reject from the same peer earns a strike.
constexpr std::uint64_t kMalformedStrikeThreshold = 3;
/// First strike mutes for 10 s; each further strike doubles the window,
/// capped at base << 6 = 640 s (graceful: the peer always gets another
/// chance, but a persistent abuser spends most of its time muted).
constexpr std::int64_t kMuteBaseSeconds = 10;
constexpr std::uint32_t kMuteShiftCap = 6;
}  // namespace

bool CoreNetwork::quarantined(const UeContext& ue) const {
  return sim_.now() < ue.muted_until;
}

bool CoreNetwork::peer_quarantined(UeId ue) const {
  return quarantined(context(ue));
}

void CoreNetwork::note_malformed(UeContext& ue, const char* what) {
  ++ue.stats.malformed_rx;
  ++ue.malformed_count;
  if (obs::enabled()) {
    // The infra's diagnosis of this input: adversarial, reject it. One
    // verdict per malformed frame joins the poisoning injection's label.
    core::DiagnosisVerdict v;
    v.kind = core::VerdictKind::kReportReject;
    v.source = core::VerdictSource::kReport;
    core::emit_verdict(v);
  }
  if (ue.malformed_count % kMalformedStrikeThreshold != 0) return;
  ++ue.malformed_strikes;
  const std::uint32_t shift =
      std::min(ue.malformed_strikes - 1, kMuteShiftCap);
  const auto mute = sim::seconds(kMuteBaseSeconds << shift);
  ue.muted_until = sim_.now() + mute;
  obs::emit(obs::EventKind::kPeerQuarantined, obs::Origin::kInfra,
            {.cause = static_cast<std::uint8_t>(
                 std::min<std::uint32_t>(ue.malformed_strikes, 255))});
  SLOG(kWarn, "core") << "UE " << ue.id << " quarantined (" << what
                      << ", strike " << ue.malformed_strikes << ", muted "
                      << sim::to_seconds(mute) << "s)";
}

// ------------------------------------------------------------- registration

void CoreNetwork::handle_registration(UeContext& ue,
                                      const nas::RegistrationRequest& m) {
  if (ue.faults.timeout_registration) return;  // swallowed: device times out

  Subscriber* sub = nullptr;
  nas::PlmnId selected_plmn{};
  if (m.identity.kind == nas::MobileIdentity::Kind::kGuti) {
    selected_plmn = m.identity.guti.plmn;
    if (ue.faults.drop_guti_mapping) {
      // Status desync: the network cannot derive the identity (Table 1 #1).
      reject_registration(ue, mm(MmCause::kUeIdentityCannotBeDerived));
      return;
    }
    sub = db_.find_by_guti(m.identity.guti);
    if (sub == nullptr) {
      reject_registration(ue, mm(MmCause::kUeIdentityCannotBeDerived));
      return;
    }
  } else if (m.identity.kind == nas::MobileIdentity::Kind::kSuci) {
    selected_plmn = m.identity.suci.plmn;
    sub = db_.find_by_msin(m.identity.suci.msin);
  }
  // Isolation: a message arriving on UE A's link can only act on UE A's
  // subscription — an identity resolving to another SUPI is rejected, so
  // one UE's GUTIs / failures never leak into another's AMF state.
  if (sub == nullptr || sub != sub_of(ue)) {
    reject_registration(ue, mm(MmCause::kUeIdentityCannotBeDerived));
    return;
  }
  if (!sub->authorized) {
    reject_registration(ue, mm(MmCause::kIllegalUe));
    return;
  }
  if (ue.faults.plmn_rejected && selected_plmn.mnc == 260) {
    // The device's (outdated) preferred PLMN is no longer allowed; an
    // updated PLMN list (mnc 310) or a full search recovers.
    reject_registration(ue, mm(MmCause::kPlmnNotAllowed));
    return;
  }
  if (ue.faults.transient_reject_count > 0) {
    --ue.faults.transient_reject_count;
    reject_registration(ue, mm(MmCause::kMessageTypeNotCompatibleWithState));
    return;
  }
  if (ue.faults.congested) {
    reject_registration(ue, mm(MmCause::kCongestion));
    return;
  }
  if (ue.faults.custom_cause_cp) {
    if (m.identity.kind == nas::MobileIdentity::Kind::kSuci) {
      // A whole-module control-plane reset (fresh identity) cures the
      // customized failure.
      ue.faults.custom_cause_cp.reset();
    } else {
      reject_registration(ue, mm(MmCause::kProtocolErrorUnspecified));
      return;
    }
  }
  ue.registration_pending = true;
  start_authentication(ue);
}

void CoreNetwork::start_authentication(UeContext& ue) {
  Subscriber* sub = sub_of(ue);
  if (sub == nullptr) return;
  ++ue.stats.auth_vectors;

  crypto::Block rand{};
  for (auto& b : rand) b = static_cast<std::uint8_t>(rng_.next());
  // Never collide with the reserved DFlag.
  rand[0] &= 0x7f;

  std::array<std::uint8_t, 6> sqn{};
  for (int i = 0; i < 6; ++i) {
    sqn[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sub->sqn >> (8 * (5 - i)));
  }
  sub->sqn += 32;
  const std::array<std::uint8_t, 2> amf = {0x80, 0x00};

  const crypto::AuthVector av =
      crypto::Milenage::from_opc(sub->k, sub->opc).auth_vector(rand, sqn, amf);
  ue.expected_res = Bytes(av.res.begin(), av.res.end());

  nas::AuthenticationRequest req;
  req.ngksi = 1;
  req.rand = rand;
  req.autn = av.autn;
  send(ue, nas::NasMessage(req));
}

void CoreNetwork::handle_auth_response(UeContext& ue,
                                       const nas::AuthenticationResponse& m) {
  if (!ue.expected_res || m.res != *ue.expected_res) {
    send(ue, nas::NasMessage(nas::AuthenticationReject{}));
    ue.registration_pending = false;
    return;
  }
  ue.expected_res.reset();
  ue.awaiting_smc = true;
  send(ue, nas::NasMessage(nas::SecurityModeCommand{}));
}

void CoreNetwork::handle_smc_complete(UeContext& ue) {
  if (!ue.awaiting_smc) return;
  ue.awaiting_smc = false;
  if (ue.registration_pending) complete_registration(ue);
}

void CoreNetwork::complete_registration(UeContext& ue) {
  Subscriber* sub = sub_of(ue);
  if (sub == nullptr) return;
  ue.registration_pending = false;
  ue.registered = true;
  ++ue.reg_gen;
  ue.faults.drop_guti_mapping = false;  // fresh registration resyncs identity
  ue.sessions.clear();  // a fresh registration voids old PDU contexts

  nas::RegistrationAccept acc;
  nas::Guti guti;
  guti.plmn = {310, 310};
  guti.amf_region = 1;
  guti.amf_set = 1;
  guti.tmsi = static_cast<std::uint32_t>(rng_.next());
  db_.assign_guti(*sub, guti);
  acc.guti = guti;
  acc.tai_list = {nas::Tai{guti.plmn, 100}};
  acc.allowed_nssai = {nas::SNssai{1, std::nullopt}};
  send(ue, nas::NasMessage(acc));
}

void CoreNetwork::handle_auth_failure(UeContext& ue,
                                      const nas::AuthenticationFailure& m) {
  if (m.cause == mm(MmCause::kSynchFailure) && ue.diag_tx.sending()) {
    // SEED downlink ACK for the previous fragment (Fig. 7a).
    send_diag_fragments(ue);
    return;
  }
  // Genuine synch failure: restart authentication with a fresh vector.
  if (ue.registration_pending) start_authentication(ue);
}

void CoreNetwork::handle_service_request(UeContext& ue,
                                         const nas::ServiceRequest&) {
  if (!ue.registered) {
    nas::ServiceReject rej;
    rej.cause = mm(MmCause::kUeIdentityCannotBeDerived);
    send(ue, nas::NasMessage(rej));
    core::FailureEvent ev;
    ev.network_initiated = true;
    ev.plane = nas::Plane::kControl;
    ev.standardized_cause = rej.cause;
    assist(ue, ev);
    return;
  }
  send(ue, nas::NasMessage(nas::ServiceAccept{}));
}

void CoreNetwork::reject_registration(UeContext& ue, std::uint8_t cause,
                                      std::optional<std::uint32_t> t3502) {
  ++ue.stats.rejects_sent;
  nas::RegistrationReject rej;
  rej.cause = cause;
  rej.t3502_seconds = t3502;
  send(ue, nas::NasMessage(rej));

  core::FailureEvent ev;
  ev.network_initiated = true;
  ev.plane = nas::Plane::kControl;
  if (ue.faults.custom_cause_cp &&
      cause == mm(MmCause::kProtocolErrorUnspecified)) {
    ev.standardized_cause = 0;
    ev.custom_cause = *ue.faults.custom_cause_cp;
    ev.custom_action = ue.faults.custom_action_known;
  } else {
    ev.standardized_cause = cause;
  }
  ev.congested = ue.faults.congested;
  ev.congestion_wait_s = ue.faults.congestion_wait_s;
  if (const Subscriber* sub = sub_of(ue)) {
    ev.config = config_for(nas::Plane::kControl, cause, *sub);
  }
  assist(ue, ev);
}

// ---------------------------------------------------------------- sessions

void CoreNetwork::handle_pdu_request(
    UeContext& ue, const nas::PduSessionEstablishmentRequest& m) {
  Subscriber* sub = sub_of(ue);
  if (sub == nullptr) return;

  // ---- SEED uplink report path (DIAG DNN with payload labels).
  if (proto::DiagDnnCodec::is_diag(m.dnn) && m.dnn.labels().size() > 1) {
    PROF_ZONE("core.collab_rx");
    PROF_BYTES(m.dnn.wire_size());
    if (!seed_enabled_ || !ue.seed_ctx) {
      reject_pdu(ue, m.hdr, sm(SmCause::kMissingOrUnknownDnn));
      return;
    }
    if (quarantined(ue)) {
      // Penalty box: drop silently — no reject ACK. The muted peer's
      // report ack-guard expires, its retries exhaust, and the applet
      // falls back to the local plan (graceful degradation, DESIGN.md).
      ++ue.stats.quarantine_drops;
      return;
    }
    const auto rx = ue.report_rx.feed(m.dnn, *ue.seed_ctx,
                                      crypto::Direction::kUplink,
                                      collab_plain_);
    if (rx.msg) {
      ++ue.stats.diag_reports_rx;
      handle_diag_report(ue, *rx.msg, m.hdr);
      return;
    }
    if (rx.malformed) note_malformed(ue, rx.malformed);
    // Mid-fragment, replay or bad frame: ACK with a reject (Fig. 7b).
    reject_pdu(ue, m.hdr, sm(SmCause::kRequestRejectedUnspecified));
    return;
  }

  const std::string dnn = m.dnn.to_string();

  // ---- plain DIAG session for the Fig. 6 fast reset: always accepted,
  // keeps the radio bearer alive while DATA is cycled.
  const bool is_diag_session = dnn == "DIAG";

  if (!is_diag_session) {
    if (!ue.registered) {
      reject_pdu(ue, m.hdr, sm(SmCause::kMessageNotCompatibleWithState));
      return;
    }
    if (!sub->plan_active) {
      // Expired data plan: recovery needs user action (§3.1).
      reject_pdu(ue, m.hdr, sm(SmCause::kUserAuthenticationFailed));
      return;
    }
    if (ue.faults.custom_cause_dp && m.hdr.pdu_session_id == 1) {
      // Cured only by a whole-module data-plane reset: the DATA session
      // re-establishes while a companion session (DIAG or swap) holds the
      // context (Fig. 6 / make-before-break). Plain retries on the same
      // broken context do not qualify.
      bool companion_up = false;
      for (const auto& [psi, sess] : ue.sessions) {
        if (psi != m.hdr.pdu_session_id) companion_up = true;
      }
      const bool fresh_registration =
          ue.reg_gen > ue.faults.custom_dp_armed_reg_gen;
      if (companion_up || fresh_registration) {
        ue.faults.custom_cause_dp.reset();
      } else {
        reject_pdu(ue, m.hdr, sm(SmCause::kProtocolErrorUnspecified));
        return;
      }
    }
    if (!db_.dnn_known(dnn)) {
      reject_pdu(ue, m.hdr, sm(SmCause::kMissingOrUnknownDnn));
      return;
    }
    const auto& allowed = sub->subscribed_dnns;
    if (std::find(allowed.begin(), allowed.end(), dnn) == allowed.end()) {
      reject_pdu(ue, m.hdr, sm(SmCause::kServiceOptionNotSubscribed));
      return;
    }
    if (m.snssai) {
      // Slice-aware validation (paper §9 extension): an unavailable
      // requested slice rejects with #70; the SEED assistance carries
      // the currently-served slice where the cause is slice-scoped.
      const auto& slices = sub->subscribed_slices;
      if (std::find(slices.begin(), slices.end(), *m.snssai) ==
          slices.end()) {
        reject_pdu(ue, m.hdr, sm(SmCause::kMissingOrUnknownDnnInSlice));
        return;
      }
    }
    if (!sub->allowed_types.contains(m.type)) {
      reject_pdu(ue, m.hdr, m.type == nas::PduSessionType::kIpv6
                                ? sm(SmCause::kPduTypeIpv4OnlyAllowed)
                                : sm(SmCause::kUnknownPduSessionType));
      return;
    }
    if (ue.faults.congested) {
      // Congestion rejects carry a short back-off timer (TS 24.501
      // T3396-style), so even legacy devices re-try promptly.
      reject_pdu(ue, m.hdr, sm(SmCause::kInsufficientResources),
                 static_cast<std::uint32_t>(rng_.uniform_int(2, 6)));
      return;
    }
    if (ue.sessions.size() >= sub->max_sessions) {
      reject_pdu(ue, m.hdr, sm(SmCause::kInsufficientResources));
      return;
    }
  }

  // Accept. Each UE gets its own /24 (third octet = UeId) so addresses
  // never collide across the fleet; UeId 0 keeps the 10.45.0.x of the
  // single-UE core.
  PduSession s;
  s.psi = m.hdr.pdu_session_id;
  s.dnn = dnn;
  s.type = m.type;
  s.ue_addr = nas::Ipv4{{10, 45, static_cast<std::uint8_t>(ue.id),
                         ue.next_ip_suffix++}};
  s.dns_addr = carrier_dns();
  s.is_diag = is_diag_session;
  const auto prev = ue.sessions.find(s.psi);
  s.generation = prev == ue.sessions.end() ? 1 : prev->second.generation + 1;
  // A freshly established DATA session carries fresh gateway state.
  if (!s.is_diag) ue.faults.stale_session = false;
  ue.sessions[s.psi] = s;
  ue.gnb->add_bearer(s.psi);

  nas::PduSessionEstablishmentAccept acc;
  acc.hdr = m.hdr;
  acc.type = s.type;
  acc.ue_addr = s.ue_addr;
  acc.dns_addr = s.dns_addr;
  acc.qos = nas::QosRule{9, 100000, 500000};
  send(ue, nas::NasMessage(acc));
}

void CoreNetwork::reject_pdu(UeContext& ue, const nas::SmHeader& hdr,
                             std::uint8_t cause,
                             std::optional<std::uint32_t> backoff) {
  ++ue.stats.rejects_sent;
  nas::PduSessionEstablishmentReject rej;
  rej.hdr = hdr;
  rej.cause = cause;
  rej.backoff_seconds = backoff;
  send(ue, nas::NasMessage(rej));

  core::FailureEvent ev;
  ev.network_initiated = true;
  ev.plane = nas::Plane::kData;
  if (ue.faults.custom_cause_dp &&
      cause == sm(SmCause::kProtocolErrorUnspecified)) {
    ev.standardized_cause = 0;
    ev.custom_cause = *ue.faults.custom_cause_dp;
    ev.custom_action = ue.faults.custom_action_known;
  } else {
    ev.standardized_cause = cause;
  }
  ev.congested = ue.faults.congested;
  ev.congestion_wait_s = ue.faults.congestion_wait_s;
  if (const Subscriber* sub = sub_of(ue)) {
    ev.config = config_for(nas::Plane::kData, cause, *sub);
  }
  assist(ue, ev);
}

void CoreNetwork::handle_pdu_release(UeContext& ue,
                                     const nas::PduSessionReleaseRequest& m) {
  const auto it = ue.sessions.find(m.hdr.pdu_session_id);
  if (it == ue.sessions.end()) {
    nas::PduSessionModificationReject rej;
    rej.hdr = m.hdr;
    rej.cause = sm(SmCause::kPduSessionDoesNotExist);
    send(ue, nas::NasMessage(rej));
    return;
  }
  ue.sessions.erase(it);
  nas::PduSessionReleaseCommand cmd;
  cmd.hdr = m.hdr;
  send(ue, nas::NasMessage(cmd));
  const bool was_last = ue.gnb->release_bearer(m.hdr.pdu_session_id);
  if (was_last) {
    // Last-bearer rule: UE context goes with the RRC connection.
    ue.registered = false;
  }
}

void CoreNetwork::handle_pdu_modification(
    UeContext& ue, const nas::PduSessionModificationRequest& m) {
  const auto it = ue.sessions.find(m.hdr.pdu_session_id);
  if (it == ue.sessions.end()) {
    nas::PduSessionModificationReject rej;
    rej.hdr = m.hdr;
    rej.cause = sm(SmCause::kPduSessionDoesNotExist);
    send(ue, nas::NasMessage(rej));
    return;
  }
  nas::PduSessionModificationCommand cmd;
  cmd.hdr = m.hdr;
  cmd.tft = m.tft;
  cmd.qos = m.qos;
  send(ue, nas::NasMessage(cmd));
}

void CoreNetwork::note_unresponsive(UeId id) {
  UeContext& ue = context(id);
  // Passive branch of Fig. 8: the device stopped answering (SIM/modem
  // channel fault). The tree requests a hardware reset over the
  // assistance downlink.
  core::FailureEvent ev;
  ev.network_initiated = false;
  ev.device_responded = false;
  ev.plane = nas::Plane::kControl;
  assist(ue, ev);
}

void CoreNetwork::make_sessions_stale(UeId id) {
  UeContext& ue = context(id);
  ue.faults.stale_session = true;
  for (auto& [_, s] : ue.sessions) {
    if (!s.is_diag) s.stale = true;
  }
}

bool CoreNetwork::session_active(UeId id, std::uint8_t psi) const {
  const UeContext& ue = context(id);
  const auto it = ue.sessions.find(psi);
  return it != ue.sessions.end() && !it->second.stale;
}

const PduSession* CoreNetwork::session(UeId id, std::uint8_t psi) const {
  const UeContext& ue = context(id);
  const auto it = ue.sessions.find(psi);
  return it == ue.sessions.end() ? nullptr : &it->second;
}

bool CoreNetwork::upf_allows(UeId id, nas::IpProtocol proto,
                             std::uint16_t port) const {
  const TrafficPolicy& pol = context(id).effective_policy;
  if (pol.blocked_ports.contains(port)) return false;
  if (proto == nas::IpProtocol::kTcp && pol.tcp_blocked) return false;
  if (proto == nas::IpProtocol::kUdp && pol.udp_blocked) return false;
  return true;
}

bool CoreNetwork::dns_resolves(UeId id, const nas::Ipv4& server) const {
  if (context(id).effective_policy.dns_blocked) return false;
  if (server == backup_dns()) return true;
  if (server == carrier_dns()) return dns_up_;
  return false;
}

// ------------------------------------------------------------ SEED plugin

std::optional<proto::ConfigPayload> CoreNetwork::config_for(
    nas::Plane plane, std::uint8_t cause, const Subscriber& sub) const {
  auto kind = nas::config_kind_for(plane, cause);
  if (kind == nas::ConfigKind::kNone) return std::nullopt;
  // Slice-scoped refinement of Appendix A: when #70 fired although the
  // DNN itself is subscribed, the outdated item is the S-NSSAI — ship
  // the currently-served slice instead of a DNN.
  if (plane == nas::Plane::kData &&
      cause == static_cast<std::uint8_t>(
                   nas::SmCause::kMissingOrUnknownDnnInSlice) &&
      !sub.subscribed_dnns.empty()) {
    kind = nas::ConfigKind::kSuggestedSnssai;
  }
  Writer w;
  switch (kind) {
    case nas::ConfigKind::kSuggestedDnn: {
      if (sub.subscribed_dnns.empty()) return std::nullopt;
      nas::Dnn(sub.subscribed_dnns.front()).encode(w);
      break;
    }
    case nas::ConfigKind::kSuggestedSessionType:
      w.u8(static_cast<std::uint8_t>(*sub.allowed_types.begin()));
      break;
    case nas::ConfigKind::kSupportedRat:
      // Updated PLMN/RAT priority list: the allowed PLMN.
      nas::PlmnId{310, 310}.encode(w);
      break;
    case nas::ConfigKind::kSuggestedSnssai:
      if (sub.subscribed_slices.empty()) return std::nullopt;
      sub.subscribed_slices.front().encode(w);
      break;
    case nas::ConfigKind::kSuggested5qi:
      w.u8(9);
      break;
    default:
      // TFT/packet-filter/PDU-session suggestions: ship a fresh default.
      w.u8(0);
      break;
  }
  return proto::ConfigPayload{kind, w.bytes()};
}

void CoreNetwork::assist(UeContext& ue, const core::FailureEvent& event) {
  if (!seed_enabled_ || !ue.seed_ctx) return;
  if (quarantined(ue)) {
    // No assistance for a muted peer; its legacy retry machinery (and the
    // applet's local plan) still runs, so connectivity recovery degrades
    // gracefully instead of stalling.
    ++ue.stats.quarantine_drops;
    return;
  }
  // Explicit cache invalidation on subscriber/config mutation: the db's
  // epoch moves on every provisioning change, and stale entries must not
  // outlive the state they were computed from (the keyed digests already
  // guarantee that independently — see DiagnosisCache).
  if (diag_cache_ && db_.mutation_epoch() != diag_cache_epoch_) {
    diag_cache_->invalidate();
    diag_cache_epoch_ = db_.mutation_epoch();
  }
  const auto advice =
      core::classify_failure_cached(event, learner_, rng_, diag_cache_.get());
  if (!advice.diag) return;

  ++ue.stats.diag_downlinks;
  // Scratch-composed downlink: encode -> protect -> fragment without
  // intermediate copies (all buffers recycled across transfers).
  Writer w(std::move(diag_scratch_));
  advice.diag->encode_into(w);
  diag_scratch_ = std::move(w).take();
  ue.seed_ctx->protect_into(diag_scratch_, crypto::Direction::kDownlink,
                            frame_scratch_);
  auto& frags = ue.diag_tx.restart(DiagLink{this, &ue});
  proto::AutnCodec::fragment_into(frame_scratch_, frags);
  SLOG(kInfo, "core") << "assistance -> SIM (cause #"
                      << int(advice.diag->cause) << ", " << frags.size()
                      << " AUTN fragment(s))";
  ue.diag_prep_start = sim_.now();
  // Downlink prep latency (metric collection + encode + crypto), Fig. 12.
  const auto prep = sim::secs_f(rng_.lognormal_median(
      sim::to_seconds(params::kDownlinkPrepMedian), params::kPrepSigma));
  sim_.schedule_after(prep, [this, &ue] {
    ue.diag_send_start = sim_.now();
    send_diag_fragments(ue);
  });
}

void CoreNetwork::send_diag_fragments(UeContext& ue) {
  PROF_ZONE("core.collab_tx");
  if (const auto* autn = ue.diag_tx.peek()) PROF_BYTES(autn->size());
  ue.diag_tx.pump(DiagLink{this, &ue});
}

void CoreNetwork::DiagLink::transmit(
    const std::array<std::uint8_t, 16>& autn) const {
  nas::AuthenticationRequest req;
  req.ngksi = 0;
  req.rand = proto::kDFlag;
  req.autn = autn;
  core->send(*ue, nas::NasMessage(req));
}

void CoreNetwork::DiagLink::done(bool ok) const {
  if (!ok) {
    SLOG(kWarn, "core") << "assistance downlink to UE " << ue->id
                        << " abandoned unacked";
    return;
  }
  // Final fragment ACKed: transfer complete (Fig. 12).
  SLOG(kDebug, "core") << "assistance downlink delivered";
  obs::emit(obs::EventKind::kCollabDownlink, obs::Origin::kInfra,
            {.prep_ms = sim::to_ms(ue->diag_send_start - ue->diag_prep_start),
             .trans_ms = sim::to_ms(core->sim_.now() - ue->diag_send_start)});
}

void CoreNetwork::handle_diag_report(UeContext& ue,
                                     const proto::FailureReport& report,
                                     const nas::SmHeader& hdr) {
  if (!ue.registered) {
    // Learning-path guard: an integrity-valid report from a peer with no
    // authenticated NAS context never influences policy repair or the
    // shared learner. Dropped silently — no ACK for pre-security-context
    // covert traffic.
    ++ue.stats.suspect_reports_dropped;
    obs::emit(obs::EventKind::kSuspectReportDropped, obs::Origin::kInfra);
    return;
  }
  SLOG(kDebug, "core") << "uplink diagnosis report received (type "
                       << int(static_cast<std::uint8_t>(report.type)) << ")";
  Subscriber* sub = sub_of(ue);
  // ACK the report with a reject (Fig. 7b).
  nas::PduSessionEstablishmentReject ack;
  ack.hdr = hdr;
  ack.cause = sm(SmCause::kRequestRejectedUnspecified);
  send(ue, nas::NasMessage(ack));
  if (sub == nullptr) return;

  // Validate the report against the *intended* user policy (§4.4.2): when
  // the effective policy wrongly blocks the traffic, repair it and push a
  // modification; for DNS failures configure the backup server.
  bool fixed_policy = false;
  switch (report.type) {
    case proto::FailureType::kTcp:
      if (ue.effective_policy.tcp_blocked && !sub->policy.tcp_blocked) {
        ue.effective_policy.tcp_blocked = false;
        fixed_policy = true;
      }
      break;
    case proto::FailureType::kUdp:
      if (ue.effective_policy.udp_blocked && !sub->policy.udp_blocked) {
        ue.effective_policy.udp_blocked = false;
        fixed_policy = true;
      }
      break;
    case proto::FailureType::kDns:
    case proto::FailureType::kNoConnection:
      break;
  }
  if (report.port && ue.effective_policy.blocked_ports.contains(*report.port) &&
      !sub->policy.blocked_ports.contains(*report.port)) {
    ue.effective_policy.blocked_ports.erase(*report.port);
    fixed_policy = true;
  }

  const bool dns_failure = report.type == proto::FailureType::kDns;
  const bool stale = ue.faults.stale_session;

  const auto report_verdict = [](core::VerdictKind kind,
                                 std::uint8_t action) {
    if (!obs::enabled()) return;
    core::DiagnosisVerdict v;
    v.plane = 1;
    v.kind = kind;
    v.source = core::VerdictSource::kReport;
    v.action = action;
    core::emit_verdict(v);
  };

  if (dns_failure && !dns_up_) {
    // Configure a backup DNS in the follow-up modification (B3, §4.4.2).
    for (auto& [psi, s] : ue.sessions) {
      if (!s.is_diag) s.dns_addr = backup_dns();
    }
    nas::PduSessionModificationCommand cmd;
    cmd.hdr = {1, 0};
    cmd.dns_addr = backup_dns();
    send(ue, nas::NasMessage(cmd));
    ++ue.stats.fast_dplane_resets;
    report_verdict(core::VerdictKind::kDnsFix, 6);  // B3
    return;
  }

  if (fixed_policy && !stale) {
    // Config-only fix: modify the existing DATA bearer instead of a reset.
    nas::PduSessionModificationCommand cmd;
    cmd.hdr = {1, 0};
    send(ue, nas::NasMessage(cmd));
    ++ue.stats.fast_dplane_resets;
    report_verdict(core::VerdictKind::kPolicyFix, 3);  // A3 config update
    return;
  }

  // Stale session (outdated gateway state): the SIM side orchestrates the
  // Fig. 6 fast reset next; the freshly established DATA session clears
  // the stale state in handle_pdu_request.
  ++ue.stats.fast_dplane_resets;
  report_verdict(core::VerdictKind::kStaleReset, 6);  // B3 fast reset
}

void CoreNetwork::upload_sim_records(
    UeId id, const std::vector<core::SimRecordStore::Entry>& e) {
  UeContext& ue = context(id);
  if (!ue.registered || quarantined(ue)) {
    // Learning-path guard: OTA record uploads from an unregistered or
    // quarantined peer never reach the shared NetRecord.
    ++ue.stats.suspect_reports_dropped;
    obs::emit(obs::EventKind::kSuspectReportDropped, obs::Origin::kInfra);
    return;
  }
  if (learner_ != nullptr) learner_->absorb(e);
}

}  // namespace seed::corenet

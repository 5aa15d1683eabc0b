// Simulated 5G core (AMF + AUSF + SMF + UPF) with the SEED diagnosis
// plugin (paper §6: "We extend the Magma 5G NSA core with a plugin").
//
// The core speaks real NAS wire bytes (nas/messages.h) to N concurrently
// attached devices (one UeContext per SUPI, in the spirit of Magma's
// shared-state AGW), runs real 5G-AKA (crypto/milenage.h), validates
// session requests against the subscriber database (producing the
// standardized SM causes), and — when SEED is enabled — classifies every
// failure with the Fig. 8 tree and ships assistance info over the DFlag
// Authentication Request channel. The DIAG-DNN uplink report path and the
// Fig. 6 fast data-plane reset are handled in the SMF hook.
//
// Multi-UE model: each attached device gets a UeId (0, 1, 2, ...) and a
// per-SUPI connection context — security context, GUTI, PDU sessions,
// fault overrides, the SEED downlink transfer state. Every per-UE call
// names its UeId; a single-device testbed is the N=1 case (its device is
// UeId 0). The Fig. 8 tree is amortized across all attached UEs by an
// optional DiagnosisCache (enable_diag_cache), and the online-learning
// NetRecord is naturally shared: one subscriber's confirmed diagnosis
// warms the next subscriber's assistance.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "crypto/milenage.h"
#include "crypto/security_context.h"
#include "corenet/subscriber.h"
#include "nas/messages.h"
#include "ran/gnb.h"
#include "seed/infra_assist.h"
#include "seed/online_learning.h"
#include "seedproto/diag_payload.h"
#include "seedproto/failure_report.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed {
namespace chaos {
class ChaosEngine;
}  // namespace chaos
}  // namespace seed

namespace seed::corenet {

/// Index of an attached device within one core instance.
using UeId = std::uint32_t;

/// Injectable failure conditions (per attached UE). Config-related faults
/// (outdated DNN etc.) are *not* listed here — they arise naturally when
/// the device's configuration disagrees with the SubscriberDb truth.
struct Faults {
  /// Core lost the SUPI<->GUTI mapping: GUTI registrations fail with #9.
  bool drop_guti_mapping = false;
  /// The device's serving PLMN became disallowed: #11 until the device
  /// registers via an allowed PLMN (config update or full search).
  bool plmn_rejected = false;
  /// Reject the next N registration attempts with #98 (state mismatch,
  /// transient desync that heals by itself).
  int transient_reject_count = 0;
  /// Cell/core congestion: #22 (c-plane) / #26 (d-plane) while set.
  bool congested = false;
  /// Wait the network advertises with congestion rejects (rides into
  /// FailureEvent::congestion_wait_s; 30 matches its default so runs
  /// that never touch the knob are byte-identical).
  std::uint16_t congestion_wait_s = 30;
  /// Swallow registration requests (device-side timeout path).
  bool timeout_registration = false;
  /// Unstandardized failure: reject with #111 on the wire, customized
  /// cause code via SEED assistance. Applies to the given plane.
  /// CP variant is cured by a fresh-identity (SUCI) registration — i.e.
  /// by whole-module control-plane resets (A1/B1/B2 or legacy attempt
  /// exhaustion). DP variant is cured when the DATA session comes up
  /// while another session exists (make-before-break A3 or the Fig. 6
  /// DIAG dance of B3) — i.e. by whole-module data-plane resets.
  std::optional<core::CustomCause> custom_cause_cp;
  std::optional<core::CustomCause> custom_cause_dp;
  /// Registration generation at DP-fault arming time: a *fresh*
  /// registration (A1/B1/B2 whole-module resets) also cures the DP
  /// custom fault, since it rebuilds all session contexts.
  std::uint64_t custom_dp_armed_reg_gen = 0;
  /// When the operator maps the custom failure to a known handling, the
  /// assistance carries this suggested action (§5.2); otherwise online
  /// learning takes over (§5.3).
  std::optional<proto::ResetAction> custom_action_known;
  /// Established sessions went stale (outdated gateway state): all flows
  /// fail until the session is re-established.
  bool stale_session = false;
};

struct PduSession {
  std::uint8_t psi = 0;
  std::string dnn;
  nas::PduSessionType type = nas::PduSessionType::kIpv4;
  nas::Ipv4 ue_addr;
  nas::Ipv4 dns_addr;
  std::uint64_t generation = 0;  // bumps on re-establishment
  bool stale = false;
  bool is_diag = false;
};

/// Core-network counters for one UE. The core-wide view is the same
/// struct summed over every attached UE (CoreNetwork::stats()).
struct UeStats {
  std::uint64_t nas_rx = 0;
  std::uint64_t nas_tx = 0;
  std::uint64_t rejects_sent = 0;
  std::uint64_t diag_downlinks = 0;     // SEED assistance transmissions
  std::uint64_t diag_reports_rx = 0;    // SEED uplink reports parsed
  std::uint64_t auth_vectors = 0;
  std::uint64_t fast_dplane_resets = 0;
  // ----- adversarial-traffic accounting (decoder hardening + quarantine)
  std::uint64_t decode_rejects = 0;     // NAS wire bytes the decoder refused
  std::uint64_t malformed_rx = 0;       // semantic rejects past the decoder
  std::uint64_t quarantine_drops = 0;   // messages dropped while muted
  std::uint64_t suspect_reports_dropped = 0;  // learning-path rejections

  UeStats& operator+=(const UeStats& o);
};
using CoreStats = UeStats;

class CoreNetwork {
 public:
  /// Devices bring their own gNB link via attach_device.
  CoreNetwork(sim::Simulator& sim, sim::Rng& rng, SubscriberDb& db);
  ~CoreNetwork();

  /// Enables the SEED plugin (diagnosis assistance + report handling).
  void enable_seed(bool on) { seed_enabled_ = on; }
  /// Impaired-channel mode (testbed chaos): arms an ack-guard that
  /// retransmits downlink diag fragments whose synch-failure ACK never
  /// arrives. With no engine the guard is never armed and the downlink
  /// event sequence matches the unimpaired core exactly.
  void set_chaos(chaos::ChaosEngine* chaos) { chaos_ = chaos; }
  /// Online learner shared across the operator's network (§5.3) — and,
  /// on a multi-UE core, across every attached subscriber.
  void set_learner(core::NetRecord* learner) { learner_ = learner; }

  /// Shared diagnosis-result cache (§5.2 amortization): the Fig. 8 tree
  /// runs once per distinct failure shape instead of once per reject.
  /// Off by default; single-UE benches keep the tree on every event.
  void enable_diag_cache(bool on);
  /// Null unless enable_diag_cache(true) was called.
  const core::DiagnosisCache* diag_cache() const { return diag_cache_.get(); }

  // ----- wiring (N devices per core, UeIds in attach order)
  /// Attaches a device on its own gNB link; returns its UeId. Attaching
  /// a SUPI that is already attached rebinds that UE's link in place.
  /// `downlink` receives a view of the wire bytes; it must consume them
  /// during the call (the backing buffer is recycled afterwards).
  UeId attach_device(const std::string& supi, ran::Gnb& gnb,
                     std::function<void(BytesView)> downlink);
  void on_uplink(UeId ue, BytesView wire);
  std::size_t ue_count() const { return ues_.size(); }
  /// SUPI of an attached UE (empty when out of range).
  const std::string& ue_supi(UeId ue) const;

  // ----- fault injection (per-UE)
  /// The default exists for perfbench/table4.cc, which predates UeIds.
  Faults& faults(UeId ue = 0);
  /// Breaks the carrier LDNS (delivery failure class DNS) — carrier-wide,
  /// every attached UE resolves through the same LDNS.
  void set_dns_up(bool up) { dns_up_ = up; }
  bool dns_up() const { return dns_up_; }
  /// Installs an erroneous traffic policy (delivery failure class
  /// TCP/UDP blocking); the intended policy stays in the SubscriberDb.
  void set_effective_policy(UeId ue, const TrafficPolicy& p);
  const TrafficPolicy& effective_policy(UeId ue) const;
  /// AMF-side detection of a silent device (SIM/modem channel fault):
  /// feeds the passive no-response branch of Fig. 8, which requests a
  /// hardware reset over the assistance downlink.
  void note_unresponsive(UeId ue);
  /// Marks established sessions stale (outdated gateway state).
  void make_sessions_stale(UeId ue);
  /// SMF loses the device's session contexts (Table 1 #50-style state
  /// desync); the device must re-request its sessions.
  void drop_sessions(UeId ue);
  /// Bumps on every completed registration.
  std::uint64_t registration_generation(UeId ue) const;

  // ----- UPF queries (used by the transport engine)
  bool session_active(UeId ue, std::uint8_t psi) const;
  const PduSession* session(UeId ue, std::uint8_t psi) const;
  bool upf_allows(UeId ue, nas::IpProtocol proto, std::uint16_t port) const;
  /// DNS resolution works iff the queried server is the live carrier LDNS
  /// or the public backup server SEED may configure.
  bool dns_resolves(UeId ue, const nas::Ipv4& server) const;

  // ----- SIM record upload (online learning OTA path, Algorithm 1 l.6)
  /// Records from an unregistered or quarantined peer never reach the
  /// shared learner (they are counted as suspect instead).
  void upload_sim_records(UeId ue,
                          const std::vector<core::SimRecordStore::Entry>& e);

  /// True while the UE sits in the malformed-traffic penalty box.
  bool peer_quarantined(UeId ue) const;

  // ----- stats
  /// Core-wide counters: every UE's UeStats summed.
  CoreStats stats() const;
  const UeStats& ue_stats(UeId ue) const;
  /// Fig. 12 downlink instrumentation: per-transfer preparation and
  /// transmission latencies in milliseconds (core-wide, append order).
  const std::vector<double>& diag_prep_ms() const { return diag_prep_ms_; }
  const std::vector<double>& diag_trans_ms() const { return diag_trans_ms_; }
  bool device_registered(UeId ue) const;

  /// Carrier LDNS / backup DNS addresses.
  static nas::Ipv4 carrier_dns() { return nas::Ipv4{{10, 45, 0, 1}}; }
  static nas::Ipv4 backup_dns() { return nas::Ipv4{{9, 9, 9, 9}}; }

 private:
  /// Everything the AMF/SMF/SEED plugin keeps per attached subscriber.
  struct UeContext {
    UeContext(sim::Simulator& sim, UeId id) : id(id), frag_guard(sim) {}

    UeId id;
    std::string supi;
    ran::Gnb* gnb = nullptr;
    std::function<void(BytesView)> downlink;

    // AMF state
    bool registered = false;
    std::uint64_t reg_gen = 0;
    bool awaiting_smc = false;
    bool registration_pending = false;
    std::optional<Bytes> expected_res;

    // SMF sessions
    std::map<std::uint8_t, PduSession> sessions;
    std::uint8_t next_ip_suffix = 2;

    // SEED plugin state
    std::optional<crypto::SecurityContext> seed_ctx;
    std::vector<std::array<std::uint8_t, 16>> pending_frags;
    std::size_t next_frag = 0;
    /// True while the latest fragment awaits its synch-failure ACK; a
    /// duplicated fragment earns two ACKs and only the first advances.
    bool frag_outstanding = false;
    int frag_retries = 0;
    sim::TimePoint diag_prep_start{};
    sim::TimePoint diag_send_start{};
    proto::DiagDnnCodec::Reassembler report_reassembler;
    /// Bytes of the last successfully processed report frame: an exact
    /// replay (retransmit after a lost ACK) fails the integrity check
    /// benignly and must not count as malformed.
    Bytes last_report_frame;
    sim::Timer frag_guard;  // armed only when a chaos engine is attached

    // UPF / faults
    Faults faults;
    TrafficPolicy effective_policy;

    // Malformed-traffic penalty box (§ threat model in DESIGN.md): every
    // kMalformedStrikeThreshold semantic rejects earn a strike, each
    // strike doubles the mute window. A muted peer's covert-channel
    // traffic is dropped silently, so its modem-side ack guards expire
    // and the applet degrades to the local plan.
    std::uint64_t malformed_count = 0;
    std::uint32_t malformed_strikes = 0;
    sim::TimePoint muted_until{};

    UeStats stats;
  };

  // message handlers (each bound to the UE whose link carried the bytes)
  void handle_registration(UeContext& ue, const nas::RegistrationRequest& m);
  void handle_auth_response(UeContext& ue,
                            const nas::AuthenticationResponse& m);
  void handle_auth_failure(UeContext& ue, const nas::AuthenticationFailure& m);
  void handle_smc_complete(UeContext& ue);
  void handle_service_request(UeContext& ue, const nas::ServiceRequest& m);
  void handle_pdu_request(UeContext& ue,
                          const nas::PduSessionEstablishmentRequest& m);
  void handle_pdu_release(UeContext& ue,
                          const nas::PduSessionReleaseRequest& m);
  void handle_pdu_modification(UeContext& ue,
                               const nas::PduSessionModificationRequest& m);

  // SEED plugin
  void assist(UeContext& ue, const core::FailureEvent& event);
  void send_diag_fragments(UeContext& ue);
  void on_frag_guard(UeContext& ue);
  void handle_diag_report(UeContext& ue, const proto::FailureReport& report,
                          const nas::SmHeader& hdr);

  // quarantine / penalty box
  bool quarantined(const UeContext& ue) const;
  void note_malformed(UeContext& ue, const char* what);

  // helpers
  void send(UeContext& ue, const nas::NasMessage& msg);
  void reject_registration(UeContext& ue, std::uint8_t cause,
                           std::optional<std::uint32_t> t3502 = {});
  void reject_pdu(UeContext& ue, const nas::SmHeader& hdr, std::uint8_t cause,
                  std::optional<std::uint32_t> backoff = {});
  Subscriber* sub_of(const UeContext& ue) { return db_.find(ue.supi); }
  std::optional<proto::ConfigPayload> config_for(
      nas::Plane plane, std::uint8_t cause, const Subscriber& sub) const;
  void start_authentication(UeContext& ue, bool for_registration);
  void complete_registration(UeContext& ue);
  UeContext& context(UeId ue);
  const UeContext& context(UeId ue) const;

  sim::Simulator& sim_;
  sim::Rng& rng_;
  SubscriberDb& db_;
  core::NetRecord* learner_ = nullptr;
  bool seed_enabled_ = false;

  /// Attached UEs, indexed by UeId (unique_ptr: contexts own a Timer and
  /// must stay address-stable for the callbacks that capture them).
  std::vector<std::unique_ptr<UeContext>> ues_;
  std::map<std::string, UeId, std::less<>> supi_to_ue_;

  chaos::ChaosEngine* chaos_ = nullptr;
  bool dns_up_ = true;

  /// Shared diagnosis-result cache; the db mutation epoch it was last
  /// validated against drives explicit invalidation.
  std::unique_ptr<core::DiagnosisCache> diag_cache_;
  std::uint64_t diag_cache_epoch_ = 0;

  std::vector<double> diag_prep_ms_;
  std::vector<double> diag_trans_ms_;

  /// Reusable wire buffers for send(): encode_message_into() writes into a
  /// recycled buffer, so steady-state TX performs no allocations.
  BufferPool tx_pool_;
  /// Collab-path scratch (synchronous use only, never captured): plaintext
  /// assistance encode, protected downlink frame, decrypted uplink report.
  Bytes diag_scratch_;
  Bytes frame_scratch_;
  Bytes collab_plain_;
};

}  // namespace seed::corenet

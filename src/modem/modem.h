// Device modem: 5GMM/5GSM state machines with the 3GPP timers and the
// *legacy* failure handling the paper critiques (§2/§3.2) — blind retries
// with possibly outdated identities/configurations, T3511/T3502 waits,
// repeated failures — plus the control surface SEED drives (ModemControl).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "modem/sim_iface.h"
#include "nas/messages.h"
#include "ran/gnb.h"
#include "seedproto/collab_channel.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::chaos {
class ChaosEngine;
}  // namespace seed::chaos

namespace seed::modem {

enum class MmState : std::uint8_t {
  kIdle,
  kSearching,
  kRegistering,
  kRegistered,
};

enum class SmState : std::uint8_t { kInactive, kActivating, kActive };

/// Knobs for legacy-behaviour ablations.
struct ModemBehavior {
  /// Paper §3.2: the modem keeps retrying with the outdated GUTI after
  /// cause #9 instead of falling back to SUCI until attempts exhaust.
  bool sticky_identity_on_cause9 = true;
};

struct ModemStats {
  std::uint64_t registrations_attempted = 0;
  std::uint64_t registrations_rejected = 0;
  std::uint64_t pdu_attempted = 0;
  std::uint64_t pdu_rejected = 0;
  std::uint64_t full_plmn_searches = 0;
  std::uint64_t at_commands = 0;
  std::uint64_t profile_reloads = 0;
  /// Downlink wire bytes the NAS decoder refused. The per-reason
  /// breakdown is the kDecodeRejected trace event's `cause` field
  /// (a nas::DecodeError).
  std::uint64_t decode_rejects = 0;
};

class Modem : public ModemControl {
 public:
  static constexpr std::uint8_t kDataPsi = 1;
  static constexpr std::uint8_t kDiagPsi = 2;
  static constexpr std::uint8_t kSwapPsi = 3;

  /// `uplink` receives a view of the wire bytes; it must consume them
  /// during the call (the backing buffer is recycled afterwards).
  Modem(sim::Simulator& sim, sim::Rng& rng, SimCard& sim_card, ran::Gnb& gnb,
        std::function<void(BytesView)> uplink);

  // ----- OS-facing API
  /// Boot: read SIM profile, attach, bring up the default data session.
  void power_on();
  /// Simulates a mobility/TAU event forcing re-registration (the testbed's
  /// way to start a control-plane management procedure under a fault).
  void trigger_reattach();
  /// (Re-)establish the default data session.
  void request_data_session();
  /// Scenario hook: drop and re-establish the default data session while
  /// staying registered (the data-plane management procedure under test),
  /// with the modem's normal (legacy) retry behaviour.
  void restart_data_session();
  void release_data_session(std::function<void()> done = {});

  bool registered() const { return mm_ == MmState::kRegistered; }
  bool data_connected() const { return sm(kDataPsi) == SmState::kActive; }
  MmState mm_state() const { return mm_; }
  const nas::Ipv4& ue_addr() const { return ue_addr_; }
  const nas::Ipv4& dns_addr() const { return dns_addr_; }
  std::uint64_t session_generation() const { return session_generation_; }

  /// Fires on every data-connectivity change.
  void set_data_state_handler(std::function<void(bool)> fn) {
    on_data_state_ = std::move(fn);
  }
  /// Fires on every reject the modem receives (plane, cause) — the signal
  /// tests and the device observe.
  void set_reject_observer(
      std::function<void(nas::Plane, std::uint8_t)> fn) {
    on_reject_ = std::move(fn);
  }
  /// Fires when the network pushes a PDU Session Modification Command
  /// (e.g. SEED's backup-DNS fix).
  void set_modification_observer(std::function<void()> fn) {
    on_modification_ = std::move(fn);
  }
  /// Chaos fault injection (testbed-only); with no engine attached every
  /// path below is byte-identical to the unimpaired modem.
  void set_chaos(chaos::ChaosEngine* chaos) { chaos_ = chaos; }

  // ----- network-facing
  void on_downlink(BytesView wire);

  // ----- behaviour / config
  ModemBehavior& behavior() { return behavior_; }
  const ModemStats& stats() const { return stats_; }
  /// The configuration the modem currently uses (copies of SIM files plus
  /// carrier-app overrides). SEED's A2/A3 rewrite these.
  nas::PlmnId& plmn() { return plmn_; }
  std::string& dnn() { return dnn_; }
  nas::SNssai& snssai() { return snssai_; }

  // ----- ModemControl (SEED multi-tier reset surface)
  void refresh_profile(Done done) override;
  void update_cplane_config(const nas::PlmnId& plmn, Done done) override;
  void update_slice(const nas::SNssai& snssai) override;
  void update_dplane_config(const std::string& dnn,
                            std::optional<nas::Ipv4> dns, Done done) override;
  void at_modem_reset(Done done) override;
  void at_reattach(Done done) override;
  void send_diag_report(const std::vector<nas::Dnn>& dnns, Done done) override;
  void fast_dplane_reset(Done done) override;
  void at_dplane_modify(const std::string& dnn, Done done) override;

  /// Scenario hook: the cached GUTI became unusable (e.g. the device moved
  /// out of the old registration area); next attach uses SUCI.
  void clear_cached_identity() { have_guti_ = false; }

 private:
  struct Session {
    SmState state = SmState::kInactive;
    std::string dnn;
    std::uint8_t pti = 0;
    int attempts = 0;
    std::function<void(bool, std::uint8_t)> done;  // (success, cause)
  };

  SmState sm(std::uint8_t psi) const;
  void notify_data_state();
  void send(const nas::NasMessage& msg);

  // registration machinery
  void start_registration(bool fresh_search, bool full_plmn_search);
  void send_registration_request();
  void on_registration_timeout();
  void handle_registration_reject(const nas::RegistrationReject& m);
  void handle_registration_accept(const nas::RegistrationAccept& m);
  void registration_settled(bool success);

  // session machinery
  void establish_session(std::uint8_t psi, const std::string& dnn,
                         std::function<void(bool, std::uint8_t)> done);
  void send_pdu_request(std::uint8_t psi);
  void handle_pdu_accept(const nas::PduSessionEstablishmentAccept& m);
  void handle_pdu_reject(const nas::PduSessionEstablishmentReject& m);
  void release_session(std::uint8_t psi, std::function<void()> done);

  // auth
  void handle_auth_request(const nas::AuthenticationRequest& m);
  void deliver_auth(const nas::AuthenticationRequest& m);

  // reset building blocks shared by the ModemControl commands
  /// Counts, logs and traces reset `action`, then lets chaos fail it. True
  /// when the command already ended (`done` consumed, scheduled false).
  bool begin_reset(std::uint8_t action, std::string_view what, Done& done);
  bool chaos_intercept(std::uint8_t action, Done& done);
  /// Forgets the registration, its sessions and the cached GUTI.
  void drop_registration();
  /// Brings DATA up (registering first if needed) and reports it.
  void restore_data(Done done);
  /// On the next registration outcome: restore DATA, or done(false).
  void await_registration_then_data(Done done);
  /// Fig. 6 make-before-break: `companion` up, DATA cycled, `companion`
  /// released, so the gNB never drops its last bearer.
  void make_before_break(std::uint8_t companion, const std::string& dnn,
                         Done done);

  /// The modem end of the report uplink (FragmentSender link).
  struct ReportLink {
    Modem* modem;
    auto& sender() const { return modem->report_tx_; }
    bool guarded() const { return modem->chaos_ != nullptr; }
    void transmit(const nas::Dnn& dnn) const;
    void done(bool ok) const;
  };

  sim::Simulator& sim_;
  sim::Rng& rng_;
  SimCard& sim_card_;
  ran::Gnb& gnb_;
  std::function<void(BytesView)> uplink_;
  // Reusable wire buffers for send(): encode_message_into() writes into a
  // recycled buffer, so steady-state TX performs no allocations.
  BufferPool tx_pool_;

  MmState mm_ = MmState::kIdle;
  bool have_guti_ = false;
  nas::Guti guti_{};
  nas::PlmnId plmn_{310, 260};
  std::string dnn_ = "internet";
  nas::PduSessionType pdu_type_ = nas::PduSessionType::kIpv4;
  nas::SNssai snssai_{1, std::nullopt};

  nas::Ipv4 ue_addr_{};
  nas::Ipv4 dns_addr_{};
  std::uint64_t session_generation_ = 0;

  int reg_attempts_ = 0;
  bool session_wanted_ = false;
  std::vector<Done> reg_waiters_;

  std::map<std::uint8_t, Session> sessions_;
  std::uint8_t next_pti_ = 1;

  sim::Timer t3510_;  // registration response guard
  sim::Timer t3511_;  // short retry
  sim::Timer t3502_;  // long retry
  sim::Timer t3580_;  // PDU response/retry guard

  ModemBehavior behavior_;
  ModemStats stats_;
  std::function<void(bool)> on_data_state_;
  std::function<void(nas::Plane, std::uint8_t)> on_reject_;
  std::function<void()> on_modification_;
  bool last_notified_state_ = false;

  // diag report uplink (its ack guard is armed only when a chaos engine
  // is attached, so the unimpaired event loop stays untouched)
  proto::FragmentSender<nas::Dnn> report_tx_;
  Done report_done_;

  chaos::ChaosEngine* chaos_ = nullptr;  // null outside impaired testbeds
};

}  // namespace seed::modem

// The SEED SIM applet (paper §4, §6: "1244 lines of Java with two
// modules" on a Javacard eSIM — here modeled in C++ with the same split).
//
// Diagnostic module: receives infrastructure assistance through the modem
// APDU interface (DFlag Authentication Requests), reassembles and
// decrypts fragments, stores cause tables and parsed configs; receives
// app/OS failure reports through the carrier app.
//
// Decision module: maps diagnoses to multi-tier reset plans (Table 3),
// applies the 2 s transient wait, the 5 s conflict window and per-action
// rate limits (§4.4.2), executes plans through ModemControl, runs the
// online-learning trial sequence for unknown causes (§5.3), and keeps
// everything within the eSIM storage budget (180 KB EEPROM / 8 KB RAM).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/milenage.h"
#include "crypto/security_context.h"
#include "modem/sim_iface.h"
#include "nas/causes.h"
#include "seed/decision.h"
#include "seed/online_learning.h"
#include "seedproto/collab_channel.h"
#include "seedproto/diag_payload.h"
#include "seedproto/failure_report.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::chaos {
class ChaosEngine;
}  // namespace seed::chaos

namespace seed::applet {

struct AppletStats {
  std::uint64_t auths_performed = 0;
  std::uint64_t diags_received = 0;
  std::uint64_t fragments_acked = 0;
  std::uint64_t plans_executed = 0;
  std::uint64_t actions_run = 0;
  std::uint64_t actions_rate_limited = 0;
  std::uint64_t plans_cancelled_by_recovery = 0;
  std::uint64_t reports_received = 0;
  std::uint64_t reports_suppressed_conflict = 0;
  std::uint64_t reports_sent_uplink = 0;
  std::uint64_t user_notifications = 0;
  std::uint64_t learning_trials = 0;
  // chaos-hardening counters (zero on unimpaired runs)
  std::uint64_t actions_retried = 0;
  std::uint64_t tier_escalations = 0;
  std::uint64_t uplink_report_failures = 0;
  /// AUTN-channel downlinks the applet refused (reassembly reject,
  /// integrity failure, or undecodable assistance payload); benign lost-
  /// ACK retransmits are excluded.
  std::uint64_t malformed_downlinks = 0;
};

class SeedApplet : public modem::SimCard {
 public:
  SeedApplet(sim::Simulator& sim, sim::Rng& rng, modem::SimProfile profile,
             const crypto::Key128& k, const crypto::Key128& opc,
             const crypto::Key128& seed_key);

  // ----- wiring
  void set_modem_control(modem::ModemControl* control) { control_ = control; }
  /// OTA upload of SIMRecord to the infrastructure (Algorithm 1 line 6).
  void set_record_uploader(
      std::function<void(const std::vector<core::SimRecordStore::Entry>&)>
          fn) {
    upload_records_ = std::move(fn);
  }
  /// End-to-end service health probe (device-level: registered + session
  /// active + data deliverable).
  void set_recovery_probe(std::function<bool()> fn) {
    recovery_probe_ = std::move(fn);
  }
  /// Failures requiring user action (expired plan etc.) surface here.
  void set_user_notifier(std::function<void(std::string)> fn) {
    notify_user_ = std::move(fn);
  }
  /// Chaos fault injection (testbed-only). An attached engine also
  /// hardens the handling of failed reset actions (see
  /// core::kHardenedAttempts); with none, every code path matches the
  /// seed behaviour.
  void set_chaos(chaos::ChaosEngine* chaos) { chaos_ = chaos; }
  bool hardened() const { return chaos_ != nullptr; }
  bool collab_uplink_dead() const { return collab_uplink_dead_; }

  /// SEED on/off (off = plain legacy SIM for baselines).
  void enable_seed(bool on) { enabled_ = on; }
  bool seed_enabled() const { return enabled_; }

  core::DeviceMode mode() const { return mode_; }

  // ----- SimCard (modem-facing APDU surface)
  const modem::SimProfile& profile() const override { return profile_; }
  modem::AuthResult authenticate(
      const std::array<std::uint8_t, 16>& rand,
      const std::array<std::uint8_t, 16>& autn) override;

  // ----- carrier-app APDU surface
  /// Carrier app detected root: enables SEED-R (paper §4.4.1).
  void on_root_status(bool rooted);
  /// App failure report (paper §4.3.2 API: type, direction, address).
  void report_failure(const proto::FailureReport& report);
  /// Android data-stall notification (Connectivity Diagnostics).
  void on_os_data_stall();
  /// Device-side notification that service recovered (cancels pending
  /// transient-wait resets).
  void notify_recovered();

  // ----- introspection
  const AppletStats& stats() const { return stats_; }
  /// EEPROM usage: applet code + cause registry + record store + configs.
  std::size_t storage_used_bytes() const;
  const core::SimRecordStore& records() const { return records_; }

 private:
  void handle_diag(const proto::DiagInfo& info);
  void apply_config(const proto::ConfigPayload& config);
  void execute_plan(core::HandlingPlan plan, std::uint8_t cause);
  void run_actions(std::vector<proto::ResetAction> actions, std::size_t idx,
                   int attempt, bool learning, std::uint8_t cause,
                   bool escalated);
  void issue_action(proto::ResetAction action,
                    modem::ModemControl::Done done);
  /// The §4.4.2 per-action rate limit: a repeat within the window is
  /// counted and traced as rate-limited (false); otherwise the action is
  /// counted as run and charged (true).
  bool admit_action(proto::ResetAction a);
  void refund_rate_limit(proto::ResetAction a, sim::TimePoint issued_at);
  void send_report_uplink(const proto::FailureReport& report);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  modem::SimProfile profile_;
  crypto::Milenage milenage_;
  crypto::SecurityContext seed_ctx_;
  modem::ModemControl* control_ = nullptr;

  bool enabled_ = true;
  core::DeviceMode mode_ = core::DeviceMode::kSeedU;

  proto::FrameReceiver<proto::AutnCodec::Reassembler, proto::DiagInfo>
      diag_rx_;
  /// Collab-path scratch (synchronous use only, never captured): decrypted
  /// downlink assistance, plaintext report encode, protected uplink frame.
  Bytes plain_scratch_;
  Bytes report_scratch_;
  Bytes frame_scratch_;
  core::SimRecordStore records_;
  std::map<proto::ResetAction, sim::TimePoint> last_action_time_;
  sim::TimePoint last_cause_time_{sim::Duration{-1000000000}};
  sim::Timer pending_wait_;
  bool plan_in_flight_ = false;
  /// Set when the latest assistance carried a data-plane config: B3 then
  /// runs as a *modification* with the new config rather than a reset.
  std::optional<std::string> pending_dp_config_dnn_;

  std::function<void(const std::vector<core::SimRecordStore::Entry>&)>
      upload_records_;
  std::function<bool()> recovery_probe_;
  std::function<void(std::string)> notify_user_;

  AppletStats stats_;

  // ----- chaos hardening (inert with no engine: the extra timers are
  // only armed by retries/deadlines, so unimpaired runs keep the event
  // loop byte-identical)
  chaos::ChaosEngine* chaos_ = nullptr;
  int uplink_fail_streak_ = 0;
  bool collab_uplink_dead_ = false;
  sim::Timer retry_timer_;
  sim::Timer action_deadline_;
  /// Bumped on every action issue and on first completion; guards against
  /// a late AT response racing the deadline-driven escalation.
  std::uint64_t action_epoch_ = 0;
};

}  // namespace seed::applet

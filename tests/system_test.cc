// System-level tests for the device-side modules (modem, applet, android,
// transport, apps, device) driven through the Testbed wiring.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "apps/app_model.h"
#include "common/params.h"
#include "testbed/testbed.h"

namespace seed::testbed {
namespace {

using device::Scheme;

// ------------------------------------------------------------------ modem

TEST(ModemSystem, RegistrationRunsFullAkaHandshake) {
  Testbed tb(100, Scheme::kLegacy);
  tb.bring_up();
  // Registration Request + Auth Request/Response + SMC/Complete + Accept
  // + PDU establishment both ways.
  EXPECT_GE(tb.core().stats().auth_vectors, 1u);
  EXPECT_GE(tb.core().stats().nas_rx, 4u);
  EXPECT_GE(tb.core().stats().nas_tx, 4u);
  EXPECT_GE(tb.dev().applet().stats().auths_performed, 1u);
}

TEST(ModemSystem, WrongKeyFailsAuthentication) {
  Testbed tb(101, Scheme::kLegacy);
  // Corrupt the subscriber key after device construction: the SIM will
  // compute a different RES and the core must reject.
  corenet::Subscriber* sub = tb.db().find(MultiTestbed::supi_of(0));
  sub->k[0] ^= 0xff;
  sub->opc = crypto::Milenage(sub->k, crypto::Key128{}).opc();
  tb.dev().power_on();
  tb.simulator().run_for(sim::minutes(2));
  EXPECT_FALSE(tb.dev().modem().registered());
}

TEST(ModemSystem, T3511PacesRetries) {
  Testbed tb(102, Scheme::kLegacy);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  tb.core().faults(tb.dev().ue_id()).transient_reject_count = 3;
  const auto t0 = tb.simulator().now();
  tb.dev().modem().trigger_reattach();
  ASSERT_TRUE(tb.simulator().poll_until(
      [&tb] { return tb.dev().modem().registered(); }, sim::ms(200),
      t0 + sim::minutes(3)));
  const double took = sim::to_seconds(tb.simulator().now() - t0);
  // Rejects at ~0s (attempt 1) and ~0.2s (immediate retry), then T3511
  // (10 s) paces attempt 3 which also fails, T3511 again, success.
  EXPECT_GE(took, sim::to_seconds(params::kT3511));
  EXPECT_GE(tb.dev().modem().stats().registrations_rejected, 3u);
}

TEST(ModemSystem, StickyIdentityAblation) {
  // With the spec-clean behaviour (clear GUTI on cause #9), recovery is a
  // single round instead of attempt exhaustion.
  Testbed tb(103, Scheme::kLegacy);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  tb.dev().modem().behavior().sticky_identity_on_cause9 = false;
  const auto out = tb.run_cp_failure(CpFailure::kIdentityDesync);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 2.0 * sim::to_seconds(params::kT3511));
}

// A3 and fast B3 share one make-before-break chain (Fig. 6): the
// companion session (swap PSI / DIAG) keeps the UE context, so neither
// re-registers, and each ends with only DATA up.
TEST(ModemSystem, Fig6KeepsRegistrationAcrossDataReset) {
  for (const bool fast_b3 : {true, false}) {
    SCOPED_TRACE(fast_b3 ? "B3 fast reset" : "A3 d-plane config update");
    Testbed tb(104, Scheme::kSeedR);
    tb.bring_up();
    const corenet::UeId ue = tb.dev().ue_id();
    const std::uint64_t gen_before = tb.core().registration_generation(ue);
    modem::Modem& m = tb.dev().modem();
    std::optional<bool> done;
    const auto record = [&done](bool ok) { done = ok; };
    if (fast_b3) {
      m.fast_dplane_reset(record);
    } else {
      m.update_dplane_config(m.dnn(), std::nullopt, record);
    }
    ASSERT_TRUE(tb.simulator().poll_until(
        [&done] { return done.has_value(); }, sim::ms(50),
        tb.simulator().now() + sim::minutes(5)));
    EXPECT_TRUE(*done);
    tb.simulator().run_for(sim::seconds(1));
    EXPECT_EQ(tb.core().registration_generation(ue), gen_before);
    EXPECT_TRUE(tb.core().device_registered(ue));
    EXPECT_TRUE(m.data_connected());
    EXPECT_TRUE(tb.core().session_active(ue, modem::Modem::kDataPsi));
    EXPECT_FALSE(tb.core().session_active(ue, modem::Modem::kDiagPsi));
    EXPECT_FALSE(tb.core().session_active(ue, modem::Modem::kSwapPsi));
    EXPECT_EQ(tb.gnb(0).bearer_count(), 1u);
  }
}

// A1, B1 and B2 drop the registration and report through one
// re-register-then-DATA waiter: done(false) when the re-registration is
// rejected, done(true) only once DATA is back.
TEST(ModemSystem, ReregisteringResetsReportRejectAndDataRestore) {
  using Command = void (modem::Modem::*)(modem::ModemControl::Done);
  const Command commands[] = {&modem::Modem::refresh_profile,
                              &modem::Modem::at_modem_reset,
                              &modem::Modem::at_reattach};
  const char* const names[] = {"A1", "B1", "B2"};
  for (int i = 0; i < 3; ++i) {
    const Command cmd = commands[i];
    for (const bool authorized : {true, false}) {
      SCOPED_TRACE(std::string(names[i]) +
                   (authorized ? " authorized" : " unauthorized"));
      Testbed tb(106, Scheme::kLegacy);
      tb.secondary_congestion_prob = 0;
      tb.bring_up();
      if (!authorized) {
        tb.inject_cp(tb.dev().ue_id(), CpFailure::kUnauthorized);
      }
      modem::Modem& m = tb.dev().modem();
      std::optional<bool> done;
      bool data_at_done = false;
      (m.*cmd)([&](bool ok) {
        done = ok;
        data_at_done = m.data_connected();
      });
      ASSERT_TRUE(tb.simulator().poll_until(
          [&done] { return done.has_value(); }, sim::ms(50),
          tb.simulator().now() + sim::minutes(5)));
      EXPECT_EQ(*done, authorized);
      EXPECT_EQ(data_at_done, authorized);
      EXPECT_EQ(m.registered(), authorized);
    }
  }
}

TEST(ModemSystem, NaiveDataResetWithoutDiagSessionLosesContext) {
  // Ablation for Fig. 6: releasing the last session drops the RRC + UE
  // context (gNB last-bearer rule), forcing a full reattach.
  Testbed tb(105, Scheme::kLegacy);
  tb.bring_up();
  bool released = false;
  tb.dev().modem().release_data_session([&released] { released = true; });
  ASSERT_TRUE(tb.simulator().poll_until(
      [&released] { return released; }, sim::ms(50),
      tb.simulator().now() + sim::minutes(5)));
  tb.simulator().run_for(sim::ms(200));
  EXPECT_FALSE(tb.core().device_registered(tb.dev().ue_id()));
  EXPECT_EQ(tb.gnb(0).bearer_count(), 0u);
}

// ------------------------------------------------------------------ applet

TEST(AppletSystem, LegacySimRejectsDFlagAsMacFailure) {
  Testbed tb(106, Scheme::kLegacy);
  tb.bring_up();
  auto result = tb.dev().applet().authenticate(proto::kDFlag, {});
  EXPECT_EQ(result.kind, modem::AuthResult::Kind::kMacFailure);
}

TEST(AppletSystem, RateLimiterBlocksBackToBackResets) {
  Testbed tb(107, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  // Break the path persistently so A3 does not fix it; repeated reports
  // must not produce repeated A3 resets within the rate-limit window
  // (§4.4.2 "does not perform the same reset action consecutively and
  // frequently; the signaling messages are thus not overwhelming").
  corenet::TrafficPolicy p;
  p.tcp_blocked = true;
  tb.core().set_effective_policy(tb.dev().ue_id(), p);
  // SEED-U cannot repair a network-side policy error; the applet must
  // not storm the network trying.
  proto::FailureReport r;
  r.type = proto::FailureType::kTcp;
  r.port = 443;
  for (int i = 0; i < 6; ++i) {
    tb.dev().carrier_app().report_failure(r);
    tb.simulator().run_for(sim::seconds(3));
  }
  const auto& st = tb.dev().applet().stats();
  EXPECT_EQ(st.reports_received, 6u);
  // At most one A3 fires inside the 30 s rate-limit window; the rest are
  // either rate-limited or held by the in-flight guard.
  EXPECT_LE(st.actions_run, 2u);
}

TEST(AppletSystem, ConflictWindowSuppressesReportsDuringCauseHandling) {
  Testbed tb(108, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  (void)tb.run_dp_failure(DpFailure::kOutdatedDnn);
  // Immediately after the cause-based handling, an app report within the
  // 5 s window is suppressed.
  proto::FailureReport r;
  r.type = proto::FailureType::kTcp;
  tb.dev().carrier_app().report_failure(r);
  EXPECT_GE(tb.dev().applet().stats().reports_suppressed_conflict, 0u);
}

TEST(AppletSystem, ModeFollowsRootStatus) {
  Testbed tb(109, Scheme::kSeedR);
  EXPECT_EQ(tb.dev().applet().mode(), core::DeviceMode::kSeedR);
  tb.dev().applet().on_root_status(false);
  EXPECT_EQ(tb.dev().applet().mode(), core::DeviceMode::kSeedU);
}

// ------------------------------------------------------------------ android

TEST(AndroidSystem, SequentialRetryEscalatesInOrder) {
  Testbed tb(110, Scheme::kLegacy);
  tb.bring_up();
  corenet::TrafficPolicy p;
  p.tcp_blocked = true;
  p.udp_blocked = true;
  p.dns_blocked = true;
  tb.core().set_effective_policy(tb.dev().ue_id(), p);
  tb.dev().os().force_stall();
  tb.simulator().run_for(sim::minutes(2));
  const auto& st = tb.dev().os().stats();
  EXPECT_GE(st.stalls_detected, 1u);
  EXPECT_GE(st.retries_tcp_restart, 1u);
  EXPECT_GE(st.retries_reregister, 1u);
  EXPECT_GE(st.retries_modem_restart, 1u);
}

TEST(AndroidSystem, RetryAbortsOnceHealthy) {
  Testbed tb(111, Scheme::kLegacy);
  tb.bring_up();
  tb.core().make_sessions_stale(tb.dev().ue_id());
  tb.dev().os().force_stall();
  tb.simulator().run_for(sim::minutes(3));
  const auto& st = tb.dev().os().stats();
  // Re-register fixes the stale session; the escalation never reaches the
  // modem restart.
  EXPECT_GE(st.retries_reregister, 1u);
  EXPECT_EQ(st.retries_modem_restart, 0u);
  EXPECT_TRUE(tb.dev().traffic().path_healthy());
}

// ---------------------------------------------------------------- traffic

TEST(TrafficSystem, StatsWindowsTrackOutcomes) {
  Testbed tb(112, Scheme::kLegacy);
  tb.bring_up();
  auto& traffic = tb.dev().traffic();
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    traffic.attempt_tcp(nas::Ipv4{{1, 2, 3, 4}}, 443,
                        [&completed](bool ok) {
                          EXPECT_TRUE(ok);
                          ++completed;
                        });
  }
  tb.simulator().run_for(sim::seconds(5));
  EXPECT_EQ(completed, 12);
  transport::TcpWindow w = traffic.tcp_window(params::kTcpStatsWindow);
  EXPECT_EQ(w.outbound, 12);
  EXPECT_EQ(w.inbound, 12);
  EXPECT_DOUBLE_EQ(w.fail_rate(), 0.0);

  corenet::TrafficPolicy p;
  p.tcp_blocked = true;
  tb.core().set_effective_policy(tb.dev().ue_id(), p);
  for (int i = 0; i < 12; ++i) {
    traffic.attempt_tcp(nas::Ipv4{{1, 2, 3, 4}}, 443, [](bool ok) {
      EXPECT_FALSE(ok);
    });
  }
  tb.simulator().run_for(sim::seconds(5));
  w = traffic.tcp_window(params::kTcpStatsWindow);
  EXPECT_EQ(w.outbound, 24);
  EXPECT_EQ(w.inbound, 12);
  EXPECT_DOUBLE_EQ(w.fail_rate(), 0.5);
}

TEST(TrafficSystem, ConsecutiveDnsTimeoutsResetOnSuccess) {
  Testbed tb(113, Scheme::kLegacy);
  tb.bring_up();
  auto& traffic = tb.dev().traffic();
  tb.core().set_dns_up(false);
  for (int i = 0; i < 3; ++i) {
    traffic.attempt_dns([](bool) {});
    tb.simulator().run_for(sim::seconds(6));
  }
  EXPECT_EQ(traffic.consecutive_dns_timeouts(params::kDnsWindow), 3);
  tb.core().set_dns_up(true);
  traffic.attempt_dns([](bool ok) { EXPECT_TRUE(ok); });
  tb.simulator().run_for(sim::seconds(1));
  EXPECT_EQ(traffic.consecutive_dns_timeouts(params::kDnsWindow), 0);
}

TEST(TrafficSystem, BlockedPortOnlyAffectsThatPort) {
  Testbed tb(114, Scheme::kLegacy);
  tb.bring_up();
  corenet::TrafficPolicy p;
  p.blocked_ports.insert(8080);
  tb.core().set_effective_policy(tb.dev().ue_id(), p);
  EXPECT_FALSE(tb.dev().traffic().path_allows(nas::IpProtocol::kTcp, 8080));
  EXPECT_TRUE(tb.dev().traffic().path_allows(nas::IpProtocol::kTcp, 443));
}

// ------------------------------------------------------------------ apps

TEST(AppsSystem, SpecsMatchPaperWorkloads) {
  EXPECT_EQ(apps::video_app().buffer, sim::seconds(30));
  EXPECT_EQ(apps::live_stream_app().buffer, sim::seconds(3));
  EXPECT_EQ(apps::edge_ar_app().buffer.count(), 0);
  EXPECT_EQ(apps::edge_ar_app().proto, nas::IpProtocol::kUdp);
  EXPECT_EQ(apps::web_app().period, sim::seconds(5));  // §3.3 workload
}

TEST(AppsSystem, BufferMasksShortOutages) {
  Testbed tb(115, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  apps::App& video = tb.dev().add_app(apps::video_app());
  apps::App& ar = tb.dev().add_app(apps::edge_ar_app());
  tb.simulator().run_for(sim::seconds(20));
  const auto t0 = tb.simulator().now();
  (void)tb.run_delivery_failure(DeliveryFailure::kStaleSession);
  tb.simulator().run_for(sim::seconds(10));
  // The ~1 s outage is invisible to the 30 s-buffered video app but not
  // to the bufferless AR app.
  EXPECT_DOUBLE_EQ(video.perceived_disruption(t0).value_or(-1), 0.0);
  EXPECT_GT(ar.perceived_disruption(t0).value_or(-1), 0.0);
}

TEST(AppsSystem, AppsReportFailuresThroughCarrierApp) {
  Testbed tb(116, Scheme::kSeedR);
  tb.bring_up();
  tb.dev().add_app(apps::edge_ar_app());
  tb.simulator().run_for(sim::seconds(10));
  (void)tb.run_delivery_failure(DeliveryFailure::kUdpBlock, sim::minutes(10),
                                /*immediate_detection=*/false);
  // The AR daemon's own report (not the testbed's synthetic one) reached
  // the applet and the infrastructure.
  EXPECT_GE(tb.dev().applet().stats().reports_received, 1u);
  EXPECT_GE(tb.core().stats().diag_reports_rx, 1u);
}

// ------------------------------------------------------------------ device

TEST(DeviceSystem, SchemeNamesStable) {
  EXPECT_EQ(device::scheme_name(Scheme::kLegacy), "Legacy");
  EXPECT_EQ(device::scheme_name(Scheme::kSeedU), "SEED-U");
  EXPECT_EQ(device::scheme_name(Scheme::kSeedR), "SEED-R");
}

}  // namespace
}  // namespace seed::testbed

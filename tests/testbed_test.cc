#include <gtest/gtest.h>

#include "common/params.h"
#include "testbed/testbed.h"

namespace seed::testbed {
namespace {

using device::Scheme;

TEST(Testbed, BringUpReachesHealthyService) {
  Testbed tb(1, Scheme::kLegacy);
  tb.bring_up();
  EXPECT_TRUE(tb.dev().modem().registered());
  EXPECT_TRUE(tb.dev().modem().data_connected());
  EXPECT_TRUE(tb.dev().traffic().path_healthy());
  EXPECT_TRUE(tb.core().device_registered(tb.dev().ue_id()));
  EXPECT_GE(tb.core().stats().auth_vectors, 1u);
}

TEST(Testbed, BringUpWorksForAllSchemes) {
  for (Scheme s : {Scheme::kLegacy, Scheme::kSeedU, Scheme::kSeedR}) {
    Testbed tb(2, s);
    tb.bring_up();
    EXPECT_TRUE(tb.dev().traffic().path_healthy())
        << device::scheme_name(s);
  }
}

// ------------------------------------------------------ control plane

TEST(Testbed, IdentityDesyncLegacyTakesTimerScale) {
  Testbed tb(3, Scheme::kLegacy);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kIdentityDesync);
  ASSERT_TRUE(out.recovered);
  // Legacy keeps retrying with the stale GUTI (T3511 pacing): recovery
  // needs at least several 10 s rounds or the T3502 path.
  EXPECT_GT(out.disruption_s, 10.0);
}

TEST(Testbed, IdentityDesyncSeedUMuchFaster) {
  Testbed tb(4, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kIdentityDesync);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 15.0);
  EXPECT_GE(tb.dev().applet().stats().diags_received, 1u);
  EXPECT_GE(tb.dev().applet().stats().actions_run, 1u);
}

TEST(Testbed, IdentityDesyncSeedRFastest) {
  Testbed tb(5, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kIdentityDesync);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 10.0);
}

TEST(Testbed, QuickTransientRecoversWithoutSeedReset) {
  Testbed tb(6, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kQuickTransient);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 4.0);
  // The 2 s wait let the transient self-heal: no reset actions fired for
  // this failure (the applet may still have pending-cancel bookkeeping).
  EXPECT_EQ(tb.dev().applet().stats().actions_run, 0u);
}

TEST(Testbed, OutdatedPlmnLegacyNeedsFullSearch) {
  Testbed tb(7, Scheme::kLegacy);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kOutdatedPlmn);
  ASSERT_TRUE(out.recovered);
  EXPECT_GE(tb.dev().modem().stats().full_plmn_searches, 1u);
  EXPECT_GT(out.disruption_s, 10.0);
}

TEST(Testbed, OutdatedPlmnSeedSkipsSearch) {
  Testbed tb(8, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kOutdatedPlmn);
  ASSERT_TRUE(out.recovered);
  // SEED's A2 config update + reattach preempts the exhaustive search the
  // legacy logic would otherwise sit in (the modem may still have
  // *started* one, but recovery never waits for it).
  EXPECT_LT(out.disruption_s, 10.0);
  EXPECT_LE(tb.dev().modem().stats().full_plmn_searches, 1u);
}

TEST(Testbed, UnauthorizedNeedsUserAction) {
  Testbed tb(9, Scheme::kSeedU);
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kUnauthorized,
                                     sim::minutes(3));
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.user_action_required);
  EXPECT_GE(tb.dev().applet().stats().user_notifications, 1u);
}

TEST(Testbed, CongestionSeedWaitsInsteadOfResetting) {
  Testbed tb(10, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kCongestion);
  ASSERT_TRUE(out.recovered);
  // Recovery happens after the congestion clears (4-9 s) without storms
  // of extra registrations.
  EXPECT_LT(out.disruption_s, 40.0);
}

// --------------------------------------------------------- data plane

TEST(Testbed, OutdatedDnnLegacyWaitsForHeal) {
  Testbed tb(11, Scheme::kLegacy);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedDnn);
  ASSERT_TRUE(out.recovered);
  EXPECT_GT(out.disruption_s, 60.0);  // minutes-scale
  EXPECT_GE(tb.dev().modem().stats().pdu_rejected, 2u);  // repeated failures
}

TEST(Testbed, OutdatedDnnSeedUUsesConfigUpdate) {
  Testbed tb(12, Scheme::kSeedU);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedDnn);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 5.0);
  // The applet applied the suggested DNN from the assistance info.
  EXPECT_EQ(tb.dev().applet().profile().dnn, "internet.v2");
  EXPECT_EQ(tb.dev().modem().dnn(), "internet.v2");
}

TEST(Testbed, OutdatedDnnSeedRFaster) {
  Testbed tb(13, Scheme::kSeedR);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedDnn);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 3.0);
}

TEST(Testbed, ExpiredPlanNeedsUser) {
  Testbed tb(14, Scheme::kSeedU);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kExpiredPlan,
                                     sim::minutes(3));
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.user_action_required);
}

TEST(Testbed, OutdatedSliceSeedAppliesSuggestedSnssai) {
  // §9 extension: the device's slice is no longer served (#70); SEED
  // ships the served S-NSSAI and the session comes back on it.
  Testbed tb(26, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedSlice);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 6.0);
  EXPECT_EQ(tb.dev().modem().snssai(), (nas::SNssai{2, 0x0000a1}));
  EXPECT_EQ(tb.dev().applet().profile().snssai, (nas::SNssai{2, 0x0000a1}));
}

TEST(Testbed, OutdatedSliceLegacyWaitsForHeal) {
  Testbed tb(27, Scheme::kLegacy);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedSlice);
  ASSERT_TRUE(out.recovered);
  EXPECT_GT(out.disruption_s, 30.0);  // operator-side heal scale
}

// ------------------------------------------------------ data delivery

TEST(Testbed, StaleSessionLegacySequentialRetry) {
  Testbed tb(15, Scheme::kLegacy);
  tb.bring_up();
  const auto out = tb.run_delivery_failure(DeliveryFailure::kStaleSession);
  ASSERT_TRUE(out.recovered);
  // Recommended timers: re-register fires after ~27 s of escalation.
  EXPECT_GT(out.disruption_s, 20.0);
  EXPECT_LT(out.disruption_s, 120.0);
}

TEST(Testbed, StaleSessionSeedRSubSecond) {
  Testbed tb(16, Scheme::kSeedR);
  tb.bring_up();
  const auto out = tb.run_delivery_failure(DeliveryFailure::kStaleSession);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 3.0);
  EXPECT_GE(tb.dev().applet().stats().reports_sent_uplink, 1u);
}

TEST(Testbed, TcpBlockOnlySeedRecovers) {
  Testbed legacy(17, Scheme::kLegacy);
  legacy.bring_up();
  const auto l = legacy.run_delivery_failure(DeliveryFailure::kTcpBlock,
                                             sim::minutes(10));
  EXPECT_FALSE(l.recovered);  // blind retries cannot fix a policy error

  Testbed seedr(18, Scheme::kSeedR);
  seedr.bring_up();
  const auto s = seedr.run_delivery_failure(DeliveryFailure::kTcpBlock);
  ASSERT_TRUE(s.recovered);
  EXPECT_LT(s.disruption_s, 5.0);
  EXPECT_GE(seedr.core().stats().diag_reports_rx, 1u);
}

TEST(Testbed, DnsOutageSeedConfiguresBackupDns) {
  Testbed tb(19, Scheme::kSeedR);
  tb.bring_up();
  const auto out = tb.run_delivery_failure(DeliveryFailure::kDnsOutage);
  ASSERT_TRUE(out.recovered);
  EXPECT_EQ(tb.dev().modem().dns_addr().to_string(), "9.9.9.9");
}

TEST(Testbed, UdpBlockSeedRecovers) {
  Testbed tb(20, Scheme::kSeedR);
  tb.bring_up();
  const auto out = tb.run_delivery_failure(DeliveryFailure::kUdpBlock);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 5.0);
}

// -------------------------------------------------------- online learning

TEST(Testbed, CustomUnknownCpLearnsControlPlaneAction) {
  core::NetRecord learner(0.2);
  Testbed tb(21, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.core().set_learner(&learner);
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kCustomUnknown,
                                     sim::minutes(10));
  ASSERT_TRUE(out.recovered);
  // The trial sequence B3 -> A3 -> B2 ... lands on a control-plane reset.
  const auto best = learner.best_action(Testbed::kCustomCpCode);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(*best == proto::ResetAction::kB2CPlaneReattach ||
              *best == proto::ResetAction::kB1ModemReset ||
              *best == proto::ResetAction::kA1ProfileReload);
}

TEST(Testbed, CustomUnknownDpLearnsDataPlaneAction) {
  core::NetRecord learner(0.2);
  Testbed tb(22, Scheme::kSeedR);
  tb.core().set_learner(&learner);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kCustomUnknown,
                                     sim::minutes(10));
  ASSERT_TRUE(out.recovered);
  const auto best = learner.best_action(Testbed::kCustomDpCode);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(*best == proto::ResetAction::kB3DPlaneReset ||
              *best == proto::ResetAction::kA3DPlaneConfigUpdate);
}

// ------------------------------------------------------ channel security

TEST(Testbed, SeedChannelCountersAdvance) {
  Testbed tb(23, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  (void)tb.run_cp_failure(CpFailure::kIdentityDesync);
  EXPECT_GE(tb.core().stats().diag_downlinks, 1u);
  EXPECT_GE(tb.dev().applet().stats().fragments_acked, 1u);
}

TEST(Testbed, AppletStorageStaysWithinEsimBudget) {
  Testbed tb(24, Scheme::kSeedR);
  tb.bring_up();
  (void)tb.run_dp_failure(DpFailure::kOutdatedDnn);
  EXPECT_LT(tb.dev().applet().storage_used_bytes(),
            seed::params::kSimEepromBytes);
}

// Mixture sampling sanity.
TEST(Testbed, Table1MixtureRoughlyMatchesPlaneSplit) {
  sim::Rng rng(25);
  int cp = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (sample_table1_failure(rng).control_plane) ++cp;
  }
  EXPECT_NEAR(static_cast<double>(cp) / n, 0.562, 0.02);
}

// ------------------------------------------------------ scenario runner

// The arm -> bring_up -> run_*_failure sequence each bench wrote out
// before run_scenario existed.
Outcome hand_written(Testbed& tb, const Scenario& s) {
  if (s.klass == Scenario::Klass::kCp &&
      s.f.cp == CpFailure::kCustomUnknown) {
    tb.core().faults(tb.dev().ue_id()).custom_action_known =
        proto::ResetAction::kB2CPlaneReattach;
  }
  if (s.klass == Scenario::Klass::kDp &&
      s.f.dp == DpFailure::kCustomUnknown) {
    tb.core().faults(tb.dev().ue_id()).custom_action_known =
        proto::ResetAction::kB3DPlaneReset;
  }
  tb.bring_up();
  switch (s.klass) {
    case Scenario::Klass::kCp:
      return tb.run_cp_failure(s.f.cp, sim::minutes(40));
    case Scenario::Klass::kDp:
      return tb.run_dp_failure(s.f.dp, sim::minutes(80));
    case Scenario::Klass::kDelivery:
      return tb.run_delivery_failure(DeliveryFailure::kStaleSession,
                                     sim::minutes(40));
  }
  return {};
}

TEST(Scenario, RunScenarioMatchesHandWrittenSequence) {
  std::vector<Scenario> scenarios;
  for (CpFailure f :
       {CpFailure::kIdentityDesync, CpFailure::kOutdatedPlmn,
        CpFailure::kTransientStateMismatch, CpFailure::kQuickTransient,
        CpFailure::kUnauthorized, CpFailure::kCongestion,
        CpFailure::kCustomUnknown}) {
    scenarios.push_back({Scenario::Klass::kCp, {.control_plane = true, .cp = f},
                         700 + scenarios.size()});
  }
  for (DpFailure f :
       {DpFailure::kOutdatedDnn, DpFailure::kUnknownDnn,
        DpFailure::kOutdatedSlice, DpFailure::kExpiredPlan,
        DpFailure::kCongestion, DpFailure::kCustomUnknown}) {
    scenarios.push_back({Scenario::Klass::kDp,
                         {.control_plane = false, .dp = f},
                         700 + scenarios.size()});
  }
  scenarios.push_back(delivery_scenarios(31, 1).front());

  // SEED-R is the scheme whose outcome tells the B2 and B3 arming apart.
  for (Scheme scheme : {Scheme::kLegacy, Scheme::kSeedU, Scheme::kSeedR}) {
    for (const Scenario& s : scenarios) {
      SCOPED_TRACE(std::string(device::scheme_name(scheme)) + " seed " +
                   std::to_string(s.tb_seed));
      Testbed runner(s.tb_seed, scheme);
      Testbed reference(s.tb_seed, scheme);
      const Outcome got = run_scenario(runner, s);
      const Outcome want = hand_written(reference, s);
      EXPECT_EQ(got.recovered, want.recovered);
      EXPECT_EQ(got.disruption_s, want.disruption_s);
      EXPECT_EQ(got.user_action_required, want.user_action_required);
      EXPECT_EQ(runner.simulator().events_processed(),
                reference.simulator().events_processed());
    }
  }
}

TEST(Scenario, Table1ScenariosKeepTheBenchDerivation) {
  const auto cp = table1_scenarios(20220405, 60, /*control_plane=*/true);
  ASSERT_EQ(cp.size(), 60u);
  sim::Rng mix(20220405);
  std::size_t kept = 0;
  while (kept < cp.size()) {
    const SampledFailure f = sample_table1_failure(mix);
    if (!f.control_plane) continue;
    EXPECT_EQ(cp[kept].klass, Scenario::Klass::kCp);
    EXPECT_EQ(cp[kept].f.cp, f.cp);
    EXPECT_EQ(cp[kept].tb_seed, 20220405u * 131 + kept + 1);
    ++kept;
  }
  const auto mixed = table1_scenarios(7, 40);
  for (std::size_t k = 0; k < mixed.size(); ++k) {
    EXPECT_EQ(mixed[k].klass, mixed[k].f.control_plane
                                  ? Scenario::Klass::kCp
                                  : Scenario::Klass::kDp);
    EXPECT_EQ(mixed[k].tb_seed, 7u * 131 + k + 1);
  }
  const auto delivery = delivery_scenarios(9, 3);
  ASSERT_EQ(delivery.size(), 3u);
  EXPECT_EQ(delivery[2].klass, Scenario::Klass::kDelivery);
  EXPECT_EQ(delivery[2].tb_seed, 9u * 977 + 2);
}

// classify is the benches' rule. perfbench/table4.cc still counts a run
// as user action only when the device notified its user, and as ok only
// when it recovered without a notification. On the Table 4 control-plane
// jobs the two disagree on exactly 3 Legacy runs: #3 timeouts where the
// legacy modem never notified anyone. The split of "user must act" from
// "recovery failed" is expected to change this count on purpose.
TEST(Scenario, ClassifyPinsTheUserActionRuleDisagreement) {
  const auto jobs = table1_scenarios(20220404 + 1, 60, true);
  for (Scheme scheme : {Scheme::kLegacy, Scheme::kSeedU}) {
    SCOPED_TRACE(device::scheme_name(scheme));
    int user_action_only_here = 0;
    int recovered_only_here = 0;
    for (const Scenario& s : jobs) {
      Testbed tb(s.tb_seed, scheme);
      const Outcome out = run_scenario(tb, s);
      const OutcomeClass got = classify(out, s);

      const OutcomeClass bench_rule =
          out.recovered ? OutcomeClass::kRecovered
          : out.user_action_required || s.f.cp == CpFailure::kUnauthorized
              ? OutcomeClass::kUserAction
              : OutcomeClass::kFailed;
      EXPECT_EQ(got, bench_rule) << s.tb_seed;

      const bool perf_user_action =
          out.user_action_required || tb.dev().user_notifications() > 0;
      const bool perf_ok = out.recovered && !perf_user_action;
      if (got == OutcomeClass::kUserAction && !perf_user_action) {
        ++user_action_only_here;
      }
      if (got == OutcomeClass::kRecovered && !perf_ok) ++recovered_only_here;
    }
    EXPECT_EQ(user_action_only_here, scheme == Scheme::kLegacy ? 3 : 0);
    EXPECT_EQ(recovered_only_here, 0);
  }
}

}  // namespace
}  // namespace seed::testbed

// Multi-UE isolation: N devices share one core, one SubscriberDb, one
// learner — but security contexts, assistance downlinks, DIAG reports,
// and fault state must never cross SUPIs, while the online-learning
// model is *supposed* to cross (one subscriber's confirmed diagnosis
// warms the next's).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "obs/registry.h"
#include "obs/trace.h"
#include "testbed/multi_testbed.h"

namespace seed::testbed {
namespace {

MultiOptions plain_options(std::size_t n) {
  MultiOptions o;
  o.ue_count = n;
  o.scheme = Scheme::kSeedU;
  o.diag_cache = true;
  o.outdated_dnn_population = false;  // clean attach for isolation tests
  return o;
}

bool run_until_healthy(MultiTestbed& mt, std::size_t i,
                       sim::Duration timeout = sim::minutes(20)) {
  auto& sim = mt.simulator();
  return sim.poll_until([&] { return mt.dev(i).traffic().path_healthy(); },
                        sim::ms(200), sim.now() + timeout);
}

TEST(MultiUe, FleetAttachesWithDistinctIdentities) {
  MultiTestbed mt(101, plain_options(3));
  mt.bring_up_all();
  EXPECT_EQ(mt.core().ue_count(), 3u);
  EXPECT_EQ(mt.healthy_count(), 3u);
  EXPECT_NE(mt.core().ue_supi(0), mt.core().ue_supi(1));
  EXPECT_NE(mt.core().ue_supi(1), mt.core().ue_supi(2));
  // Distinct in-SIM keys (the §4.5 channel key) per subscriber.
  const auto* a = mt.db().find(MultiTestbed::supi_of(0));
  const auto* b = mt.db().find(MultiTestbed::supi_of(1));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->seed_key, b->seed_key);
  // Per-UE addressing: distinct /24s per UE.
  const auto* s0 = mt.core().session(0, modem::Modem::kDataPsi);
  const auto* s1 = mt.core().session(1, modem::Modem::kDataPsi);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_NE(s0->ue_addr, s1->ue_addr);
}

// The bring-up wait must not rescan the fleet each poll step: health
// work is pinned as a count (every path_healthy() evaluation during
// bring_up_all, the wait's and the devices' own probes), not a time.
// Rescanning at each one-second step of the 40 s power-on stagger made
// about 42 checks per UE; the resuming wait makes about two. (A fleet
// that recovers from #33 at bring-up adds the applets' recovery probes,
// about two more per UE.)
TEST(MultiUe, BringUpChecksHealthAFewTimesPerUe) {
  constexpr std::size_t kUes = 2000;
  MultiTestbed mt(111, plain_options(kUes));
  mt.bring_up_all();
  std::uint64_t checks = 0;
  for (std::size_t i = 0; i < kUes; ++i) {
    checks += mt.dev(i).traffic().health_checks();
  }
  EXPECT_LE(checks, 3 * kUes) << checks;
  EXPECT_EQ(mt.healthy_count(), kUes);
}

// The resuming wait must answer exactly as healthy_count() == N would:
// a UE that was healthy when the wait passed it and breaks later holds
// the bring-up until it heals.
TEST(MultiUe, BringUpWaitsForAUeThatBrokeAfterItWasPassed) {
  MultiOptions opts = plain_options(400);  // 8 s power-on stagger
  opts.scheme = Scheme::kLegacy;           // nothing repairs the policy
  MultiTestbed mt(112, opts);
  auto& sim = mt.simulator();
  corenet::TrafficPolicy dns_blocked;
  dns_blocked.dns_blocked = true;
  bool healthy_before_break = false;
  sim.schedule_after(sim::seconds(5), [&] {
    healthy_before_break = mt.dev(0).traffic().path_healthy();
    mt.core().set_effective_policy(0, dns_blocked);
  });
  sim.schedule_after(sim::seconds(20), [&] {
    mt.core().set_effective_policy(0, corenet::TrafficPolicy{});
  });
  mt.bring_up_all();
  EXPECT_TRUE(healthy_before_break);
  EXPECT_GE(sim.now(), sim::kTimeZero + sim::seconds(22));
  EXPECT_EQ(mt.healthy_count(), 400u);
}

TEST(MultiUe, EmptyFleetBringsUpAndRunsCongestionWaves) {
  MultiTestbed mt(100, plain_options(0));
  mt.bring_up_all();
  EXPECT_EQ(mt.ue_count(), 0u);
  EXPECT_EQ(mt.healthy_count(), 0u);
  mt.start_rolling_congestion(sim::seconds(30), sim::seconds(12), 0.05);
  const auto events = mt.simulator().events_processed();
  mt.simulator().run_for(sim::seconds(31));
  EXPECT_GT(mt.simulator().events_processed(), events);
}

TEST(MultiUe, FaultsNeverLeakAcrossUes) {
  MultiTestbed mt(202, plain_options(2));
  mt.bring_up_all();
  const auto rejects_1_before = mt.core().ue_stats(1).rejects_sent;

  // UE 0's identity desync must not perturb UE 1's NAS outcomes: UE 1
  // re-attaches cleanly while UE 0 is mid-recovery.
  mt.inject_cp(0, CpFailure::kIdentityDesync);
  mt.simulator().run_for(sim::seconds(2));
  mt.dev(1).modem().trigger_reattach();
  ASSERT_TRUE(run_until_healthy(mt, 1, sim::minutes(5)));
  EXPECT_EQ(mt.core().ue_stats(1).rejects_sent, rejects_1_before);

  ASSERT_TRUE(run_until_healthy(mt, 0));
  EXPECT_GT(mt.core().ue_stats(0).rejects_sent, 0u);
  EXPECT_TRUE(mt.core().device_registered(0));
  EXPECT_TRUE(mt.core().device_registered(1));
}

TEST(MultiUe, AssistanceAndReportsNeverCrossSupis) {
  MultiTestbed mt(303, plain_options(2));
  mt.bring_up_all();
  const auto dl0_before = mt.core().ue_stats(0).diag_downlinks;
  const auto dl1_before = mt.core().ue_stats(1).diag_downlinks;

  // A config-related failure on UE 0: assistance (AUTN fragments under
  // UE 0's seed_key) flows to UE 0 only.
  mt.inject_dp(0, DpFailure::kOutdatedDnn);
  ASSERT_TRUE(run_until_healthy(mt, 0));

  EXPECT_GT(mt.core().ue_stats(0).diag_downlinks, dl0_before);
  EXPECT_EQ(mt.core().ue_stats(1).diag_downlinks, dl1_before);
  EXPECT_GT(mt.dev(0).applet().stats().diags_received, 0u);
  EXPECT_EQ(mt.dev(1).applet().stats().diags_received, 0u);
  // UE 1's subscriber record is untouched by UE 0's migration.
  const auto* b = mt.db().find(MultiTestbed::supi_of(1));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->subscribed_dnns.front(), "internet");
}

TEST(MultiUe, DiagCacheWarmsAcrossSubscribers) {
  // Same failure shape on two different SUPIs: the second subscriber's
  // diagnosis is served from the entry the first one populated.
  MultiOptions opts = plain_options(2);
  opts.outdated_dnn_population = true;  // both UEs face #33 at bring-up
  MultiTestbed mt(404, opts);
  mt.bring_up_all();
  const core::DiagnosisCache* cache = mt.core().diag_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->stats().hits, 0u);  // cross-SUPI warm hit at bring-up
  EXPECT_GT(cache->stats().misses, 0u);
}

TEST(MultiUe, CollabDownlinkTimesItsOwnUesTransfer) {
  // Every UE faces #33 at bring-up and power-ons are 20 ms apart, so the
  // assistance downlinks overlap. Each kCollabDownlink's prep + trans
  // must span exactly from its own UE's infra diagnosis to delivery.
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable(true);
  {
    MultiOptions opts = plain_options(16);
    opts.outdated_dnn_population = true;
    MultiTestbed mt(909, opts);
    mt.bring_up_all();
  }
  tracer.enable(false);
  std::map<std::uint32_t, std::int64_t> diagnosed_at;
  std::set<std::uint32_t> ues_with_downlink;
  for (const obs::Event& e : tracer.events()) {
    if (e.origin == obs::Origin::kInfra &&
        (e.kind == obs::EventKind::kCacheLookup ||
         e.kind == obs::EventKind::kDiagnosisMade)) {
      diagnosed_at[e.ue] = e.at_us;
    }
    if (e.kind != obs::EventKind::kCollabDownlink) continue;
    ASSERT_TRUE(diagnosed_at.contains(e.ue)) << "ue " << e.ue;
    ues_with_downlink.insert(e.ue);
    EXPECT_NEAR(e.prep_ms + e.trans_ms,
                static_cast<double>(e.at_us - diagnosed_at[e.ue]) / 1e3,
                1e-3)
        << "ue " << e.ue << " at " << e.at_us;
  }
  tracer.clear();
  EXPECT_EQ(ues_with_downlink.size(), 16u);
}

TEST(MultiUe, OnlineLearningAggregatesAcrossUes) {
  MultiTestbed mt(505, plain_options(2));
  mt.bring_up_all();
  ASSERT_EQ(mt.learner().record_count(MultiTestbed::kCustomDpCode), 0u);

  // UE 0 hits an operator-custom failure with unknown handling, recovers
  // by trial, and its SIM uploads the (cause -> action) record.
  mt.inject_dp(0, DpFailure::kCustomUnknown);
  ASSERT_TRUE(run_until_healthy(mt, 0));
  mt.simulator().run_for(sim::seconds(30));  // record upload OTA
  const auto crowd = mt.learner().record_count(MultiTestbed::kCustomDpCode);
  EXPECT_GT(crowd, 0u);

  // UE 1 hitting the same cause benefits from UE 0's confirmed diagnosis
  // (Algorithm 1's crowd-sourcing is the cross-UE aggregation path).
  mt.inject_dp(1, DpFailure::kCustomUnknown);
  ASSERT_TRUE(run_until_healthy(mt, 1));
  mt.simulator().run_for(sim::seconds(30));
  EXPECT_GE(mt.learner().record_count(MultiTestbed::kCustomDpCode), crowd);
}

TEST(MultiUe, DeliveryFailuresProduceUplinkReports) {
  // The storm's SEED-R slice must exercise the DIAG-DNN uplink: a
  // delivery failure on a SEED-R UE ends in a parsed report at the core
  // (this is the regression guard for BENCH_city.json's diag_reports_rx,
  // which once sat at 0 because every storm UE was SEED-U and no
  // delivery failures were ever injected).
  MultiOptions opts = plain_options(8);
  opts.seed_r_every = 4;  // UEs 0 and 4 run SEED-R
  MultiTestbed mt(707, opts);
  mt.bring_up_all();
  EXPECT_EQ(mt.scheme_of(0), device::Scheme::kSeedR);
  EXPECT_EQ(mt.scheme_of(1), device::Scheme::kSeedU);
  ASSERT_EQ(mt.core().stats().diag_reports_rx, 0u);

  mt.inject_delivery(0, DeliveryFailure::kTcpBlock);
  mt.simulator().run_for(sim::minutes(5));
  EXPECT_GT(mt.core().stats().diag_reports_rx, 0u);
  EXPECT_TRUE(run_until_healthy(mt, 0));

  // SEED-U UEs recover from stale gateway state locally — no uplink
  // report, but a healthy path.
  const auto reports_before = mt.core().stats().diag_reports_rx;
  mt.inject_delivery(1, DeliveryFailure::kStaleSession);
  ASSERT_TRUE(run_until_healthy(mt, 1));
  EXPECT_EQ(mt.core().stats().diag_reports_rx, reports_before);
}

TEST(MultiUe, TraceSpansCarryPerUeTags) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable(true);
  {
    MultiTestbed mt(606, plain_options(2));
    mt.bring_up_all();
    mt.inject_cp(1, CpFailure::kQuickTransient);
    run_until_healthy(mt, 1, sim::minutes(5));
    std::ostringstream out;
    tracer.export_jsonl(out);
    // UE index 1 runs under tag 2; its failure cascade is labeled.
    EXPECT_NE(out.str().find("\"ue\":2"), std::string::npos);
  }
  tracer.enable(false);
  tracer.clear();
}

// Every count the stack keeps lives once, in a typed stats struct or a
// trace event kind: a storm with the metrics registry switched on leaves
// it empty, while the typed twins of the old registry series count.
TEST(MultiUe, StormLeavesTheRegistryEmpty) {
  obs::Registry& reg = obs::Registry::instance();
  reg.clear();
  reg.enable(true);
  std::uint64_t diags = 0;
  std::uint64_t actions = 0;
  std::uint64_t rejects = 0;
  {
    MultiOptions opts;
    opts.ue_count = 16;
    MultiTestbed mt(808, opts);
    mt.bring_up_all();
    mt.start_rolling_congestion(sim::seconds(30), sim::seconds(12), 0.25);
    for (corenet::UeId ue = 0; ue < 16; ++ue) {
      mt.inject_sampled(ue);
      mt.simulator().run_for(sim::seconds(5));
    }
    mt.simulator().run_for(sim::minutes(2));
    for (std::size_t i = 0; i < mt.ue_count(); ++i) {
      diags += mt.dev(i).applet().stats().diags_received;
      actions += mt.dev(i).applet().stats().actions_run;
    }
    rejects = mt.core().stats().rejects_sent;
  }
  std::ostringstream json;
  reg.dump_json(json);
  reg.enable(false);
  reg.clear();
  EXPECT_EQ(json.str(), "{\"counters\":{}}\n");
  EXPECT_GT(rejects, 0u);
  EXPECT_GT(diags, 0u);
  EXPECT_GT(actions, 0u);
}

}  // namespace
}  // namespace seed::testbed

// Causal lifecycle ids: record_now links every in-span event to the
// event that caused it (seq/parent), so a failure's detect -> diagnose ->
// collab -> reset -> recovery chain reconstructs as one tree. These
// tests pin the parenting rules, the tree reconstruction, the absorb
// remapping, and the JSONL round-trip of the new fields.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/trace.h"
#include "simcore/time.h"

namespace seed::obs {
namespace {

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer& t = Tracer::instance();
    t.enable(false);
    t.clear();
    t.reset_span_counter();
    t.set_clock(&now_);
    t.enable(true);
  }
  void TearDown() override {
    Tracer& t = Tracer::instance();
    t.enable(false);
    t.clear();
    t.reset_span_counter();
    t.set_clock(nullptr);
  }
  void advance(sim::Duration d) { now_ += d; }
  const std::vector<Event>& events() const {
    return Tracer::instance().events();
  }

  sim::TimePoint now_{};
};

TEST_F(LifecycleTest, HappyPathChainsDetectDiagnoseResetRecover) {
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 7});
  advance(sim::ms(5));
  emit(EventKind::kFailureDetected, Origin::kModem, {.plane = 0, .cause = 7});
  advance(sim::ms(5));
  emit(EventKind::kDiagnosisMade, Origin::kSim,
       {.plane = 0, .cause = 7, .action = 2});
  advance(sim::ms(5));
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 2});
  advance(sim::ms(20));
  emit(EventKind::kResetCompleted, Origin::kModem, {.action = 2, .ok = true});
  advance(sim::ms(5));
  emit(EventKind::kRecovered, Origin::kTestbed);

  const auto& ev = events();
  ASSERT_EQ(ev.size(), 6u);
  // seq is 1-based in emit order; each event hangs off its cause.
  EXPECT_EQ(ev[0].seq, 1u);
  EXPECT_EQ(ev[0].parent, 0u);            // injection roots the tree
  EXPECT_EQ(ev[1].parent, ev[0].seq);     // detected <- injected
  EXPECT_EQ(ev[2].parent, ev[1].seq);     // diagnosis <- detected
  EXPECT_EQ(ev[3].parent, ev[2].seq);     // reset issued <- diagnosis
  EXPECT_EQ(ev[4].parent, ev[3].seq);     // completed <- issued
  EXPECT_EQ(ev[5].parent, ev[4].seq);     // recovered <- completed
  for (const Event& e : ev) EXPECT_EQ(e.span, 1u);
}

TEST_F(LifecycleTest, CollabTransfersHangOffTheirVantagePoint) {
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 9});
  // infra-side Fig. 8 verdict
  emit(EventKind::kDiagnosisMade, Origin::kInfra, {.plane = 0, .cause = 9});
  // AUTN downlink <- infra diagnosis
  emit(EventKind::kCollabDownlink, Origin::kInfra,
       {.prep_ms = 1.0, .trans_ms = 2.0});
  emit(EventKind::kFailureDetected, Origin::kModem, {.plane = 0, .cause = 9});
  // DIAG-DNN uplink <- detection
  emit(EventKind::kCollabUplink, Origin::kSim,
       {.prep_ms = 1.0, .trans_ms = 2.0});
  emit(EventKind::kDiagnosisMade, Origin::kSim,
       {.plane = 0, .cause = 9, .action = 1});

  const auto& ev = events();
  ASSERT_EQ(ev.size(), 6u);
  EXPECT_EQ(ev[1].parent, ev[0].seq);  // infra diagnosis <- injected
  EXPECT_EQ(ev[2].parent, ev[1].seq);  // downlink <- infra diagnosis
  EXPECT_EQ(ev[3].parent, ev[0].seq);  // detection <- injected
  EXPECT_EQ(ev[4].parent, ev[3].seq);  // uplink <- detection
  EXPECT_EQ(ev[5].parent, ev[3].seq);  // SIM diagnosis <- detection
}

TEST_F(LifecycleTest, RetryAndEscalationExtendTheChain) {
  emit(EventKind::kFailureInjected, Origin::kTestbed,
       {.plane = 1, .cause = 50});
  emit(EventKind::kFailureDetected, Origin::kOs, {.plane = 1, .cause = 50});
  emit(EventKind::kDiagnosisMade, Origin::kSim,
       {.plane = 1, .cause = 50, .action = 6});
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 6});  // B3
  emit(EventKind::kResetCompleted, Origin::kModem, {.action = 6, .ok = false});
  emit(EventKind::kActionRetry, Origin::kSim, {.plane = 1, .action = 6});
  // retry attempt
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 6});
  emit(EventKind::kResetCompleted, Origin::kModem, {.action = 6, .ok = false});
  emit(EventKind::kTierEscalated, Origin::kSim, {.action = 5});  // move to B2
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 5});
  emit(EventKind::kResetCompleted, Origin::kModem, {.action = 5, .ok = true});
  emit(EventKind::kRecovered, Origin::kTestbed);

  const auto& ev = events();
  ASSERT_EQ(ev.size(), 12u);
  EXPECT_EQ(ev[4].parent, ev[3].seq);    // fail <- first issue
  EXPECT_EQ(ev[5].parent, ev[3].seq);    // retry <- the issue it retries
  EXPECT_EQ(ev[6].parent, ev[5].seq);    // re-issue <- retry decision
  EXPECT_EQ(ev[8].parent, ev[7].seq);    // escalation <- last completion
  EXPECT_EQ(ev[9].parent, ev[8].seq);    // B2 issue <- escalation
  EXPECT_EQ(ev[11].parent, ev[10].seq);  // recovered <- B2 completion
}

TEST_F(LifecycleTest, BuildLifecycleReconstructsOneTreePerFailure) {
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 7});
  advance(sim::ms(1));
  emit(EventKind::kFailureDetected, Origin::kModem, {.plane = 0, .cause = 7});
  advance(sim::ms(1));
  emit(EventKind::kDiagnosisMade, Origin::kSim,
       {.plane = 0, .cause = 7, .action = 1});
  advance(sim::ms(1));
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 1});
  advance(sim::ms(1));
  emit(EventKind::kResetCompleted, Origin::kModem, {.action = 1, .ok = true});
  advance(sim::ms(1));
  emit(EventKind::kRecovered, Origin::kTestbed);
  Tracer::instance().end_span();
  advance(sim::ms(10));
  // a second, independent failure
  emit(EventKind::kFailureInjected, Origin::kTestbed,
       {.plane = 1, .cause = 50});
  advance(sim::ms(1));
  emit(EventKind::kFailureDetected, Origin::kOs, {.plane = 1, .cause = 50});

  const auto trees = Tracer::build_lifecycle(events());
  ASSERT_EQ(trees.size(), 2u);
  for (const LifecycleTree& t : trees) {
    ASSERT_EQ(t.roots.size(), 1u) << "span " << t.span;
    EXPECT_EQ(t.nodes[t.roots[0]].event.kind, EventKind::kFailureInjected);
  }
  EXPECT_EQ(trees[0].nodes.size(), 6u);
  EXPECT_EQ(trees[1].nodes.size(), 2u);
  // Stage latencies ride along with the tree.
  ASSERT_TRUE(trees[0].summary.recover_ms().has_value());
  EXPECT_DOUBLE_EQ(*trees[0].summary.recover_ms(), 5.0);
}

TEST_F(LifecycleTest, LogEventsAreExcludedFromTrees) {
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 7});
  Event log;
  log.kind = EventKind::kLog;
  log.detail = "noise";
  Tracer::instance().record_now(std::move(log));
  emit(EventKind::kFailureDetected, Origin::kModem, {.plane = 0, .cause = 7});

  const auto trees = Tracer::build_lifecycle(events());
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].nodes.size(), 2u);
  ASSERT_EQ(trees[0].roots.size(), 1u);
}

TEST_F(LifecycleTest, PreLifecycleTracesDegradeToFlatTrees) {
  // Traces recorded before seq/parent existed import with zeroes; every
  // event becomes a root instead of disappearing.
  std::vector<Event> old(3);
  for (std::size_t i = 0; i < old.size(); ++i) {
    old[i].span = 4;
    old[i].at_us = static_cast<std::int64_t>(i) * 1000;
  }
  old[0].kind = EventKind::kFailureInjected;
  old[1].kind = EventKind::kFailureDetected;
  old[2].kind = EventKind::kRecovered;
  const auto trees = Tracer::build_lifecycle(old);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].roots.size(), 3u);
}

TEST_F(LifecycleTest, AbsorbRemapsSeqAndParentLinks) {
  // Two shard captures with colliding seq ids: absorb must renumber
  // both streams and keep each capture's parent links intact.
  std::vector<Event> shard_a(2), shard_b(2);
  shard_a[0].span = 1;
  shard_a[0].kind = EventKind::kFailureInjected;
  shard_a[0].seq = 1;
  shard_a[1].span = 1;
  shard_a[1].kind = EventKind::kFailureDetected;
  shard_a[1].seq = 2;
  shard_a[1].parent = 1;
  shard_b = shard_a;  // identical ids from another shard

  Tracer& t = Tracer::instance();
  t.enable(false);
  t.clear();
  t.reset_span_counter();
  t.absorb(shard_a);
  t.absorb(shard_b);
  const auto& ev = t.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].seq, 1u);
  EXPECT_EQ(ev[1].parent, ev[0].seq);
  EXPECT_EQ(ev[2].seq, 3u);
  EXPECT_EQ(ev[3].parent, ev[2].seq);  // remapped, not the raw 1
  EXPECT_NE(ev[2].span, ev[0].span);   // spans renumbered too

  // A parent pointing outside the absorbed batch cannot resolve: cut.
  std::vector<Event> dangling(1);
  dangling[0].span = 9;
  dangling[0].kind = EventKind::kRecovered;
  dangling[0].seq = 5;
  dangling[0].parent = 99;
  t.absorb(dangling);
  EXPECT_EQ(t.events().back().parent, 0u);
}

TEST_F(LifecycleTest, SeqAndParentRoundTripThroughJsonl) {
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 7});
  advance(sim::ms(2));
  emit(EventKind::kFailureDetected, Origin::kModem, {.plane = 0, .cause = 7});
  advance(sim::ms(2));
  emit(EventKind::kRecovered, Origin::kTestbed);

  std::stringstream buf;
  Tracer::instance().export_jsonl(buf);
  const std::vector<Event> back = Tracer::import_jsonl(buf);
  EXPECT_EQ(back, events());
}

TEST_F(LifecycleTest, PrintLifecycleRendersTreeWithStages) {
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 7});
  advance(sim::ms(3));
  emit(EventKind::kFailureDetected, Origin::kModem, {.plane = 0, .cause = 7});
  advance(sim::ms(4));
  emit(EventKind::kRecovered, Origin::kTestbed);
  std::ostringstream os;
  Tracer::print_lifecycle(os, Tracer::build_lifecycle(events()));
  const std::string out = os.str();
  EXPECT_NE(out.find("failure_injected"), std::string::npos);
  EXPECT_NE(out.find("failure_detected"), std::string::npos);
  EXPECT_NE(out.find("detect=3.000ms"), std::string::npos);
  EXPECT_NE(out.find("recover=7.000ms"), std::string::npos);
}

}  // namespace
}  // namespace seed::obs

// Diagnosis-accuracy harness tests (ctest label: accuracy).
//
// Three layers:
//  * scorer unit tests over synthetic event streams — the joining rules
//    (first verdict wins, undiagnosed -> none column, unattributed
//    verdicts never scored, curve aggregation by learner depth);
//  * label-propagation tests — the 3-arg TagScope seeds the label of the
//    simulator's context cell and schedule_at carries it through nested
//    timer chains into every trace event the cascade records;
//  * per-family purity packs — a single-cause-family labeled pack on the
//    tree-only path (learner detached) scores EXACTLY 100% for every
//    family the Fig. 8 tree can name, and the delivery-type-mismatch
//    pack is pinned to 0% (the report-validation path cannot see the
//    mismatched block and claims a stale session);
//  * convergence band — the learner curve of a custom-cause run stays
//    inside a fixed tolerance band of the pinned quartiles, and a
//    deliberately poisoned learner seed (crowd records voting for an
//    action that cannot cure the fault) falls OUT of the band.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "eval/accuracy.h"
#include "obs/trace.h"
#include "seed/online_learning.h"
#include "seed/verdict.h"
#include "simcore/simulator.h"
#include "testbed/labeled_scenarios.h"
#include "testbed/multi_testbed.h"
#include "testbed/testbed.h"

namespace seed {
namespace {

using core::CauseFamily;
using core::DiagnosisVerdict;
using core::VerdictKind;
using core::VerdictSource;
using eval::AccuracyReport;

std::size_t idx(CauseFamily f) { return static_cast<std::size_t>(f); }

class ScopedTracer {
 public:
  ScopedTracer() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().reset_span_counter();
    obs::Tracer::instance().enable(true);
  }
  ~ScopedTracer() {
    obs::Tracer::instance().enable(false);
    obs::Tracer::instance().clear();
  }
  std::vector<obs::Event> events() const {
    return obs::Tracer::instance().events();
  }
};

obs::Event truth_event(CauseFamily family, std::uint32_t label) {
  obs::Event e;
  e.kind = obs::EventKind::kGroundTruthLabel;
  e.cause = static_cast<std::uint8_t>(family);
  e.label = label;
  return e;
}

obs::Event verdict_event(std::uint32_t label, VerdictKind kind,
                         std::uint8_t cause = 0, std::uint8_t action = 0,
                         std::uint8_t plane = 0, std::uint16_t wait_s = 0,
                         std::uint32_t records = 0) {
  DiagnosisVerdict v;
  v.plane = plane;
  v.cause = cause;
  v.kind = kind;
  v.source = VerdictSource::kTree;
  v.action = action;
  v.wait_s = wait_s;
  v.learner_records = records;
  obs::Event e;
  e.kind = obs::EventKind::kDiagnosisVerdict;
  e.plane = v.plane;
  e.cause = v.cause;
  e.action = v.action;
  e.trans_ms = static_cast<double>(v.wait_s);
  e.prep_ms = static_cast<double>(v.learner_records);
  e.label = label;
  e.detail = std::string(core::verdict_kind_token(kind)) + "/" +
             std::string(core::verdict_source_token(v.source));
  return e;
}

// ------------------------------------------------------- label packing

TEST(LabelPacking, RoundTrips) {
  const std::uint32_t label =
      core::make_label(CauseFamily::kStaleDnn, 0x00123456);
  EXPECT_EQ(core::family_of_label(label), CauseFamily::kStaleDnn);
  EXPECT_EQ(core::ordinal_of_label(label), 0x00123456u);
  // Shard ordinal bases keep ranges disjoint: shard 3's first ordinal.
  const std::uint32_t shard3 =
      core::make_label(CauseFamily::kStaleDnn, 3 * 4096 + 1);
  EXPECT_NE(label, shard3);
  EXPECT_EQ(core::family_of_label(shard3), CauseFamily::kStaleDnn);
}

TEST(LabelPacking, FamilyNamesRoundTrip) {
  for (std::size_t f = 0; f < core::kCauseFamilyCount; ++f) {
    const auto family = static_cast<CauseFamily>(f);
    const auto parsed = core::family_from(core::family_name(family));
    ASSERT_TRUE(parsed.has_value()) << core::family_name(family);
    EXPECT_EQ(*parsed, family);
  }
  EXPECT_FALSE(core::family_from("no_such_family").has_value());
}

// -------------------------------------------------- label propagation

TEST(LabelPropagation, TagScopeSeedsScheduledCascades) {
  sim::Simulator sim;
  ScopedTracer tracer;
  obs::Tracer::instance().set_clock(&sim.now_ref());
  obs::Tracer::instance().set_context_source(&sim.context());

  const std::uint32_t label = core::make_label(CauseFamily::kStaleDnn, 7);
  {
    sim::Simulator::TagScope scope(sim, /*ue=*/5, label);
    sim.schedule_after(sim::ms(10), [&sim] {
      core::emit_verdict({});  // depth 1: label stamped from the cell
      sim.schedule_after(sim::ms(10), [] {
        core::emit_verdict({});  // depth 2: still the injection's label
      });
    });
  }
  // Outside the scope the cell is empty again: no label leaks.
  core::emit_verdict({});
  sim.run_for(sim::ms(50));
  core::emit_verdict({});  // after the cascade drained: empty again

  const std::vector<obs::Event> events = tracer.events();
  obs::Tracer::instance().set_clock(nullptr);
  obs::Tracer::instance().set_context_source(nullptr);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].label, 0u);
  EXPECT_EQ(events[1].label, label);
  EXPECT_EQ(events[1].ue, 5u);
  EXPECT_EQ(events[2].label, label);
  EXPECT_EQ(events[2].ue, 5u);
  EXPECT_EQ(events[3].label, 0u);
}

TEST(LabelPropagation, NestedTagOnlyScopePreservesOuterLabel) {
  sim::Simulator sim;
  const std::uint32_t label = core::make_label(CauseFamily::kPolicyBlock, 9);
  sim::Simulator::TagScope outer(sim, 1, label);
  {
    // The 2-arg form (what MultiTestbed's injection helpers open) swaps
    // the tag but must keep the injection label.
    sim::Simulator::TagScope inner(sim, 2);
    EXPECT_EQ(sim.context().tag, 2u);
    EXPECT_EQ(sim.context().label, label);
  }
  EXPECT_EQ(sim.context().tag, 1u);
  EXPECT_EQ(sim.context().label, label);
}

// ------------------------------------------------------- scorer rules

TEST(Scorer, FirstVerdictWinsLaterOnesIgnored) {
  const std::uint32_t label = core::make_label(CauseFamily::kStaleDnn, 1);
  std::vector<obs::Event> events;
  events.push_back(truth_event(CauseFamily::kStaleDnn, label));
  events.push_back(
      verdict_event(label, VerdictKind::kCauseWithConfig, /*cause=*/33));
  // A later re-reject replays a *different* (wrong) verdict: ignored.
  events.push_back(
      verdict_event(label, VerdictKind::kStandardCause, /*cause=*/3));

  const AccuracyReport r = eval::score(events);
  EXPECT_EQ(r.labels, 1u);
  EXPECT_EQ(r.diagnosed, 1u);
  EXPECT_EQ(r.correct, 1u);
  EXPECT_EQ(r.verdicts_total, 2u);
  EXPECT_DOUBLE_EQ(r.recall(CauseFamily::kStaleDnn), 1.0);
  EXPECT_DOUBLE_EQ(r.precision(CauseFamily::kStaleDnn), 1.0);
}

TEST(Scorer, UndiagnosedLandsInNoneColumnAndUnattributedIsCounted) {
  const std::uint32_t l1 = core::make_label(CauseFamily::kPolicyBlock, 1);
  const std::uint32_t l2 = core::make_label(CauseFamily::kStaleSession, 2);
  std::vector<obs::Event> events;
  events.push_back(truth_event(CauseFamily::kPolicyBlock, l1));
  events.push_back(truth_event(CauseFamily::kStaleSession, l2));
  // l2 diagnosed; l1 never gets a verdict.
  events.push_back(verdict_event(l2, VerdictKind::kStaleReset, 0, 6, 1));
  // An unlabeled verdict and one with a label nobody injected.
  events.push_back(verdict_event(0, VerdictKind::kStandardCause, 9));
  events.push_back(
      verdict_event(core::make_label(CauseFamily::kStaleDnn, 999),
                    VerdictKind::kStandardCause, 33));

  const AccuracyReport r = eval::score(events);
  EXPECT_EQ(r.labels, 2u);
  EXPECT_EQ(r.diagnosed, 1u);
  EXPECT_EQ(r.correct, 1u);
  EXPECT_EQ(r.verdicts_unattributed, 2u);
  EXPECT_EQ(r.families[idx(CauseFamily::kPolicyBlock)]
                .predicted[idx(CauseFamily::kNone)],
            1u);
  EXPECT_DOUBLE_EQ(r.recall(CauseFamily::kPolicyBlock), 0.0);
}

TEST(Scorer, MisdiagnosisSplitsPrecisionAndRecall) {
  // Truth: one stale_session, one delivery mismatch; both predicted
  // stale_session -> stale_session precision 1/2, mismatch recall 0.
  const std::uint32_t l1 = core::make_label(CauseFamily::kStaleSession, 1);
  const std::uint32_t l2 =
      core::make_label(CauseFamily::kDeliveryTypeMismatch, 2);
  std::vector<obs::Event> events;
  events.push_back(truth_event(CauseFamily::kStaleSession, l1));
  events.push_back(truth_event(CauseFamily::kDeliveryTypeMismatch, l2));
  events.push_back(verdict_event(l1, VerdictKind::kStaleReset, 0, 6, 1));
  events.push_back(verdict_event(l2, VerdictKind::kStaleReset, 0, 6, 1));

  const AccuracyReport r = eval::score(events);
  EXPECT_DOUBLE_EQ(r.precision(CauseFamily::kStaleSession), 0.5);
  EXPECT_DOUBLE_EQ(r.recall(CauseFamily::kStaleSession), 1.0);
  EXPECT_DOUBLE_EQ(r.recall(CauseFamily::kDeliveryTypeMismatch), 0.0);
  EXPECT_EQ(r.families[idx(CauseFamily::kDeliveryTypeMismatch)]
                .predicted[idx(CauseFamily::kStaleSession)],
            1u);
}

TEST(Scorer, CongestionSplitsOnAdvertisedWait) {
  DiagnosisVerdict v;
  v.kind = VerdictKind::kCongestionWarning;
  v.wait_s = 15;
  EXPECT_EQ(core::predicted_family(v), CauseFamily::kTransientCongestion);
  v.wait_s = 120;
  EXPECT_EQ(core::predicted_family(v), CauseFamily::kPersistentCongestion);
}

TEST(Scorer, CurveAggregatesByLearnerDepthNotStreamOrder) {
  // Two shard-interleaved custom-cause streams: depths arrive out of
  // order, but the curve keys on depth so any interleave scores alike.
  std::vector<obs::Event> events;
  std::uint32_t ordinal = 0;
  const auto custom = [&](std::uint32_t depth, bool cures) {
    const std::uint32_t label =
        core::make_label(CauseFamily::kCustomUnknown, ++ordinal);
    events.push_back(truth_event(CauseFamily::kCustomUnknown, label));
    events.push_back(verdict_event(
        label, depth == 0 ? VerdictKind::kCustomNoAction
                          : VerdictKind::kSuggestedAction,
        0xc1, cures ? 1 : 2, /*plane=*/0, 0, depth));
  };
  custom(2, true);   // "shard B" decisions land first in the stream
  custom(0, false);
  custom(1, true);
  custom(2, false);

  const AccuracyReport r = eval::score(events);
  ASSERT_EQ(r.curve.size(), 3u);
  EXPECT_EQ(r.curve[0].records, 0u);
  EXPECT_EQ(r.curve[1].records, 1u);
  EXPECT_EQ(r.curve[2].records, 2u);
  EXPECT_EQ(r.curve[2].decisions, 2u);
  EXPECT_EQ(r.curve[2].cum_decisions, 4u);
  EXPECT_EQ(r.curve[2].cum_correct, 2u);
  EXPECT_DOUBLE_EQ(r.curve_final_accuracy(), 0.5);
}

TEST(Scorer, ActionCuresCustomMatrix) {
  for (const std::uint8_t plane : {0, 1}) {
    EXPECT_TRUE(eval::action_cures_custom(plane, 1));   // A1
    EXPECT_TRUE(eval::action_cures_custom(plane, 4));   // B1
    EXPECT_TRUE(eval::action_cures_custom(plane, 5));   // B2
    EXPECT_FALSE(eval::action_cures_custom(plane, 2));  // A2 config only
    EXPECT_FALSE(eval::action_cures_custom(plane, 0));  // no action
    EXPECT_FALSE(eval::action_cures_custom(plane, 7));  // notify user
  }
  EXPECT_FALSE(eval::action_cures_custom(0, 3));  // A3 is d-plane only
  EXPECT_TRUE(eval::action_cures_custom(1, 3));
  EXPECT_FALSE(eval::action_cures_custom(0, 6));  // B3 is d-plane only
  EXPECT_TRUE(eval::action_cures_custom(1, 6));
}

// -------------------------------------------- per-family purity packs

/// Runs a single-family pack (one injection) on a tree-only fleet
/// (learner detached) and returns the scored report.
AccuracyReport run_purity_pack(CauseFamily family) {
  ScopedTracer tracer;
  testbed::MultiOptions o;
  o.ue_count = 1;
  o.scheme = testbed::Scheme::kSeedU;
  o.seed_r_every = 1;  // SEED-R: delivery reports travel the uplink
  o.diag_cache = true;
  testbed::MultiTestbed bed(4242, o);
  bed.core().set_learner(nullptr);  // tree-only path
  bed.bring_up_all();
  // Clear the §4.4.2 conflict window: the bring-up assist counts as
  // cause-based handling, and a delivery report filed within 5 s of it
  // is suppressed rather than diagnosed.
  bed.simulator().run_for(sim::seconds(10));
  testbed::LabeledScenarioGen gen(bed);
  testbed::LabeledScenarioGen::PackOptions pack;
  pack.families = {family};
  pack.rounds = 1;
  gen.run_pack(pack);
  return eval::score(tracer.events());
}

/// Satellite invariant: every family the Fig. 8 tree / report handler /
/// passive branch can actually name scores EXACTLY 100% on its own
/// single-family pack — precision and recall both pinned to 1.
TEST(PurityPacks, EveryNameableFamilyScoresExactly100PercentTreeOnly) {
  const CauseFamily nameable[] = {
      CauseFamily::kIdentityDesync,     CauseFamily::kOutdatedPlmn,
      CauseFamily::kStateMismatch,      CauseFamily::kUnauthorized,
      CauseFamily::kTransientCongestion, CauseFamily::kPersistentCongestion,
      CauseFamily::kStaleDnn,           CauseFamily::kOutdatedSlice,
      CauseFamily::kExpiredPlan,        CauseFamily::kPolicyBlock,
      CauseFamily::kStaleSession,       CauseFamily::kSimChannelFault,
      CauseFamily::kCustomUnknown,      CauseFamily::kAdversarialPoisoning,
  };
  for (const CauseFamily family : nameable) {
    const AccuracyReport r = run_purity_pack(family);
    ASSERT_EQ(r.labels, 1u) << core::family_name(family);
    EXPECT_EQ(r.correct, 1u) << core::family_name(family);
    EXPECT_DOUBLE_EQ(r.recall(family), 1.0) << core::family_name(family);
    EXPECT_DOUBLE_EQ(r.precision(family), 1.0) << core::family_name(family);
  }
}

/// The one family the pipeline *cannot* name: the report blames the
/// wrong flow type, validation finds nothing to repair, and the handler
/// falls through to the stale-session reset. Pinned at 0% so any change
/// to this misdiagnosis (e.g. smarter report validation) is a loud,
/// deliberate test update.
TEST(PurityPacks, DeliveryTypeMismatchIsPinnedMisdiagnosed) {
  const AccuracyReport r =
      run_purity_pack(CauseFamily::kDeliveryTypeMismatch);
  ASSERT_EQ(r.labels, 1u);
  const auto& row = r.families[idx(CauseFamily::kDeliveryTypeMismatch)];
  EXPECT_EQ(row.diagnosed, 1u);
  EXPECT_EQ(r.correct, 0u);
  EXPECT_DOUBLE_EQ(r.recall(CauseFamily::kDeliveryTypeMismatch), 0.0);
  EXPECT_EQ(row.predicted[idx(CauseFamily::kStaleSession)], 1u);
}

// ------------------------------------------------- convergence band

/// The custom-cause deepening workload (the bench's learner leg): one
/// SEED-R UE, repeated custom injections, each confirmed recovery
/// uploading crowd records between decisions.
AccuracyReport run_convergence_workload(bool poison_learner) {
  ScopedTracer tracer;
  testbed::MultiOptions o;
  o.ue_count = 1;
  o.scheme = testbed::Scheme::kSeedU;
  o.seed_r_every = 1;
  testbed::MultiTestbed bed(4242, o);
  if (poison_learner) {
    // A deliberately mislabeled crowd seed: 50 records voting for the
    // c-plane config update, which cannot cure the custom fault. The
    // sigmoid gate now suggests it almost every time.
    bed.learner().absorb_one(testbed::Testbed::kCustomCpCode,
                             proto::ResetAction::kA2CPlaneConfigUpdate, 50);
  }
  bed.bring_up_all();
  testbed::LabeledScenarioGen gen(bed);
  for (int i = 0; i < 8; ++i) {
    gen.inject(CauseFamily::kCustomUnknown, 0);
    bed.simulator().run_for(sim::seconds(40));
  }
  bed.simulator().run_for(sim::seconds(60));
  return eval::score(tracer.events());
}

TEST(ConvergenceBand, CleanCurveStaysInsideBandPoisonedSeedFallsOut) {
  const AccuracyReport clean = run_convergence_workload(false);
  ASSERT_EQ(clean.curve.empty(), false);
  ASSERT_EQ(clean.curve.back().cum_decisions, 8u);

  // The pinned band: quartiles of the committed clean curve. Tolerance
  // is wide enough for workload evolution, tight enough that a poisoned
  // learner (or a broken sigmoid gate) cannot hide inside it.
  const std::array<double, 4> expected = eval::curve_quartiles(clean);
  EXPECT_TRUE(eval::curve_within_band(clean, expected, 0.15));
  // Online learning must actually help: the curve ends higher than the
  // cold-start depth-0 accuracy.
  EXPECT_GT(clean.curve_final_accuracy(), clean.curve.front().cum_accuracy);

  const AccuracyReport poisoned = run_convergence_workload(true);
  ASSERT_EQ(poisoned.curve.empty(), false);
  // Every suggestion is the useless A2: the poisoned curve's tail sits
  // far below the clean band and the gate catches it.
  EXPECT_LT(poisoned.curve_final_accuracy(), clean.curve_final_accuracy());
  EXPECT_FALSE(eval::curve_within_band(poisoned, expected, 0.15));
}

}  // namespace
}  // namespace seed

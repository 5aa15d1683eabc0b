// Fleet health engine: sim-time window evaluation, multi-window
// burn-rate alert lifecycle, and the worker-count determinism the
// fleet_runner wiring depends on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/fleet_obs.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "simcore/fleet_runner.h"
#include "simcore/time.h"
#include "testbed/testbed.h"

namespace seed {
namespace {

using obs::AlertState;
using obs::Event;
using obs::EventKind;
using obs::HealthConfig;
using obs::HealthEngine;
using obs::Origin;
using obs::SloSignal;
using obs::SloSpec;
using obs::SloStat;
using obs::SloStatus;

Event at(std::int64_t at_us, EventKind kind) {
  Event e;
  e.kind = kind;
  e.at_us = at_us;
  return e;
}

/// One failure-rate SLO: 1 s windows, >60/min (1/s) burns the budget,
/// two burning evals fire, two clean evals resolve.
HealthConfig rate_config() {
  HealthConfig c;
  c.window_us = 1'000'000;
  c.long_window_steps = 5;
  c.fire_after = 2;
  c.resolve_after = 2;
  c.emit_slog = false;
  c.slos.push_back({"cp_rate", SloSignal::kFailureRate, SloStat::kRatePerMin,
                    0, 0, 0, 60.0, 0.1});
  return c;
}

TEST(HealthEngine_, BurnRateAlertWalksPendingFiringResolved) {
  HealthEngine engine(rate_config());
  // 5 detections/s for 10 s (burn 5x), then silence.
  std::vector<Event> events;
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 5; ++i) {
      events.push_back(at(s * 1'000'000 + i * 100'000,
                          EventKind::kFailureDetected));
    }
  }
  engine.ingest(events);
  engine.flush(13'000'000);

  const auto& alerts = engine.alerts();
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(alerts[0].state, AlertState::kPending);
  EXPECT_EQ(alerts[0].at_us, 1'000'000);
  EXPECT_EQ(alerts[1].state, AlertState::kFiring);
  EXPECT_EQ(alerts[1].at_us, 2'000'000);
  EXPECT_EQ(alerts[2].state, AlertState::kResolved);
  EXPECT_EQ(alerts[2].at_us, 12'000'000);
  EXPECT_DOUBLE_EQ(alerts[0].burn_short, 5.0);  // 300/min over 60/min

  const std::vector<SloStatus> status = engine.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].observations, 50u);
  EXPECT_EQ(status[0].fired, 1u);
  EXPECT_EQ(status[0].resolved, 1u);
  EXPECT_EQ(status[0].state, AlertState::kInactive);
}

TEST(HealthEngine_, ShortBlipStaysPendingAndClears) {
  HealthEngine engine(rate_config());
  std::vector<Event> events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(at(i * 100'000, EventKind::kFailureDetected));
  }
  engine.ingest(events);
  engine.flush(3'000'000);
  // One burning eval (pending), then a clean one sends it back without
  // ever firing.
  const auto& alerts = engine.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].state, AlertState::kPending);
  EXPECT_EQ(alerts[1].state, AlertState::kInactive);
  EXPECT_EQ(engine.status()[0].fired, 0u);
}

TEST(HealthEngine_, RecoveryLatencyAttributesPerTier) {
  HealthConfig c;
  c.window_us = 1'000'000;
  c.emit_slog = false;
  c.slos.push_back({"rec_all", SloSignal::kRecoveryLatency, SloStat::kP95, 0,
                    0, 0, 100.0, 0.1});
  c.slos.push_back({"rec_cplane", SloSignal::kRecoveryLatency, SloStat::kP95,
                    2, 0, 0, 100.0, 0.1});
  HealthEngine engine(c);

  // Span 1: c-plane reset (tier 2), 50 ms — good.
  Event inj = at(0, EventKind::kFailureInjected);
  inj.span = 1;
  Event rst = at(10'000, EventKind::kResetIssued);
  rst.span = 1;
  rst.action = 2;
  rst.tier = 2;
  Event rec = at(50'000, EventKind::kRecovered);
  rec.span = 1;
  // Span 2: d-plane reset (tier 3), 300 ms — bad for rec_all only.
  Event inj2 = at(100'000, EventKind::kFailureInjected);
  inj2.span = 2;
  Event rst2 = at(120'000, EventKind::kResetIssued);
  rst2.span = 2;
  rst2.action = 6;
  rst2.tier = 3;
  Event rec2 = at(400'000, EventKind::kRecovered);
  rec2.span = 2;
  engine.ingest({inj, rst, rec, inj2, rst2, rec2});
  engine.flush(500'000);

  const auto status = engine.status();
  EXPECT_EQ(status[0].observations, 2u);  // rec_all saw both spans
  EXPECT_EQ(status[0].bad, 1u);           // only the 300 ms one
  EXPECT_EQ(status[1].observations, 1u);  // rec_cplane: tier-2 span only
  EXPECT_EQ(status[1].bad, 0u);
}

TEST(HealthEngine_, RecoveryAttributionFollowsUeNotSpan) {
  // Multi-UE runs interleave failures: UE 1's recovery arrives while
  // UE 2's (newer) span is active, so the event carries span 2. The
  // engine must attribute the latency to UE 1's injection regardless.
  HealthConfig c;
  c.window_us = 1'000'000;
  c.emit_slog = false;
  c.slos.push_back({"rec", SloSignal::kRecoveryLatency, SloStat::kP95, 0, 0,
                    0, 30.0, 0.1});
  HealthEngine engine(c);

  Event inj1 = at(0, EventKind::kFailureInjected);
  inj1.span = 1;
  inj1.ue = 1;
  Event inj2 = at(40'000, EventKind::kFailureInjected);
  inj2.span = 2;
  inj2.ue = 2;
  Event rec1 = at(50'000, EventKind::kRecovered);
  rec1.span = 2;  // the muddled shared-tracer span id
  rec1.ue = 1;
  engine.ingest({inj1, inj2, rec1});
  engine.flush(100'000);

  const auto status = engine.status();
  ASSERT_EQ(status[0].observations, 1u);
  // 50 ms measured from UE 1's injection at t=0 breaches the 30 ms
  // threshold; span attribution would have measured 10 ms from UE 2's.
  EXPECT_EQ(status[0].bad, 1u);
}

TEST(HealthEngine_, CacheHitRateCountsMissesAgainstBudget) {
  HealthConfig c;
  c.window_us = 1'000'000;
  c.fire_after = 1;
  c.emit_slog = false;
  c.slos.push_back({"cache", SloSignal::kCacheHitRate, SloStat::kMean, 0, 0,
                    0, 0.0, 0.5});
  HealthEngine engine(c);
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    Event e = at(i * 50'000, EventKind::kCacheLookup);
    e.ok = i >= 8;  // 8 misses, 2 hits: 80% miss over a 50% budget
    events.push_back(e);
  }
  engine.ingest(events);
  engine.flush(1'000'000);
  const auto status = engine.status();
  EXPECT_EQ(status[0].observations, 10u);
  EXPECT_EQ(status[0].bad, 8u);
  EXPECT_EQ(status[0].fired, 1u);
  ASSERT_FALSE(engine.alerts().empty());
  EXPECT_DOUBLE_EQ(engine.alerts().front().value, 0.2);  // hit fraction
}

TEST(HealthEngine_, FlushIsIdempotentAtTheSameTime) {
  HealthEngine engine(rate_config());
  engine.ingest({at(100'000, EventKind::kFailureDetected)});
  engine.flush(500'000);
  const std::size_t evals = engine.status()[0].evals;
  engine.flush(500'000);
  EXPECT_EQ(engine.status()[0].evals, evals);
}

TEST(HealthEngine_, SloAlertEventsFeedBackIntoTheTrace) {
  obs::Tracer& t = obs::Tracer::instance();
  sim::TimePoint now{};
  t.enable(false);
  t.clear();
  t.reset_span_counter();
  t.set_clock(&now);
  t.enable(true);
  HealthEngine engine(rate_config());
  t.add_observer(&engine);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 5; ++i) {
      Event e;
      e.kind = EventKind::kFailureDetected;
      t.record_now(std::move(e));
      now += sim::ms(100);
    }
    now += sim::ms(500);  // land exactly on the next second boundary
  }
  engine.flush(3'000'000);
  t.remove_observer(&engine);
  // Pending + firing transitions were re-emitted as kSloAlert events
  // (the observer re-enters record_now safely).
  EXPECT_GE(t.event_count(EventKind::kSloAlert), 2u);
  t.enable(false);
  t.clear();
  t.set_clock(nullptr);
}

// ---------------------------------------------- fleet determinism

/// Each shard runs a real testbed failure with a local health engine
/// attached to its thread-local tracer; the shards' BENCH_health-style
/// JSON dumps, concatenated in shard order, must be byte-identical for
/// any worker count.
std::string run_health_fleet(std::size_t threads) {
  sim::FleetRunner fleet(threads, /*base_seed=*/2026);
  const auto dumps = fleet.map<std::string>(
      16, [](const sim::ShardInfo& info) {
        obs::begin_shard_obs(/*traces=*/true, /*metrics=*/false);
        HealthConfig c;
        c.window_us = 1'000'000;
        c.fire_after = 1;
        c.resolve_after = 1;
        c.emit_slog = false;
        c.slos.push_back({"cp_rate", SloSignal::kFailureRate,
                          SloStat::kRatePerMin, 0, 0, 0, 6.0, 0.1});
        c.slos.push_back({"recovery", SloSignal::kRecoveryLatency,
                          SloStat::kP95, 0, 0, 0, 2000.0, 0.1});
        HealthEngine engine(c);
        obs::Tracer::instance().add_observer(&engine);
        std::int64_t end_us = 0;
        {
          testbed::Testbed tb(1000 + info.seed % 97,
                              device::Scheme::kSeedU);
          tb.secondary_congestion_prob = 0;
          tb.bring_up();
          (void)tb.run_cp_failure(testbed::CpFailure::kOutdatedPlmn);
          (void)tb.run_dp_failure(testbed::DpFailure::kOutdatedDnn);
          end_us = tb.simulator().now().time_since_epoch().count();
        }
        engine.flush(end_us);
        obs::Tracer::instance().remove_observer(&engine);
        (void)obs::end_shard_obs();  // shard capture discarded: the
                                     // engine's dump is the result
        std::ostringstream os;
        engine.dump_json(os);
        return os.str();
      });
  std::string merged;
  for (const std::string& d : dumps) merged += d;
  return merged;
}

TEST(HealthFleet, MergedDumpIdenticalAcrossWorkerCounts) {
  const std::string one = run_health_fleet(1);
  const std::string four = run_health_fleet(4);
  const std::string eight = run_health_fleet(8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  // Sanity: the shards actually observed failures.
  EXPECT_NE(one.find("\"observations\":"), std::string::npos);
  EXPECT_EQ(one.find("\"observations\":0,"), std::string::npos);
}

}  // namespace
}  // namespace seed

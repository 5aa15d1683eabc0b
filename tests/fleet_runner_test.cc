// FleetRunner: parallel shard execution must be a pure reordering of the
// sequential run — merged outcomes, metric dumps, and trace exports are
// byte-identical whether one worker or eight ran the fleet.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/fleet_obs.h"
#include "simcore/fleet_runner.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "testbed/testbed.h"

namespace seed {
namespace {

using sim::FleetRunner;
using sim::ShardInfo;

TEST(ShardSeed, PureFunctionWithSpread) {
  EXPECT_EQ(sim::shard_seed(42, 7), sim::shard_seed(42, 7));
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    seen.insert(sim::shard_seed(42, s));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across neighbours
  EXPECT_NE(sim::shard_seed(1, 0), sim::shard_seed(2, 0));
}

TEST(FleetRunner, MapReturnsResultsInShardOrder) {
  FleetRunner fleet(8);
  const auto out = fleet.map<std::size_t>(
      100, [](const ShardInfo& info) { return info.index; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(FleetRunner, AllShardsRunExactlyOnce) {
  std::atomic<int> runs{0};
  std::vector<std::atomic<int>> per_shard(64);
  FleetRunner fleet(8);
  fleet.run(64, [&](const ShardInfo& info) {
    ++runs;
    ++per_shard[info.index];
    EXPECT_EQ(info.total, 64u);
  });
  EXPECT_EQ(runs.load(), 64);
  for (const auto& c : per_shard) EXPECT_EQ(c.load(), 1);
}

TEST(FleetRunner, ShardExceptionPropagates) {
  FleetRunner fleet(4);
  EXPECT_THROW(
      fleet.run(32,
                [](const ShardInfo& info) {
                  if (info.index == 13) {
                    throw std::runtime_error("shard 13 blew up");
                  }
                }),
      std::runtime_error);
}

// A per-shard simulation digest: schedule/cancel churn driven by the
// shard's derived RNG stream, folded into one value. Any scheduling or
// ordering leak between shards would change it.
std::uint64_t sim_digest(const ShardInfo& info) {
  sim::Simulator simulator;
  sim::Rng rng(info.seed);
  std::uint64_t digest = info.seed;
  std::vector<sim::TimerId> pending;
  for (int i = 0; i < 200; ++i) {
    const auto delay = sim::us(rng.uniform_int(1, 50'000));
    pending.push_back(simulator.schedule_after(delay, [&digest, &simulator] {
      digest = digest * 1099511628211ULL ^
               static_cast<std::uint64_t>(
                   simulator.now().time_since_epoch().count());
    }));
    if (i % 3 == 0 && rng.chance(0.5)) {
      simulator.cancel(pending[static_cast<std::size_t>(
          rng.uniform_int(0, i))]);
    }
  }
  simulator.run();
  return digest ^ simulator.events_processed();
}

std::vector<std::uint64_t> run_sim_fleet(std::size_t threads) {
  FleetRunner fleet(threads, /*base_seed=*/777);
  return fleet.map<std::uint64_t>(64, sim_digest);
}

TEST(FleetRunner, SixtyFourShardFleetIdenticalFor1And8Threads) {
  EXPECT_EQ(run_sim_fleet(1), run_sim_fleet(8));
}

// Full-stack shards: 64 Testbeds running a control-plane failure each.
// The merged outcome list must not depend on the worker count.
std::vector<std::pair<bool, double>> run_testbed_fleet(std::size_t threads) {
  FleetRunner fleet(threads);
  return fleet.map<std::pair<bool, double>>(
      64, [](const ShardInfo& info) {
        testbed::Testbed tb(1000 + static_cast<std::uint64_t>(info.index) * 7,
                            device::Scheme::kSeedU);
        tb.secondary_congestion_prob = 0;
        tb.bring_up();
        const testbed::Outcome out =
            tb.run_cp_failure(testbed::CpFailure::kTransientStateMismatch);
        return std::make_pair(out.recovered, out.disruption_s);
      });
}

TEST(FleetRunner, TestbedFleetOutcomesIdenticalFor1And8Threads) {
  const auto one = run_testbed_fleet(1);
  const auto eight = run_testbed_fleet(8);
  EXPECT_EQ(one, eight);
  int recovered = 0;
  for (const auto& [ok, disruption] : one) recovered += ok ? 1 : 0;
  EXPECT_GT(recovered, 0);
}

// Obs merge: every shard records a tiny failure lifecycle into its
// thread-local tracer/registry; captures fold back in shard order. The
// merged registry JSON and trace JSONL must be byte-identical across
// thread counts.
struct ObsDump {
  std::string metrics_json;
  std::string trace_jsonl;
};

ObsDump run_obs_fleet(std::size_t threads) {
  obs::Tracer::instance().clear();
  obs::Tracer::instance().reset_span_counter();
  obs::Registry::instance().clear();

  FleetRunner fleet(threads, /*base_seed=*/2022);
  auto captures = fleet.map<obs::ShardObs>(
      64, [](const ShardInfo& info) {
        obs::begin_shard_obs(/*traces=*/true, /*metrics=*/true);
        sim::Simulator simulator;
        obs::Tracer::instance().set_clock(&simulator.now_ref());
        sim::Rng rng(info.seed);
        const auto cause = static_cast<std::uint8_t>(rng.uniform_int(1, 99));
        const auto detect_us = rng.uniform_int(100, 5'000);
        const auto recover_us = detect_us + rng.uniform_int(100, 20'000);
        simulator.schedule_after(sim::us(10), [cause] {
          obs::emit(obs::EventKind::kFailureInjected, obs::Origin::kTestbed,
                    {.plane = 0, .cause = cause});
        });
        simulator.schedule_after(sim::us(detect_us), [cause] {
          obs::emit(obs::EventKind::kFailureDetected, obs::Origin::kSim,
                    {.plane = 0, .cause = cause});
          obs::Registry::instance().counter("fleet.detected").inc();
        });
        simulator.schedule_after(sim::us(recover_us), [] {
          obs::emit(obs::EventKind::kRecovered, obs::Origin::kTestbed);
        });
        simulator.run();
        return obs::end_shard_obs();
      });
  for (auto& c : captures) obs::merge_shard_obs(std::move(c));

  ObsDump dump;
  std::ostringstream metrics, trace;
  obs::Registry::instance().dump_json(metrics);
  obs::Tracer::instance().export_jsonl(trace);
  dump.metrics_json = metrics.str();
  dump.trace_jsonl = trace.str();
  obs::Tracer::instance().clear();
  obs::Registry::instance().clear();
  return dump;
}

TEST(FleetObs, MergedDumpsIdenticalFor1And8Threads) {
  const ObsDump one = run_obs_fleet(1);
  const ObsDump eight = run_obs_fleet(8);
  EXPECT_EQ(one.metrics_json, eight.metrics_json);
  EXPECT_EQ(one.trace_jsonl, eight.trace_jsonl);
  // Sanity: the merge actually carried data (64 shards x 1 counter, and
  // 64 distinct renumbered spans in the export).
  EXPECT_NE(one.metrics_json.find("\"fleet.detected\":64"),
            std::string::npos);
  EXPECT_NE(one.trace_jsonl.find("\"span\":64"), std::string::npos);
}

TEST(FleetObs, AbsorbRenumbersSpansDeterministically) {
  obs::Tracer& t = obs::Tracer::instance();
  t.clear();
  t.reset_span_counter();
  std::vector<obs::Event> a(2), b(1);
  a[0].span = 7;
  a[0].kind = obs::EventKind::kFailureInjected;
  a[1].span = 7;
  a[1].kind = obs::EventKind::kRecovered;
  b[0].span = 7;  // same raw id from another shard: must not collide
  b[0].kind = obs::EventKind::kFailureInjected;
  t.absorb(a);
  t.absorb(b);
  ASSERT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.events()[0].span, 1u);
  EXPECT_EQ(t.events()[1].span, 1u);
  EXPECT_EQ(t.events()[2].span, 2u);
  t.clear();
}

}  // namespace
}  // namespace seed

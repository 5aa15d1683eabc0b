// Profiler semantics: zone nesting and reentrancy accounting, byte/alloc
// attribution, deterministic log2 histograms, disabled-path inertness,
// name-keyed shard merging — and the headline guarantee, a merged fleet
// profile that is byte-identical for 1, 2, and 8 workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/minijson.h"
#include "obs/fleet_obs.h"
#include "obs/prof.h"
#include "testbed/profile_workload.h"

namespace seed::obs {
namespace {

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().clear();
    Profiler::instance().enable(true);
  }
  void TearDown() override {
    Profiler::instance().enable(false);
    Profiler::instance().clear();
  }

  static const ZoneStats* stats_of(const std::vector<ProfRow>& rows,
                                   const std::string& name) {
    for (const ProfRow& r : rows) {
      if (r.name == name) return &r.stats;
    }
    return nullptr;
  }
};

TEST_F(ProfTest, CountsCallsAndAttributesBytesToInnermostZone) {
  if (!SEED_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  for (int i = 0; i < 3; ++i) {
    PROF_ZONE("t.outer");
    PROF_BYTES(100);
    {
      PROF_ZONE("t.inner");
      PROF_BYTES(5);
      PROF_ALLOC(32);
    }
  }
  const auto rows = Profiler::instance().rows();
  const ZoneStats* outer = stats_of(rows, "t.outer");
  const ZoneStats* inner = stats_of(rows, "t.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 3u);
  EXPECT_EQ(inner->calls, 3u);
  EXPECT_EQ(outer->bytes, 300u);  // inner bytes never leak to the parent
  EXPECT_EQ(inner->bytes, 15u);
  EXPECT_EQ(inner->allocs, 3u);
  EXPECT_EQ(inner->alloc_bytes, 96u);
  // log2 buckets: 100 -> bit_width 7, 5 -> bit_width 3.
  EXPECT_EQ(outer->bytes_hist[7], 3u);
  EXPECT_EQ(inner->bytes_hist[3], 3u);
}

TEST_F(ProfTest, NestingSubtractsChildTimeFromParentExclusive) {
  if (!SEED_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  {
    PROF_ZONE("t.parent");
    for (int i = 0; i < 50; ++i) {
      PROF_ZONE("t.child");
      // Enough work that the child's inclusive time is nonzero even on a
      // coarse clock.
      volatile unsigned sink = 0;
      for (unsigned j = 0; j < 1000; ++j) sink = sink + j;
    }
  }
  const auto rows = Profiler::instance().rows();
  const ZoneStats* parent = stats_of(rows, "t.parent");
  const ZoneStats* child = stats_of(rows, "t.child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(parent->calls, 1u);
  EXPECT_EQ(child->calls, 50u);
  // Exclusive <= inclusive always; the 50 child bodies dominate the
  // parent's span, so the parent keeps strictly less than all of it.
  EXPECT_LE(parent->excl_ns, parent->incl_ns);
  EXPECT_LT(parent->excl_ns, parent->incl_ns - child->incl_ns / 2);
  // The child has no children: exclusive == inclusive.
  EXPECT_EQ(child->excl_ns, child->incl_ns);
}

TEST_F(ProfTest, ReentrantZoneCountsInclusiveTimeOnce) {
  const ZoneId zone = prof_zone_id("t.recursive");
  // Simulate recursion depth 4: the same zone opened inside itself.
  auto& p = Profiler::instance();
  p.begin(zone);
  p.begin(zone);
  p.begin(zone);
  p.begin(zone);
  volatile unsigned sink = 0;
  for (unsigned j = 0; j < 10000; ++j) sink = sink + j;
  p.end();
  p.end();
  p.end();
  p.end();
  const auto rows = p.rows();
  const ZoneStats* st = stats_of(rows, "t.recursive");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->calls, 4u);
  // Inclusive time is recorded only at the outermost instance — had each
  // nesting level added its own span, incl would be ~4x excl. The total
  // exclusive time equals the outermost span (every ns belongs to
  // exactly one instance), so incl ~= sum(excl), never ~4x.
  EXPECT_GE(st->incl_ns, st->excl_ns / 2);
  EXPECT_LE(st->incl_ns, st->excl_ns + st->excl_ns / 2 + 1000);
}

TEST_F(ProfTest, DisabledProfilerRecordsNothing) {
  Profiler::instance().enable(false);
  {
    PROF_ZONE("t.dark");
    PROF_BYTES(123);
    PROF_ALLOC(456);
  }
  EXPECT_TRUE(Profiler::instance().rows().empty());
}

TEST_F(ProfTest, ClearInsideOpenZoneIsSafe) {
  if (!SEED_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  {
    PROF_ZONE("t.interrupted");
    Profiler::instance().clear();
    // The guard's end() must tolerate the vanished frame.
  }
  EXPECT_TRUE(Profiler::instance().rows().empty());
  {
    PROF_ZONE("t.after");
  }
  const auto rows = Profiler::instance().rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "t.after");
  EXPECT_EQ(rows[0].stats.calls, 1u);
}

TEST_F(ProfTest, AbsorbMergesByNameCommutatively) {
  ZoneStats a;
  a.calls = 10;
  a.bytes = 100;
  for (int i = 0; i < 10; ++i) a.bytes_hist.observe(4);  // bucket 3
  ZoneStats b;
  b.calls = 5;
  b.bytes = 70;
  for (int i = 0; i < 4; ++i) b.bytes_hist.observe(7);  // bucket 3
  b.bytes_hist.observe(16);                              // bucket 5
  const std::vector<ProfRow> shard1{{"t.zone", a}, {"t.only1", b}};
  const std::vector<ProfRow> shard2{{"t.zone", b}};

  auto merged = [](const std::vector<ProfRow>& x,
                   const std::vector<ProfRow>& y) {
    auto& p = Profiler::instance();
    p.clear();
    p.absorb(x);
    p.absorb(y);
    std::ostringstream os;
    p.dump_json(os, "t", /*include_times=*/false);
    p.clear();
    return os.str();
  };
  const std::string fwd = merged(shard1, shard2);
  const std::string rev = merged(shard2, shard1);
  EXPECT_EQ(fwd, rev);
  EXPECT_NE(fwd.find("\"name\":\"t.zone\",\"calls\":15"), std::string::npos);
}

// ----- the log2 histogram behind profiler zones

static_assert(std::is_trivially_copyable_v<Histogram>,
              "a histogram series must hold no heap storage");

TEST(HistogramTest, BucketEdgesFollowBitWidth) {
  EXPECT_EQ(Histogram::bucket(0), 0u);
  EXPECT_EQ(Histogram::bucket(1), 1u);
  for (std::size_t k = 1; k + 1 < Histogram::kBuckets; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    EXPECT_EQ(Histogram::bucket(p - 1), k) << k;
    EXPECT_EQ(Histogram::bucket(p), k + 1) << k;
  }
  EXPECT_EQ(Histogram::bucket(UINT64_MAX), Histogram::kBuckets - 1);
  Histogram h;
  h.observe(UINT64_MAX);
  EXPECT_EQ(h[Histogram::kBuckets - 1], 1u);
}

TEST(HistogramTest, ShardMergeMatchesSinglePassInEitherOrder) {
  std::mt19937_64 rng(20221017);
  Histogram whole;
  Histogram shards[3];
  for (int i = 0; i < 3000; ++i) {
    const unsigned shift = static_cast<unsigned>(rng() % 64);
    const std::uint64_t v = rng() >> shift;  // spread over every bucket
    whole.observe(v);
    shards[rng() % 3].observe(v);
  }
  Histogram fwd;
  Histogram rev;
  for (int s = 0; s < 3; ++s) fwd.add(shards[s]);
  for (int s = 2; s >= 0; --s) rev.add(shards[s]);
  for (const Histogram* merged : {&fwd, &rev}) {
    EXPECT_EQ(merged->count(), whole.count());
    EXPECT_EQ(merged->sum(), whole.sum());
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      EXPECT_EQ((*merged)[b], whole[b]) << b;
    }
  }
}

// The headline determinism contract: the canonical fleet profiling
// workload merges to byte-identical deterministic dumps for 1, 2, and 8
// workers (scheduling and shard->thread placement must never show).
TEST(ProfFleetTest, MergedProfileIsByteIdenticalAcrossWorkerCounts) {
  if (!SEED_PROF_COMPILED) GTEST_SKIP() << "profiler compiled out";
  testbed::ProfileWorkload w;
  // Trimmed workload: worker-count independence doesn't need the full
  // BENCH-sized run (the committed artifact itself is regenerated by
  // bench_city_storm and compared byte for byte in CI).
  w.shards = 4;
  w.ues_per_shard = 3;
  w.injections_per_shard = 8;

  std::string dumps[3];
  std::string budgets[3];
  const std::size_t workers[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    const auto run = testbed::run_profile_workload(w, workers[i]);
    ASSERT_FALSE(run.rows.empty());
    std::ostringstream os;
    dump_prof_json(os, "profile_fleet", run.rows, /*include_times=*/false);
    dumps[i] = os.str();
    // The shards' tail-retention trace budget must be worker-count
    // independent too (it rides into BENCH_profile.json's "trace" block).
    std::ostringstream bs;
    bs << "bytes=" << run.trace.bytes_retained
       << " retained=" << run.trace.events_retained
       << " aged_out=" << run.trace.events_aged_out
       << " ues=" << run.trace.ues_retained;
    budgets[i] = bs.str();
    EXPECT_GT(run.trace.events_retained + run.trace.events_aged_out, 0u);
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
  EXPECT_EQ(budgets[0], budgets[1]);
  EXPECT_EQ(budgets[0], budgets[2]);

  // The dump parses, and covers every instrumented subsystem.
  const minijson::Value doc = minijson::parse(dumps[0]);
  const auto& zones = doc.at("profile").at("zones").as_array();
  std::vector<std::string> names;
  for (const auto& z : zones) names.push_back(z.at("name").as_string());
  for (const char* expect :
       {"sim.dispatch", "nas.encode", "nas.decode", "crypto.eea2",
        "crypto.eia2", "diagcache.digest", "diagcache.lookup",
        "seedproto.fragment", "seedproto.reassemble", "modem.collab_rx",
        "modem.collab_tx", "core.collab_tx"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
        << "zone missing from fleet profile: " << expect;
  }
}

}  // namespace
}  // namespace seed::obs

// The metro-scale trace plane: the shared Ring primitive, the binary
// TLV codec (round-trip exactness, intern table, corruption triage),
// the Tracer's tail-based retention (triggers, budgets, seal), and the
// sharded city workload's worker-count determinism.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_ring.h"
#include "obs/fleet_obs.h"
#include "obs/trace.h"
#include "obs/trace_binary.h"
#include "seed/verdict.h"
#include "testbed/city_workload.h"
#include "testbed/multi_testbed.h"
#include "testbed/testbed.h"

namespace {
// Heap allocations made by the calling thread, and the bytes they hold
// until freed on it: the replaced global operator new and delete below
// keep both, so a test can pin a path as allocation-free or a store as
// bounded.
thread_local std::size_t t_allocations = 0;
thread_local std::ptrdiff_t t_live_bytes = 0;
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  ++t_allocations;
  t_live_bytes += static_cast<std::ptrdiff_t>(malloc_usable_size(p));
  return p;
}
void operator delete(void* p) noexcept {
  t_live_bytes -= static_cast<std::ptrdiff_t>(malloc_usable_size(p));
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace seed {
namespace {

using obs::BinaryError;
using obs::BinaryStats;
using obs::Event;
using obs::EventKind;
using obs::Origin;
using obs::Ring;
using obs::TraceReader;

// ------------------------------------------------------------- Ring

TEST(EventRing, PushEvictsOldestOnceFull) {
  Ring<int> ring(3);
  EXPECT_FALSE(ring.push(1).has_value());
  EXPECT_FALSE(ring.push(2).has_value());
  EXPECT_FALSE(ring.push(3).has_value());
  const auto evicted = ring.push(4);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1);
  std::vector<int> out;
  ring.append_to(out);
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(ring.take(), (std::vector<int>{2, 3, 4}));
  EXPECT_TRUE(ring.empty());
}

TEST(EventRing, WrapsManyTimesInOrder) {
  Ring<int> ring(4);
  for (int i = 0; i < 100; ++i) {
    const auto evicted = ring.push(i);
    EXPECT_EQ(evicted.has_value(), i >= 4);
    if (evicted) {
      EXPECT_EQ(*evicted, i - 4);
    }
  }
  EXPECT_EQ(ring.take(), (std::vector<int>{96, 97, 98, 99}));
}

TEST(EventRing, ZeroCapacityEvictsImmediately) {
  Ring<int> ring(0);
  const auto evicted = ring.push(7);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 7);
  EXPECT_TRUE(ring.empty());
}

// ------------------------------------------------------------- codec

constexpr int kKindCount = 24;   // kFailureInjected..kDiagnosisVerdict
constexpr int kOriginCount = 6;  // kNone..kTestbed

/// One event per (kind, origin) pair with every field exercised,
/// including negative timestamps, repeated details (intern reuse), a
/// max-length detail, and arbitrary bytes in detail.
std::vector<Event> exhaustive_events() {
  std::vector<Event> events;
  for (int k = 0; k < kKindCount; ++k) {
    for (int o = 0; o < kOriginCount; ++o) {
      Event e;
      e.kind = static_cast<EventKind>(k);
      e.origin = static_cast<Origin>(o);
      const int i = k * kOriginCount + o;
      e.span = static_cast<std::uint64_t>(i % 5);
      e.seq = static_cast<std::uint64_t>(i + 1);
      e.parent = static_cast<std::uint64_t>(i / 2);
      e.at_us = (i % 3 == 0 ? -1 : 1) * static_cast<std::int64_t>(i) *
                1'000'000'007LL;
      e.ue = static_cast<std::uint32_t>(i % 7 == 0 ? 0 : i * 13);
      e.label = static_cast<std::uint32_t>(i % 4 == 0 ? 0 : i << 20);
      e.plane = static_cast<std::uint8_t>(i % 2);
      e.cause = static_cast<std::uint8_t>(i);
      e.action = static_cast<std::uint8_t>(i % 7);
      e.tier = static_cast<std::uint8_t>(i % 4);
      e.ok = i % 2 == 1;
      if (i % 3 == 0) {
        e.prep_ms = 0.25 * i;
        e.trans_ms = 17.5 + i;
      }
      switch (i % 4) {
        case 0: break;  // no detail
        case 1: e.detail = "shared detail"; break;  // interned once
        case 2: e.detail = "detail #" + std::to_string(i); break;
        case 3: e.detail = std::string("\x01\xff\"\\\n arbitrary", 14); break;
      }
      events.push_back(std::move(e));
    }
  }
  events.front().detail.assign(obs::kTraceMaxDetailLen, 'x');
  return events;
}

TEST(TraceBinary, RoundTripsEveryKindAndOrigin) {
  const std::vector<Event> events = exhaustive_events();
  const std::string bytes = obs::encode_binary(events);
  EXPECT_TRUE(obs::looks_binary(bytes));

  BinaryStats st;
  const std::vector<Event> back = TraceReader::decode(bytes, &st);
  EXPECT_EQ(st.error, BinaryError::kNone);
  EXPECT_EQ(st.records, events.size());
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]) << "event " << i << " did not round-trip";
  }
}

TEST(TraceBinary, JsonlAndBinaryDecodeIdentically) {
  // The formats are interchangeable: JSONL import of the JSONL export
  // equals binary decode of the binary export, event for event.
  const std::vector<Event> events = exhaustive_events();
  std::stringstream jsonl;
  for (const Event& e : events) obs::export_event_jsonl(jsonl, e);
  const std::vector<Event> via_jsonl = obs::Tracer::import_jsonl(jsonl);
  const std::vector<Event> via_binary =
      TraceReader::decode(obs::encode_binary(events));
  EXPECT_EQ(via_jsonl, via_binary);
  EXPECT_EQ(via_binary, events);
}

TEST(TraceBinary, InternTableWritesEachDetailOnce) {
  Event a;
  a.kind = EventKind::kLog;
  a.detail = "the same long-ish detail string";
  const std::vector<Event> repeated(10, a);
  BinaryStats st;
  const std::vector<Event> back =
      TraceReader::decode(obs::encode_binary(repeated), &st);
  EXPECT_EQ(st.strings, 1u);  // one STR record serves all ten events
  ASSERT_EQ(back.size(), 10u);
  EXPECT_EQ(back.back().detail, a.detail);

  // Ten distinct details cost ten STR records and strictly more bytes.
  std::vector<Event> distinct = repeated;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    distinct[i].detail += std::to_string(i);
  }
  EXPECT_LT(obs::encode_binary(repeated).size(),
            obs::encode_binary(distinct).size());
}

// The encoder's only heap memory is its output string and one intern
// entry per distinct detail: an event's payload is built on the stack.
TEST(TraceBinary, EncoderAllocatesNothingPerEvent) {
  Event e;
  e.kind = EventKind::kCollabUplink;
  e.seq = 3;
  e.detail = "a detail too long for a small string";
  const auto allocations = [](const std::vector<Event>& events) {
    const std::size_t before = t_allocations;
    const std::string bytes = obs::encode_binary(events);
    EXPECT_GT(bytes.size(), obs::kTraceHeaderSize);
    return t_allocations - before;
  };
  const std::vector<Event> few(100, e);
  const std::vector<Event> many(1000, e);
  EXPECT_EQ(allocations(many), allocations(few));
  EXPECT_EQ(obs::record_bytes(many),
            obs::encode_binary(many).size() - obs::kTraceHeaderSize - 2);
}

// A negative zero is a timing like any other: the pair is written
// whenever either value's bits are set, so both come back bit for bit.
TEST(TraceBinary, NegativeZeroTimingsRoundTrip) {
  Event e;
  e.kind = EventKind::kCollabDownlink;
  e.prep_ms = -0.0;
  const std::vector<Event> back = TraceReader::decode(obs::encode_binary({e}));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(std::signbit(back[0].prep_ms));
  EXPECT_FALSE(std::signbit(back[0].trans_ms));
}

TEST(TraceBinary, TriagesBadMagicVersionTruncationOverlengthMalformed) {
  BinaryStats st;

  TraceReader::decode("not a capture at all", &st);
  EXPECT_EQ(st.error, BinaryError::kBadMagic);
  TraceReader::decode("", &st);
  EXPECT_EQ(st.error, BinaryError::kBadMagic);

  std::string bytes = obs::encode_binary(exhaustive_events());
  std::string bad_version = bytes;
  bad_version[obs::kTraceMagic.size()] = 99;
  TraceReader::decode(bad_version, &st);
  EXPECT_EQ(st.error, BinaryError::kBadVersion);

  // Missing end trailer = truncation, even on a record boundary.
  std::string no_end = bytes.substr(0, bytes.size() - 2);
  TraceReader::decode(no_end, &st);
  EXPECT_EQ(st.error, BinaryError::kTruncated);

  // A record declaring a length beyond the sanity cap is a corrupt
  // length field, not a big record.
  std::string overlong(obs::kTraceMagic);
  overlong.push_back(static_cast<char>(obs::kTraceBinaryVersion));
  overlong.push_back('\x02');  // EVT
  overlong.push_back('\xFE');  // 4-byte varint follows
  overlong += std::string("\x7f\xff\xff\xff", 4);
  TraceReader::decode(overlong, &st);
  EXPECT_EQ(st.error, BinaryError::kOverLength);

  // An EVT whose kind byte is outside the name table is malformed.
  std::string bad_kind(obs::kTraceMagic);
  bad_kind.push_back(static_cast<char>(obs::kTraceBinaryVersion));
  bad_kind.push_back('\x02');
  bad_kind.push_back(8);  // length: 7 fixed bytes + at_us varint
  bad_kind += std::string("\xee\x00\x00\x00\x00\x00\x00\x00", 8);
  TraceReader::decode(bad_kind, &st);
  EXPECT_EQ(st.error, BinaryError::kMalformed);

  // `ue` and `label` are u32: a wider varint is malformed, not a UE
  // truncated to 32 bits (which would re-encode differently).
  for (const std::uint8_t flag : {0x10, 0x20}) {
    std::string wide(obs::kTraceMagic);
    wide.push_back(static_cast<char>(obs::kTraceBinaryVersion));
    wide.push_back('\x02');
    wide.push_back(17);  // 7 fixed bytes + at_us + a 9-byte varint
    wide += std::string("\x00\x00\x00\x00\x00\x00", 6);
    wide.push_back(static_cast<char>(flag));
    wide.push_back('\0');  // at_us
    wide += std::string("\xFF\x00\x00\x00\x01\x00\x00\x00\x07", 9);
    wide.push_back('\xFF');
    wide.push_back('\0');
    const std::vector<Event> got = TraceReader::decode(wide, &st);
    EXPECT_EQ(st.error, BinaryError::kMalformed) << "flag " << int(flag);
    EXPECT_TRUE(got.empty());
    // The same record holding 2^32 - 1 decodes.
    wide.replace(wide.size() - 11, 9,
                 std::string("\xFF\x00\x00\x00\x00\xFF\xFF\xFF\xFF", 9));
    ASSERT_EQ(TraceReader::decode(wide, &st).size(), 1u);
    EXPECT_EQ(st.error, BinaryError::kNone);
  }

  // Unknown record types are skipped, not fatal (forward compat).
  std::string unknown(obs::kTraceMagic);
  unknown.push_back(static_cast<char>(obs::kTraceBinaryVersion));
  unknown.push_back('\x7a');
  unknown.push_back(3);
  unknown += "abc";
  unknown.push_back('\xFF');
  unknown.push_back('\0');
  TraceReader::decode(unknown, &st);
  EXPECT_EQ(st.error, BinaryError::kNone);
  EXPECT_EQ(st.skipped, 1u);
}

TEST(TraceBinary, EveryTruncationPrefixRejectsCleanly) {
  // Chop a real capture at every byte offset: no crash, no garbage
  // events — either a clean error or (never, for proper prefixes) a
  // full decode. Decoded prefixes must be a prefix of the real stream.
  const std::vector<Event> events = exhaustive_events();
  const std::string bytes = obs::encode_binary(events);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinaryStats st;
    const std::vector<Event> got =
        TraceReader::decode(std::string_view(bytes).substr(0, cut), &st);
    ASSERT_NE(st.error, BinaryError::kNone) << "prefix of " << cut
                                            << " bytes decoded clean";
    ASSERT_LE(got.size(), events.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], events[i]) << "cut=" << cut << " event " << i;
    }
  }
}

TEST(TraceBinary, BitFlipSweepNeverCrashes) {
  // Deterministic fuzz: flip one bit at a time across a spread of
  // positions. Decode must terminate with either a clean reject or a
  // stream of validated events (kind/origin always in-table).
  const std::string bytes = obs::encode_binary(exhaustive_events());
  std::mt19937 rng(20260807u);
  for (int trial = 0; trial < 400; ++trial) {
    std::string corrupt = bytes;
    const std::size_t pos = rng() % corrupt.size();
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << (rng() % 8)));
    BinaryStats st;
    const std::vector<Event> got = TraceReader::decode(corrupt, &st);
    for (const Event& e : got) {
      ASSERT_NE(obs::event_kind_name(e.kind), "unknown");
      ASSERT_NE(obs::origin_name(e.origin), "unknown");
      ASSERT_LE(e.detail.size(), obs::kTraceMaxRecordLen);
    }
  }
}

// -------------------------------------------------- tail retention

/// Restores the calling thread's tracer to pristine state around a test.
struct TracerFixture {
  TracerFixture() {
    auto& t = obs::Tracer::instance();
    t.enable(false);
    t.clear();
    t.clear_retention();
    t.reset_span_counter();
  }
  ~TracerFixture() {
    auto& t = obs::Tracer::instance();
    t.enable(false);
    t.clear();
    t.clear_retention();
    t.reset_span_counter();
  }
  obs::Tracer& t = obs::Tracer::instance();
};

Event ue_event(std::uint32_t ue, EventKind kind = EventKind::kFailureDetected,
               const char* detail = "") {
  Event e;
  e.kind = kind;
  e.origin = Origin::kTestbed;
  e.ue = ue;
  e.detail = detail;
  return e;
}

TEST(TailRetention, HealthyUeAgesOutCompletely) {
  TracerFixture fx;
  obs::RetentionPolicy p;
  p.ring_depth = 4;
  fx.t.set_retention(p);
  fx.t.enable(true);
  for (int i = 0; i < 10; ++i) fx.t.record_now(ue_event(1));
  EXPECT_TRUE(fx.t.events().empty());  // everything still ring-buffered
  fx.t.seal_retention();
  const obs::RetentionStats st = fx.t.retention_stats();
  EXPECT_EQ(st.events_retained, 0u);
  EXPECT_EQ(st.events_aged_out, 10u);  // 6 evicted + 4 sealed
  EXPECT_EQ(st.ues_retained, 0u);
  EXPECT_EQ(st.bytes_retained, 0u);
  EXPECT_TRUE(fx.t.events().empty());
}

TEST(TailRetention, TerminalFailurePromotesRingAndTail) {
  TracerFixture fx;
  obs::RetentionPolicy p;
  p.ring_depth = 4;
  fx.t.set_retention(p);
  fx.t.enable(true);
  for (int i = 0; i < 6; ++i) fx.t.record_now(ue_event(7));
  fx.t.record_now(ue_event(7, EventKind::kTerminalFailure, "gave up"));
  for (int i = 0; i < 3; ++i) fx.t.record_now(ue_event(7));
  // A different, healthy UE stays out of the durable capture.
  for (int i = 0; i < 5; ++i) fx.t.record_now(ue_event(8));
  fx.t.seal_retention();

  const obs::RetentionStats st = fx.t.retention_stats();
  EXPECT_EQ(st.ues_retained, 1u);
  // Ring window (4) + trigger + 3 subsequent events for UE 7.
  EXPECT_EQ(st.events_retained, 8u);
  EXPECT_EQ(st.events_aged_out, 2u + 5u);  // 2 pre-window + all of UE 8
  ASSERT_EQ(fx.t.events().size(), 8u);
  // Replay order: ring history first (ascending seq), then the trigger.
  EXPECT_EQ(fx.t.events()[4].kind, EventKind::kTerminalFailure);
  for (std::size_t i = 1; i < fx.t.events().size(); ++i) {
    EXPECT_LT(fx.t.events()[i - 1].seq, fx.t.events()[i].seq);
    EXPECT_EQ(fx.t.events()[i].ue, 7u);
  }
  // The budget is exactly the encoder's record bytes for the capture.
  EXPECT_EQ(st.bytes_retained,
            obs::encode_binary(fx.t.events()).size() - obs::kTraceHeaderSize -
                2);
}

TEST(TailRetention, SloBreachQuarantineAndPinTrigger) {
  TracerFixture fx;
  obs::RetentionPolicy p;
  p.ring_depth = 2;
  fx.t.set_retention(p);
  fx.t.enable(true);

  // A resolved/pending alert (ok = true) is not a breach: it buffers.
  Event resolved = ue_event(1, EventKind::kSloAlert, "slo=x state=resolved");
  resolved.ok = true;
  fx.t.record_now(resolved);
  EXPECT_TRUE(fx.t.events().empty());

  // A firing alert (ok = false) is, and promotes its UE's ring.
  Event firing = ue_event(1, EventKind::kSloAlert, "slo=x state=firing");
  firing.ok = false;
  fx.t.record_now(firing);
  EXPECT_EQ(fx.t.events().size(), 2u);  // buffered alert + the breach

  fx.t.record_now(ue_event(2, EventKind::kPeerQuarantined));
  EXPECT_EQ(fx.t.events().size(), 3u);

  fx.t.record_now(ue_event(3));
  fx.t.pin_ue(3);
  fx.t.record_now(ue_event(3));
  fx.t.seal_retention();
  EXPECT_EQ(fx.t.events().size(), 5u);
  EXPECT_EQ(fx.t.retention_stats().ues_retained, 3u);
  EXPECT_EQ(fx.t.retention_stats().events_aged_out, 0u);
}

TEST(TailRetention, VerdictMismatchTriggerRetainsMisdiagnosis) {
  TracerFixture fx;
  obs::RetentionPolicy p;
  p.ring_depth = 2;
  p.trigger = core::verdict_mismatch;
  fx.t.set_retention(p);
  fx.t.enable(true);

  // Correct verdict: standard cause #27 predicts kStaleDnn, label says
  // kStaleDnn -> no trigger, the event buffers.
  Event good = ue_event(4, EventKind::kDiagnosisVerdict);
  good.detail = std::string(core::verdict_kind_token(
                    core::VerdictKind::kStandardCause)) +
                "/" +
                std::string(core::verdict_source_token(
                    core::VerdictSource::kTree));
  good.cause = 27;
  good.label = core::make_label(core::CauseFamily::kStaleDnn, 1);
  fx.t.record_now(good);
  EXPECT_TRUE(fx.t.events().empty());

  // Same verdict against a kUnauthorized label is a misdiagnosis.
  Event bad = good;
  bad.ue = 5;
  bad.label = core::make_label(core::CauseFamily::kUnauthorized, 2);
  fx.t.record_now(bad);
  ASSERT_EQ(fx.t.events().size(), 1u);
  EXPECT_EQ(fx.t.events()[0].ue, 5u);
  EXPECT_EQ(fx.t.retention_stats().ues_retained, 1u);
}

// Routing an event into a non-retained UE's warm ring writes its payload
// in place: no heap allocation, however long its detail (interned on
// first sight).
TEST(TailRetention, RingRoutingAllocatesNothingOnceWarm) {
  TracerFixture fx;
  obs::RetentionPolicy p;
  p.ring_depth = 4;
  fx.t.set_retention(p);
  fx.t.enable(true);
  std::vector<Event> events;
  for (int i = 0; i < 16; ++i) {
    Event e = ue_event(3, EventKind::kCollabUplink,
                       i % 2 == 0 ? "" : "longer than a small string's buffer");
    e.prep_ms = sim::to_ms(sim::us(1234 + i));
    e.trans_ms = i;
    events.push_back(std::move(e));
  }
  for (const Event& e : events) fx.t.record_now(e);  // reserves, interns
  const std::size_t before = t_allocations;
  for (Event& e : events) fx.t.record_now(std::move(e));
  EXPECT_EQ(t_allocations, before);
  fx.t.seal_retention();
  EXPECT_EQ(fx.t.retention_stats().events_aged_out, 32u);
  EXPECT_TRUE(fx.t.events().empty());
}

// What a non-retained UE's ring holds stays bounded however long it
// runs: an escaped event (a detail too long to intern) frees its whole
// Event when the ring evicts it, and interning stops at its text limit
// however many distinct texts arrive. Both go with the retention state.
TEST(TailRetention, EscapeAndInternStoresStayBounded) {
  TracerFixture fx;
  const std::ptrdiff_t idle = t_live_bytes;
  obs::RetentionPolicy p;
  p.ring_depth = 4;
  fx.t.set_retention(p);
  fx.t.enable(true);
  const auto run = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      Event e = ue_event(5, EventKind::kLog);
      e.detail = i % 2 == 0 ? std::string(4096, static_cast<char>('a' + i % 26))
                            : "text " + std::to_string(i);
      fx.t.record_now(std::move(e));
    }
  };
  run(0, 100);
  const std::ptrdiff_t warm = t_live_bytes;
  run(100, 40100);  // 20,000 escapes of 4 KB, 20,000 distinct texts
  EXPECT_LT(t_live_bytes - warm, 1 << 20);
  EXPECT_EQ(fx.t.retention_stats().events_aged_out, 40100u - 4u);
  fx.t.clear();  // a fresh retention state
  EXPECT_LT(t_live_bytes - idle, 4096);
}

// The budget is read off the capture: a sampled city shard's
// bytes_retained is exactly the record bytes encode_binary writes for
// the events it kept.
TEST(TailRetention, BudgetIsTheShardCaptureRecordBytes) {
  TracerFixture fx;
  obs::begin_shard_obs(/*traces=*/true, /*metrics=*/false);
  obs::RetentionPolicy p;
  p.trigger = core::verdict_mismatch;
  fx.t.set_retention(p);
  testbed::MultiOptions o;
  o.ue_count = 64;
  o.scheme = testbed::Scheme::kSeedU;
  o.diag_cache = true;
  o.outdated_dnn_population = true;
  testbed::MultiTestbed city(/*seed=*/3, o);
  city.bring_up_all();
  city.run_storm(sim::minutes(5));
  const obs::ShardObs shard = obs::end_shard_obs();

  ASSERT_GT(shard.retention.events_retained, 0u);
  EXPECT_GT(shard.retention.events_aged_out, 0u);
  EXPECT_EQ(shard.trace_events.size(), shard.retention.events_retained);
  EXPECT_EQ(shard.retention.bytes_retained,
            obs::encode_binary(shard.trace_events).size() -
                obs::kTraceHeaderSize - 2);
}

TEST(TailRetention, ClearStartsAFreshCaptureKeepingThePolicy) {
  TracerFixture fx;
  obs::RetentionPolicy p;
  p.ring_depth = 2;
  fx.t.set_retention(p);
  fx.t.enable(true);
  fx.t.record_now(ue_event(1, EventKind::kTerminalFailure));
  EXPECT_EQ(fx.t.events().size(), 1u);
  fx.t.clear();
  EXPECT_TRUE(fx.t.retention_active());
  EXPECT_EQ(fx.t.retention_stats().events_retained, 0u);
  // UE 1's promotion did not survive the clear: it buffers again.
  fx.t.record_now(ue_event(1));
  EXPECT_TRUE(fx.t.events().empty());
}

TEST(TailRetention, ShardCaptureCarriesRetentionStats) {
  TracerFixture fx;
  obs::begin_shard_obs(/*traces=*/true, /*metrics=*/true);
  obs::RetentionPolicy p;
  p.ring_depth = 2;
  obs::Tracer::instance().set_retention(p);
  auto& t = obs::Tracer::instance();
  for (int i = 0; i < 5; ++i) t.record_now(ue_event(1));
  t.record_now(ue_event(2, EventKind::kTerminalFailure, "boom"));
  obs::ShardObs shard = obs::end_shard_obs();

  EXPECT_EQ(shard.retention.events_retained, 1u);
  EXPECT_EQ(shard.retention.events_aged_out, 5u);
  EXPECT_EQ(shard.retention.ues_retained, 1u);
  EXPECT_GT(shard.retention.bytes_retained, 0u);
  EXPECT_EQ(shard.trace_events.size(), 1u);
}

// -------------------------------------- lifecycle completeness (system)

/// Chaos config pinning every SEED-U rung to fail: the ladder exhausts
/// and the failure goes terminal — the guaranteed retention trigger.
std::vector<Event> chaos_terminal_run(bool sampled, std::size_t ring_depth,
                                      obs::RetentionStats* stats) {
  auto& t = obs::Tracer::instance();
  t.enable(false);
  t.clear();
  t.clear_retention();
  t.reset_span_counter();
  if (sampled) {
    obs::RetentionPolicy p;
    p.ring_depth = ring_depth;
    t.set_retention(p);
  }

  testbed::Testbed tb(/*seed=*/42, device::Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  chaos::ChaosConfig cfg;
  cfg.action_fail[1] = 1.0;
  cfg.action_fail[2] = 1.0;
  cfg.action_fail[3] = 1.0;
  tb.enable_chaos(cfg);
  tb.bring_up();
  t.enable(true);
  (void)tb.run_cp_failure(testbed::CpFailure::kOutdatedPlmn);
  t.enable(false);
  if (sampled) t.seal_retention();
  if (stats != nullptr) *stats = t.retention_stats();
  std::vector<Event> out = t.events();
  t.clear();
  t.clear_retention();
  t.reset_span_counter();
  return out;
}

TEST(TailRetentionSystem, TerminalUeLifecycleIsFullyRetained) {
  const std::vector<Event> full =
      chaos_terminal_run(/*sampled=*/false, 0, nullptr);
  obs::RetentionStats st;
  const std::vector<Event> sampled =
      chaos_terminal_run(/*sampled=*/true, /*ring_depth=*/8, &st);

  // The runs are identical simulations, so sequence numbers line up and
  // retained events match the full capture with operator==.
  const auto is_terminal = [](const Event& e) {
    return e.kind == EventKind::kTerminalFailure;
  };
  const auto first_terminal =
      std::find_if(full.begin(), full.end(), is_terminal);
  ASSERT_NE(first_terminal, full.end()) << "chaos run produced no terminal";
  ASSERT_TRUE(std::any_of(sampled.begin(), sampled.end(), is_terminal));

  // Every post-trigger event of the terminal UE survives sampling.
  const std::uint32_t ue = first_terminal->ue;
  for (auto it = first_terminal; it != full.end(); ++it) {
    if (it->ue != ue) continue;
    EXPECT_NE(std::find(sampled.begin(), sampled.end(), *it), sampled.end())
        << "post-trigger event seq=" << it->seq << " was dropped";
  }
  // And the trigger arrives with its ring of pre-failure history.
  const auto in_sampled =
      std::find_if(sampled.begin(), sampled.end(), is_terminal);
  EXPECT_GT(static_cast<std::size_t>(in_sampled - sampled.begin()), 0u)
      << "no ring history was replayed ahead of the terminal event";
  // Sampling actually dropped the healthy bulk.
  EXPECT_LT(sampled.size(), full.size());
  EXPECT_EQ(st.events_retained + st.events_aged_out, full.size());
  EXPECT_EQ(st.events_retained, sampled.size());
}

// ------------------------------------- city workload (system, fleet)

TEST(CityWorkloadTest, SampledCaptureIsByteIdenticalAcrossWorkerCounts) {
  testbed::CityWorkload w;
  // Trimmed city: worker-count independence doesn't need 10k UEs (the
  // committed BENCH_city.json sampled10k section is regenerated and
  // compared byte for byte in CI).
  w.shards = 3;
  w.ues_per_shard = 8;
  w.storm_min = 2;

  std::string exports[3];
  std::uint64_t retained[3] = {};
  const std::size_t workers[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    const testbed::CityRun run = testbed::run_city_workload(w, workers[i]);
    exports[i] = obs::encode_binary(run.events);
    retained[i] = run.retention.events_retained;
    EXPECT_EQ(run.events.size(), run.retention.events_retained);
    EXPECT_GT(run.retention.events_retained, 0u);  // not vacuously equal
    EXPECT_GT(run.retention.events_aged_out, 0u);  // sampling actually bites
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_EQ(exports[0], exports[2]);
  EXPECT_EQ(retained[0], retained[1]);
  EXPECT_EQ(retained[0], retained[2]);
}

TEST(CityWorkloadTest, SampledBudgetAccountsForEveryFullCaptureEvent) {
  testbed::CityWorkload w;
  w.shards = 2;
  w.ues_per_shard = 8;
  w.storm_min = 2;

  testbed::CityWorkload full = w;
  full.retention = false;
  const testbed::CityRun sampled = testbed::run_city_workload(w, 2);
  const testbed::CityRun oracle = testbed::run_city_workload(full, 2);

  // Retention only filters storage, never the simulation: retained +
  // aged-out covers exactly the full capture, and the sampled capture
  // is the smaller of the two.
  EXPECT_EQ(sampled.retention.events_retained +
                sampled.retention.events_aged_out,
            oracle.events.size());
  EXPECT_LT(sampled.events.size(), oracle.events.size());
  EXPECT_EQ(sampled.injections, oracle.injections);
  EXPECT_EQ(sampled.sim_events, oracle.sim_events);
  EXPECT_EQ(sampled.healthy, oracle.healthy);
  EXPECT_EQ(oracle.retention.events_retained, 0u);  // unsampled run
  // Every terminal event is a trigger, so none can age out.
  EXPECT_EQ(sampled.terminal_failures, oracle.terminal_failures);
}

}  // namespace
}  // namespace seed

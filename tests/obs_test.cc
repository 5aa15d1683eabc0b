#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/stats.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "simcore/log.h"
#include "simcore/rng.h"
#include "simcore/time.h"

namespace seed::obs {
namespace {

// The tracer and registry are process-wide singletons: every test starts
// from a clean, disabled state and leaves it that way.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer& t = Tracer::instance();
    t.enable(false);
    t.clear();
    t.set_clock(&now_);
    Registry::instance().enable(false);
    Registry::instance().clear();
  }

  void TearDown() override {
    Tracer& t = Tracer::instance();
    t.enable(false);
    t.clear();
    t.set_clock(nullptr);
    Registry::instance().enable(false);
    Registry::instance().clear();
    sim::Logger::instance().set_level(sim::LogLevel::kOff);
    sim::Logger::instance().set_sink(nullptr);
  }

  void advance(sim::Duration d) { now_ += d; }

  sim::TimePoint now_ = sim::kTimeZero;
};

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 9});
  emit(EventKind::kFailureDetected, Origin::kModem, {.plane = 0, .cause = 9});
  emit(EventKind::kDiagnosisMade, Origin::kSim,
       {.plane = 0, .cause = 9, .action = 1});
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 1});
  emit(EventKind::kResetCompleted, Origin::kModem, {.action = 1, .ok = true});
  emit(EventKind::kRecovered, Origin::kTestbed);
  emit(EventKind::kCollabDownlink, Origin::kInfra,
       {.prep_ms = 1.0, .trans_ms = 2.0});
  emit(EventKind::kConflictSuppressed, Origin::kSim);
  emit(EventKind::kRateLimited, Origin::kSim, {.action = 6});
  EXPECT_TRUE(Tracer::instance().events().empty());
}

TEST_F(ObsTest, SpanOpensOnInjectionAndEventsAttach) {
  Tracer& t = Tracer::instance();
  t.enable(true);

  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 9});
  const SpanId first = t.active_span();
  ASSERT_NE(first, 0u);
  advance(sim::ms(35));
  emit(EventKind::kFailureDetected, Origin::kModem, {.plane = 0, .cause = 9});
  advance(sim::ms(5));
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 4});  // B1
  t.end_span();
  EXPECT_EQ(t.active_span(), 0u);

  // new failure -> new span
  emit(EventKind::kFailureInjected, Origin::kTestbed,
       {.plane = 1, .cause = 33});
  const SpanId second = t.active_span();
  EXPECT_EQ(second, first + 1);

  ASSERT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.events()[0].span, first);
  EXPECT_EQ(t.events()[1].span, first);
  EXPECT_EQ(t.events()[1].at_us, 35000);
  EXPECT_EQ(t.events()[2].span, first);
  EXPECT_EQ(t.events()[2].tier, 1);  // derived: B1 is the hardware tier
  EXPECT_EQ(t.events()[3].span, second);
  EXPECT_EQ(t.event_count(EventKind::kFailureInjected), 2u);
}

TEST_F(ObsTest, SpanIdsStayMonotonicAcrossClear) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 9});
  const SpanId before = t.active_span();
  t.clear();
  EXPECT_TRUE(t.events().empty());
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 9});
  EXPECT_GT(t.active_span(), before);
}

TEST_F(ObsTest, AssembleHandlesOutOfOrderEvents) {
  auto ev = [](SpanId span, EventKind kind, std::int64_t at_us) {
    Event e;
    e.span = span;
    e.kind = kind;
    e.at_us = at_us;
    return e;
  };
  Event injected = ev(7, EventKind::kFailureInjected, 1000);
  injected.plane = 1;
  injected.cause = 33;
  Event issued = ev(7, EventKind::kResetIssued, 2000);
  issued.action = 3;
  Event completed = ev(7, EventKind::kResetCompleted, 5000);
  completed.action = 3;
  completed.ok = true;

  // Deliberately shuffled: a trace merged from several files need not be
  // time-sorted.
  std::vector<Event> events = {
      completed,
      ev(7, EventKind::kRecovered, 6000),
      injected,
      ev(7, EventKind::kDiagnosisMade, 1800),
      issued,
      ev(7, EventKind::kFailureDetected, 1500),
  };

  const std::vector<SpanSummary> spans = Tracer::assemble(std::move(events));
  ASSERT_EQ(spans.size(), 1u);
  const SpanSummary& s = spans[0];
  EXPECT_EQ(s.span, 7u);
  EXPECT_EQ(s.plane, 1);
  EXPECT_EQ(s.cause, 33);
  ASSERT_TRUE(s.detect_ms().has_value());
  EXPECT_DOUBLE_EQ(*s.detect_ms(), 0.5);
  ASSERT_TRUE(s.diagnose_ms().has_value());
  EXPECT_DOUBLE_EQ(*s.diagnose_ms(), 0.8);
  ASSERT_TRUE(s.recover_ms().has_value());
  EXPECT_DOUBLE_EQ(*s.recover_ms(), 5.0);
  ASSERT_EQ(s.actions.size(), 1u);
  EXPECT_TRUE(s.actions[0].ok);
  ASSERT_TRUE(s.actions[0].latency_ms().has_value());
  EXPECT_DOUBLE_EQ(*s.actions[0].latency_ms(), 3.0);
}

TEST_F(ObsTest, ResetCompletionPairsWithLastUnmatchedIssue) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 9});
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 1});
  advance(sim::ms(100));
  // retry of the same action, still pending
  emit(EventKind::kResetIssued, Origin::kModem, {.action = 1});
  advance(sim::ms(100));
  emit(EventKind::kResetCompleted, Origin::kModem, {.action = 1, .ok = true});

  const std::vector<SpanSummary> spans = t.summarize();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].actions.size(), 2u);
  EXPECT_FALSE(spans[0].actions[0].completed_us.has_value());
  ASSERT_TRUE(spans[0].actions[1].completed_us.has_value());
  EXPECT_DOUBLE_EQ(*spans[0].actions[1].latency_ms(), 100.0);
}

TEST_F(ObsTest, JsonlRoundTripPreservesEvents) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  emit(EventKind::kFailureInjected, Origin::kTestbed,
       {.plane = 1, .cause = 27});
  advance(sim::ms(12));
  emit(EventKind::kCollabDownlink, Origin::kInfra,
       {.prep_ms = 12.5, .trans_ms = 0.25});
  advance(sim::ms(3));
  emit(EventKind::kResetCompleted, Origin::kModem, {.action = 6, .ok = false});
  Event log;
  log.kind = EventKind::kLog;
  log.detail = "modem: said \"reset\"\n\ttab and \\ backslash";
  t.record_now(std::move(log));

  std::stringstream buf;
  t.export_jsonl(buf);
  const std::vector<Event> back = Tracer::import_jsonl(buf);
  EXPECT_EQ(back, t.events());
}

TEST_F(ObsTest, ImportSkipsMalformedLines) {
  std::stringstream buf;
  buf << "not json at all\n"
      << "{\"kind\":\"no_such_kind\",\"at_us\":1}\n"
      // A \u escape above 0xff is not a byte the exporter writes.
      << "{\"kind\":\"log\",\"detail\":\"\\u0100\"}\n"
      << "{\"span\":3,\"kind\":\"recovered\",\"at_us\":42,\"origin\":"
         "\"testbed\"}\n"
      // A number its field cannot hold exactly is damage, not a value.
      << "{\"kind\":\"log\",\"plane\":300}\n"
      << "{\"kind\":\"log\",\"ue\":-1}\n"
      << "{\"kind\":\"log\",\"seq\":1e300}\n"
      << "{\"kind\":\"log\",\"cause\":2.5}\n"
      << "{\"kind\":\"log\",\"at_us\":-9.3e18}\n"
      // Each field's extremes still fit.
      << "{\"kind\":\"log\",\"plane\":255,\"ue\":4294967295,"
         "\"at_us\":-9223372036854775808,\"prep_ms\":2.5}\n";
  ImportStats stats;
  const std::vector<Event> back = Tracer::import_jsonl(buf, &stats);
  EXPECT_EQ(stats.lines, 10u);
  EXPECT_EQ(stats.malformed, 7u);
  EXPECT_EQ(stats.records, 2u);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].span, 3u);
  EXPECT_EQ(back[0].kind, EventKind::kRecovered);
  EXPECT_EQ(back[0].at_us, 42);
  EXPECT_EQ(back[0].origin, Origin::kTestbed);
  EXPECT_EQ(back[1].plane, 255);
  EXPECT_EQ(back[1].ue, 4294967295u);
  EXPECT_EQ(back[1].at_us, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(back[1].prep_ms, 2.5);
}

TEST_F(ObsTest, LogLinesBridgeIntoTraceStream) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  sim::Logger::instance().set_level(sim::LogLevel::kDebug);
  advance(sim::seconds(2));
  SLOG(kDebug, "obstest") << "bridge check " << 7;
  ASSERT_EQ(t.event_count(EventKind::kLog), 1u);
  const Event& e = t.events().back();
  EXPECT_EQ(e.detail, "obstest: bridge check 7");
  EXPECT_EQ(e.at_us, 2000000);  // same clock as the tracer
}

// The SLOG contract: a line below the level costs its level check and
// nothing else, a live line evaluates each operand exactly once, and the
// macro is one expression, so a caller's `else` stays on its own `if`.
class SlogTest : public ObsTest {
 protected:
  void capture_lines() {
    sim::Logger::instance().set_sink(
        [this](sim::LogLevel, std::string_view component,
               std::string_view message, const sim::TimePoint*) {
          lines_.push_back(std::string(component) + ": " +
                           std::string(message));
        });
  }
  int counted(int v) {
    ++evaluations_;
    return v;
  }

  int evaluations_ = 0;
  std::vector<std::string> lines_;
};

TEST_F(SlogTest, DeadLineEvaluatesNoOperand) {
  capture_lines();
  sim::Logger::instance().set_level(sim::LogLevel::kInfo);
  SLOG(kDebug, "obstest") << "dead " << counted(1) << counted(2);
  sim::Logger::instance().set_level(sim::LogLevel::kOff);
  SLOG(kError, "obstest") << counted(3);
  EXPECT_EQ(evaluations_, 0);
  EXPECT_TRUE(lines_.empty());
}

TEST_F(SlogTest, LiveLineEvaluatesEachOperandOnceAndBridges) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  sim::Logger::instance().set_level(sim::LogLevel::kDebug);
  testing::internal::CaptureStdout();  // the bridge keeps the console copy
  SLOG(kInfo, "obstest") << "live " << counted(1) << " " << counted(2);
  const std::string console = testing::internal::GetCapturedStdout();
  EXPECT_EQ(evaluations_, 2);
  EXPECT_NE(console.find("[obstest] live 1 2"), std::string::npos);
  ASSERT_EQ(t.event_count(EventKind::kLog), 1u);
  EXPECT_EQ(t.events().back().detail, "obstest: live 1 2");
}

TEST_F(SlogTest, ElseBindsToTheCallersIf) {
  capture_lines();
  for (const sim::LogLevel level : {sim::LogLevel::kDebug,
                                    sim::LogLevel::kOff}) {
    sim::Logger::instance().set_level(level);
    for (const bool c : {true, false}) {
      bool else_ran = false;
      if (c)
        SLOG(kDebug, "obstest") << counted(1);
      else
        else_ran = true;
      EXPECT_EQ(else_ran, !c);
    }
  }
  EXPECT_EQ(evaluations_, 1);  // only the live, taken branch
  EXPECT_EQ(lines_, (std::vector<std::string>{"obstest: 1"}));
}

TEST_F(ObsTest, RegistryCountsAndDumps) {
  Registry& r = Registry::instance();
  r.enable(true);
  r.counter("seed.test.counter").inc();
  r.counter("seed.test.counter").inc(2);
  EXPECT_EQ(r.counter("seed.test.counter").value(), 3u);

  std::stringstream prom;
  r.dump_prometheus(prom);
  EXPECT_EQ(prom.str(),
            "# TYPE seed_test_counter counter\nseed_test_counter 3\n");

  std::stringstream json;
  r.dump_json(json);
  EXPECT_EQ(json.str(), "{\"counters\":{\"seed.test.counter\":3}}\n");
}

// Regression: Samples::clear() used to leave the cached sorted copy (and
// its validity flag) behind, so percentile() after clear+refill answered
// from the PREVIOUS population.
TEST_F(ObsTest, SamplesClearInvalidatesPercentileCache) {
  metrics::Samples s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);  // builds the sorted cache
  s.clear();
  s.add(10.0);
  s.add(20.0);
  s.add(30.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 20.0);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 30.0);
}

// Regression: add() after a percentile query must invalidate the cache
// too, not just grow the raw values.
TEST_F(ObsTest, SamplesAddAfterQueryRefreshesCache) {
  metrics::Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  s.add(50.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
}

// ------------------------------------------------- label cardinality

TEST_F(ObsTest, RegistryCapsLabelCardinality) {
  Registry& r = Registry::instance();
  r.enable(true);
  r.set_series_limit(2);
  for (const char* name :
       {"core.rejects{ue=1}", "core.rejects{ue=2}", "core.rejects{ue=3}",
        "core.rejects{ue=4}", "core.rejects{ue=5}"}) {
    r.counter(name).inc();
  }
  // First two label values got their own series; the other three routed
  // to the shared overflow bucket and were counted as dropped.
  EXPECT_EQ(r.counter("core.rejects{ue=1}").value(), 1u);
  EXPECT_EQ(r.counter("core.rejects{ue=2}").value(), 1u);
  EXPECT_EQ(r.counter("core.rejects{overflow}").value(), 3u);
  EXPECT_EQ(r.series_dropped(), 3u);
  // Existing overflowed series stay routed on later increments.
  r.counter("core.rejects{ue=4}").inc();
  EXPECT_EQ(r.counter("core.rejects{overflow}").value(), 4u);
  // Admitted series are unaffected.
  r.counter("core.rejects{ue=1}").inc();
  EXPECT_EQ(r.counter("core.rejects{ue=1}").value(), 2u);
  // Each base name has its own budget; unlabeled metrics are never capped.
  r.counter("fleet.injections{ue=9}").inc();
  EXPECT_EQ(r.counter("fleet.injections{ue=9}").value(), 1u);
  r.counter("plain.counter").inc();
  EXPECT_EQ(r.counter("plain.counter").value(), 1u);
  r.set_series_limit(0);
}

// A "base{k=v}" series is exposed as a Prometheus label of its base
// family, which gets one # TYPE line even when a dotted sibling sorts
// between its unlabeled and labeled series.
TEST_F(ObsTest, PrometheusRendersLabeledSeriesAsLabels) {
  Registry& r = Registry::instance();
  r.enable(true);
  r.set_series_limit(2);
  for (const char* name :
       {"core.rejects{ue=1}", "core.rejects{ue=2}", "core.rejects{ue=3}"}) {
    r.counter(name).inc();
  }
  r.counter("core.rejects").inc(5);
  r.counter("core.rejects.cplane").inc(7);
  r.counter("sim.depth{shard=a}").inc(2);
  std::stringstream prom;
  r.dump_prometheus(prom);
  EXPECT_EQ(prom.str(),
            "# TYPE core_rejects counter\n"
            "core_rejects 5\n"
            "core_rejects{overflow=\"true\"} 1\n"
            "core_rejects{ue=\"1\"} 1\n"
            "core_rejects{ue=\"2\"} 1\n"
            "# TYPE core_rejects_cplane counter\n"
            "core_rejects_cplane 7\n"
            "# TYPE obs_series_dropped counter\n"
            "obs_series_dropped 1\n"
            "# TYPE sim_depth counter\n"
            "sim_depth{shard=\"a\"} 2\n");
  r.set_series_limit(0);
}

TEST_F(ObsTest, RegistrySeriesLimitZeroIsUnlimited) {
  Registry& r = Registry::instance();
  r.enable(true);
  ASSERT_EQ(r.series_limit(), 0u);
  for (std::uint32_t ue = 1; ue <= 64; ++ue) {
    r.counter("core.rejects{ue=" + std::to_string(ue) + "}").inc();
  }
  EXPECT_EQ(r.series_dropped(), 0u);
  EXPECT_EQ(r.counter("core.rejects{ue=64}").value(), 1u);
}

// --------------------------------------------------- escaping fuzz

// DIAG-DNN payload fragments can drag arbitrary bytes into detail
// fields; every byte value must survive export -> import unchanged.
TEST_F(ObsTest, EscapedJsonlRoundTripsArbitraryBytes) {
  Tracer& t = Tracer::instance();
  t.reset_span_counter();
  t.enable(true);
  sim::Rng rng(20260807);
  std::vector<std::string> details;
  // Every byte value once, then random byte soup.
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  details.push_back(all_bytes);
  for (int i = 0; i < 64; ++i) {
    std::string d;
    const int len = rng.uniform_int(0, 48);
    for (int j = 0; j < len; ++j) {
      d.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    details.push_back(std::move(d));
  }
  for (const std::string& d : details) {
    Event e;
    e.kind = EventKind::kLog;
    e.detail = d;
    t.record_now(std::move(e));
  }
  std::stringstream buf;
  t.export_jsonl(buf);
  // The wire format is pure printable ASCII (valid JSON for any input).
  for (char c : buf.str()) {
    const auto b = static_cast<unsigned char>(c);
    EXPECT_TRUE(b == '\n' || (b >= 0x20 && b < 0x7f)) << int(b);
  }
  const std::vector<Event> back = Tracer::import_jsonl(buf);
  ASSERT_EQ(back.size(), details.size());
  for (std::size_t i = 0; i < details.size(); ++i) {
    EXPECT_EQ(back[i].detail, details[i]) << "detail " << i;
  }
}

// ------------------------------------- adversarial-traffic accounting

TEST_F(ObsTest, AdversarialEventsAssembleIntoSpanCounters) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  // opens the span the events attach to
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 9});
  emit(EventKind::kDecodeRejected, Origin::kInfra, {.cause = 1});
  emit(EventKind::kDecodeRejected, Origin::kModem, {.cause = 4});
  emit(EventKind::kPeerQuarantined, Origin::kInfra, {.cause = 3});
  emit(EventKind::kSuspectReportDropped, Origin::kInfra);

  const std::vector<SpanSummary> spans = t.summarize();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].count(EventKind::kDecodeRejected), 2u);
  EXPECT_EQ(spans[0].count(EventKind::kPeerQuarantined), 1u);
  EXPECT_EQ(spans[0].count(EventKind::kSuspectReportDropped), 1u);

  // The DecodeError reason and the strike count ride in `cause`.
  EXPECT_EQ(t.event_count(EventKind::kDecodeRejected), 2u);
  const auto& ev = t.events();
  EXPECT_EQ(ev[1].cause, 1);
  EXPECT_EQ(ev[2].cause, 4);
  EXPECT_EQ(ev[3].kind, EventKind::kPeerQuarantined);
  EXPECT_EQ(ev[3].cause, 3);
}

TEST_F(ObsTest, PrintSummaryShowsAdversarialColumns) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  emit(EventKind::kFailureInjected, Origin::kTestbed,
       {.plane = 1, .cause = 51});
  emit(EventKind::kDecodeRejected, Origin::kInfra, {.cause = 2});
  emit(EventKind::kDecodeRejected, Origin::kInfra, {.cause = 2});
  emit(EventKind::kPeerQuarantined, Origin::kInfra, {.cause = 1});
  emit(EventKind::kSuspectReportDropped, Origin::kInfra);

  std::stringstream out;
  Tracer::print_summary(out, t.summarize());
  const std::string text = out.str();
  EXPECT_NE(text.find("decode_rejects=2"), std::string::npos) << text;
  EXPECT_NE(text.find("quarantined=1"), std::string::npos) << text;
  EXPECT_NE(text.find("suspect_dropped=1"), std::string::npos) << text;
}

// One event of every kind in one span (plus a second reset issue and a
// second cache lookup, so a failed action, a pending action, a hit and a
// miss all show) pins print_summary's bytes and the per-kind counters.
TEST_F(ObsTest, PrintSummaryPinsEveryKindColumn) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  t.reset_span_counter();
  auto rec = [&t](EventKind kind, std::uint8_t action = 0, bool ok = false) {
    Event e;
    e.kind = kind;
    e.plane = 1;
    e.cause = 33;
    e.action = action;
    e.ok = ok;
    t.record_now(std::move(e));
  };
  rec(EventKind::kFailureInjected);
  advance(sim::ms(12));
  rec(EventKind::kFailureDetected);
  advance(sim::ms(3));
  rec(EventKind::kDiagnosisMade, 5);
  rec(EventKind::kResetIssued, 5);
  advance(sim::us(1500));
  rec(EventKind::kResetCompleted, 5, false);
  rec(EventKind::kTierEscalated, 4);
  rec(EventKind::kResetIssued, 4);
  advance(sim::ms(40));
  rec(EventKind::kRecovered);
  for (std::size_t k = static_cast<std::size_t>(EventKind::kCollabDownlink);
       k <= static_cast<std::size_t>(EventKind::kDiagnosisVerdict); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (kind == EventKind::kTierEscalated) continue;  // recorded above
    rec(kind);
  }
  rec(EventKind::kCacheLookup, 0, true);

  std::stringstream out;
  Tracer::print_summary(out, t.summarize());
  EXPECT_EQ(out.str(),
            "  span  plane cause  detect_ms diagnose_ms recover_ms  actions\n"
            "     1     dp    33     12.000     15.000      56.500  "
            "B2/cplane=1.500ms(fail), B1/hardware=pending  conflicts=1  "
            "rate_limited=1  dl=1  ul=1  chaos=1  retries=1  escalations=1  "
            "watchdog=1  degraded=1  cache=1/2  terminal=1  decode_rejects=1  "
            "quarantined=1  suspect_dropped=1  labels=1  verdicts=1\n");

  const std::vector<SpanSummary> spans = t.summarize();
  ASSERT_EQ(spans.size(), 1u);
  const SpanSummary& s = spans[0];
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    const bool twice = kind == EventKind::kResetIssued ||
                       kind == EventKind::kCacheLookup;
    EXPECT_EQ(s.count(kind), twice ? 2u : 1u) << event_kind_name(kind);
  }
  EXPECT_EQ(s.cache_hits, 1u);
}

TEST_F(ObsTest, AdversarialEventsRoundTripThroughJsonl) {
  Tracer& t = Tracer::instance();
  t.enable(true);
  emit(EventKind::kFailureInjected, Origin::kTestbed, {.plane = 0, .cause = 9});
  emit(EventKind::kDecodeRejected, Origin::kModem, {.cause = 5});
  emit(EventKind::kPeerQuarantined, Origin::kInfra, {.cause = 2});
  emit(EventKind::kSuspectReportDropped, Origin::kInfra);
  std::stringstream buf;
  t.export_jsonl(buf);
  const std::vector<Event> back = Tracer::import_jsonl(buf);
  EXPECT_EQ(back, t.events());
}

}  // namespace
}  // namespace seed::obs

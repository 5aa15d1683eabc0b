// Per-UE flight recorder: bounded rings, blackbox freezing on terminal
// failures, and the end-to-end acceptance path — a chaos-induced
// terminal failure must leave a blackbox holding that UE's last events.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/minijson.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "testbed/testbed.h"

namespace seed {
namespace {

using obs::BlackboxSnapshot;
using obs::Event;
using obs::EventKind;
using obs::FlightRecorder;
using obs::Origin;

Event ev(std::uint32_t ue, std::int64_t at_us, EventKind kind) {
  Event e;
  e.ue = ue;
  e.at_us = at_us;
  e.kind = kind;
  return e;
}

Event terminal(std::uint32_t ue, std::int64_t at_us, const char* reason) {
  Event e = ev(ue, at_us, EventKind::kTerminalFailure);
  e.origin = Origin::kSim;
  e.detail = reason;
  return e;
}

TEST(FlightRecorder_, RingIsBoundedAndBlackboxHoldsLastN) {
  FlightRecorder recorder(4);
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(ev(7, i * 1000, EventKind::kFailureDetected));
  }
  events.push_back(terminal(7, 10'000, "gave up"));
  recorder.ingest(events);

  ASSERT_EQ(recorder.blackboxes().size(), 1u);
  const BlackboxSnapshot& box = recorder.blackboxes().front();
  EXPECT_EQ(box.ue, 7u);
  EXPECT_EQ(box.at_us, 10'000);
  EXPECT_EQ(box.reason, "gave up");
  // Capacity bounds the snapshot: the trigger plus the 3 events before it.
  ASSERT_EQ(box.events.size(), 4u);
  EXPECT_EQ(box.events.front().at_us, 7000);
  EXPECT_EQ(box.events.back().kind, EventKind::kTerminalFailure);
}

TEST(FlightRecorder_, UesKeepSeparateRings) {
  FlightRecorder recorder(8);
  std::vector<Event> events;
  for (int i = 0; i < 3; ++i) {
    events.push_back(ev(1, i * 100, EventKind::kFailureDetected));
    events.push_back(ev(2, i * 100 + 50, EventKind::kResetIssued));
  }
  events.push_back(terminal(1, 1000, "ue1 dies"));
  recorder.ingest(events);

  EXPECT_EQ(recorder.tracked_ues(), 2u);
  ASSERT_EQ(recorder.blackboxes().size(), 1u);
  const BlackboxSnapshot& box = recorder.blackboxes().front();
  EXPECT_EQ(box.ue, 1u);
  ASSERT_EQ(box.events.size(), 4u);  // ue 1's events only, not ue 2's
  for (const Event& e : box.events) EXPECT_EQ(e.ue, 1u);
}

TEST(FlightRecorder_, RepeatedTerminalsEachFreezeABlackbox) {
  FlightRecorder recorder(8);
  recorder.ingest({ev(3, 0, EventKind::kFailureDetected),
                   terminal(3, 100, "watchdog"),
                   ev(3, 200, EventKind::kFailureDetected),
                   terminal(3, 300, "exhausted")});
  ASSERT_EQ(recorder.blackboxes().size(), 2u);
  EXPECT_EQ(recorder.blackboxes()[0].reason, "watchdog");
  EXPECT_EQ(recorder.blackboxes()[0].events.size(), 2u);
  // The ring kept rolling: the second box contains the whole history.
  EXPECT_EQ(recorder.blackboxes()[1].reason, "exhausted");
  EXPECT_EQ(recorder.blackboxes()[1].events.size(), 4u);
}

TEST(FlightRecorder_, LogAndAlertLinesStayOutOfTheRing) {
  FlightRecorder recorder(8);
  Event log = ev(5, 0, EventKind::kLog);
  Event alert = ev(5, 10, EventKind::kSloAlert);
  recorder.ingest({log, alert, ev(5, 20, EventKind::kFailureDetected),
                   terminal(5, 30, "done")});
  ASSERT_EQ(recorder.blackboxes().size(), 1u);
  EXPECT_EQ(recorder.blackboxes().front().events.size(), 2u);
}

TEST(FlightRecorder_, MergeAndDumpAreDeterministic) {
  FlightRecorder a(4), b(4);
  a.ingest({ev(1, 0, EventKind::kFailureDetected), terminal(1, 10, "a")});
  b.ingest({ev(2, 0, EventKind::kFailureDetected), terminal(2, 10, "b")});
  a.merge_from(b);
  ASSERT_EQ(a.blackboxes().size(), 2u);
  std::ostringstream os;
  a.dump_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"blackbox\":{\"ue\":1,"), std::string::npos);
  EXPECT_NE(out.find("{\"blackbox\":{\"ue\":2,"), std::string::npos);
  EXPECT_NE(out.find("\"reason\":\"a\""), std::string::npos);
  // 2 header lines + 2 events per box.
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 6u);
}

// A replayed stream can carry any bytes in a terminal event's detail; the
// blackbox header must still be one parseable JSONL line.
TEST(FlightRecorder_, DumpEscapesControlBytesInTheReason) {
  FlightRecorder recorder(4);
  recorder.ingest({ev(7, 0, EventKind::kFailureDetected),
                   ev(7, 5, EventKind::kFailureDetected),
                   terminal(7, 10, "a\nb\x01")});
  ASSERT_EQ(recorder.blackboxes().size(), 1u);
  const std::size_t n = recorder.blackboxes().front().events.size();
  std::ostringstream os;
  recorder.dump_jsonl(os);
  const std::string out = os.str();
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1 + n);
  const std::string header = out.substr(0, out.find('\n'));
  const minijson::Value doc = minijson::parse(header);
  EXPECT_EQ(doc.at("blackbox").at("reason").as_string(), "a\nb\x01");
  EXPECT_EQ(doc.at("blackbox").at("events").as_int(),
            static_cast<std::int64_t>(n));
}

// ------------------------------------------- acceptance (integration)

// A chaos config that pins every SEED-U reset action (A1-A3) to fail:
// the hardened ladder runs out of rungs and the failure goes terminal.
TEST(FlightRecorder_, ChaosExhaustionLeavesABlackbox) {
  obs::Tracer& t = obs::Tracer::instance();
  t.enable(false);
  t.clear();
  t.reset_span_counter();
  FlightRecorder recorder(32);

  testbed::Testbed tb(/*seed=*/42, device::Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  chaos::ChaosConfig cfg;
  cfg.action_fail[1] = 1.0;  // A1 modem restart
  cfg.action_fail[2] = 1.0;  // A2 config update
  cfg.action_fail[3] = 1.0;  // A3 SIM refresh
  tb.enable_chaos(cfg);
  tb.bring_up();

  t.enable(true);
  t.add_observer(&recorder);
  (void)tb.run_cp_failure(testbed::CpFailure::kOutdatedPlmn);
  t.remove_observer(&recorder);

  // Every recovery rung failed, so SEED went terminal (ladder exhaustion
  // or watchdog abandonment) and the recorder froze a blackbox with the
  // UE's final moments.
  ASSERT_FALSE(recorder.blackboxes().empty());
  const BlackboxSnapshot& box = recorder.blackboxes().front();
  ASSERT_FALSE(box.events.empty());
  EXPECT_LE(box.events.size(), recorder.capacity());
  EXPECT_EQ(box.events.back().kind, EventKind::kTerminalFailure);
  EXPECT_FALSE(box.reason.empty());
  // The trail leads up to the terminal event: at least one reset attempt
  // should be visible in the final window.
  bool saw_reset = false;
  for (const Event& e : box.events) {
    saw_reset |= e.kind == EventKind::kResetIssued;
  }
  EXPECT_TRUE(saw_reset);

  t.enable(false);
  t.clear();
}

}  // namespace
}  // namespace seed

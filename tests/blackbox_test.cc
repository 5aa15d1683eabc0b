// Post-mortem blackboxes (obs::blackboxes): bounded per-UE rings frozen
// on terminal failures, and the end-to-end acceptance path — a
// chaos-induced terminal failure must leave a blackbox holding that UE's
// last events, in memory and after a JSONL round trip alike.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/minijson.h"
#include "obs/trace.h"
#include "testbed/testbed.h"

namespace seed {
namespace {

using obs::Blackbox;
using obs::Event;
using obs::EventKind;
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

std::string dump(const std::vector<Blackbox>& boxes) {
  std::ostringstream os;
  obs::export_blackboxes_jsonl(os, boxes);
  return os.str();
}

TEST(Blackboxes, RingIsBoundedAndBlackboxHoldsLastN) {
  std::vector<Event> events;
  for (int i = 0; i < 70; ++i) {
    events.push_back(ev(7, i * 1000, EventKind::kFailureDetected));
  }
  events.push_back(terminal(7, 70'000, "gave up"));
  const std::vector<Blackbox> boxes = obs::blackboxes(events);

  ASSERT_EQ(boxes.size(), 1u);
  const Blackbox& box = boxes.front();
  // The depth bounds the snapshot: the trigger plus the 63 events before.
  ASSERT_EQ(box.size(), obs::kBlackboxDepth);
  EXPECT_EQ(box.front().at_us, 7000);
  EXPECT_EQ(box.back().kind, EventKind::kTerminalFailure);
  EXPECT_EQ(box.back().ue, 7u);
  EXPECT_EQ(box.back().at_us, 70'000);
  EXPECT_EQ(box.back().detail, "gave up");
}

TEST(Blackboxes, UesKeepSeparateRings) {
  std::vector<Event> events;
  for (int i = 0; i < 3; ++i) {
    events.push_back(ev(1, i * 100, EventKind::kFailureDetected));
    events.push_back(ev(2, i * 100 + 50, EventKind::kResetIssued));
  }
  events.push_back(terminal(1, 1000, "ue1 dies"));
  const std::vector<Blackbox> boxes = obs::blackboxes(events);

  ASSERT_EQ(boxes.size(), 1u);
  ASSERT_EQ(boxes.front().size(), 4u);  // ue 1's events only, not ue 2's
  for (const Event& e : boxes.front()) EXPECT_EQ(e.ue, 1u);
}

TEST(Blackboxes, RepeatedTerminalsEachFreezeABlackbox) {
  const std::vector<Blackbox> boxes = obs::blackboxes(
      {ev(3, 0, EventKind::kFailureDetected), terminal(3, 100, "watchdog"),
       ev(3, 200, EventKind::kFailureDetected),
       terminal(3, 300, "exhausted")});
  ASSERT_EQ(boxes.size(), 2u);
  EXPECT_EQ(boxes[0].back().detail, "watchdog");
  EXPECT_EQ(boxes[0].size(), 2u);
  // The ring kept rolling: the second box contains the whole history.
  EXPECT_EQ(boxes[1].back().detail, "exhausted");
  EXPECT_EQ(boxes[1].size(), 4u);
}

TEST(Blackboxes, LogAndAlertLinesStayOutOfTheRing) {
  const std::vector<Blackbox> boxes = obs::blackboxes(
      {ev(5, 0, EventKind::kLog), ev(5, 10, EventKind::kSloAlert),
       ev(5, 20, EventKind::kFailureDetected), terminal(5, 30, "done")});
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes.front().size(), 2u);
}

// A replayed stream can carry any bytes in a terminal event's detail; the
// blackbox header must still be one parseable JSONL line.
TEST(Blackboxes, DumpEscapesControlBytesInTheReason) {
  const std::vector<Blackbox> boxes = obs::blackboxes(
      {ev(7, 0, EventKind::kFailureDetected),
       ev(7, 5, EventKind::kFailureDetected), terminal(7, 10, "a\nb\x01")});
  ASSERT_EQ(boxes.size(), 1u);
  const std::size_t n = boxes.front().size();
  const std::string out = dump(boxes);
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1 + n);
  const std::string header = out.substr(0, out.find('\n'));
  const minijson::Value doc = minijson::parse(header);
  EXPECT_EQ(doc.at("blackbox").at("ue").as_int(), 7);
  EXPECT_EQ(doc.at("blackbox").at("at_us").as_int(), 10);
  EXPECT_EQ(doc.at("blackbox").at("reason").as_string(), "a\nb\x01");
  EXPECT_EQ(doc.at("blackbox").at("events").as_int(),
            static_cast<std::int64_t>(n));
}

// ------------------------------------------- acceptance (integration)

// A chaos config that pins every SEED-U reset action (A1-A3) to fail:
// the hardened ladder runs out of rungs and the failure goes terminal.
std::vector<Event> chaos_exhaustion_capture() {
  obs::Tracer& t = obs::Tracer::instance();
  t.enable(false);
  t.clear();
  t.reset_span_counter();

  testbed::Testbed tb(/*seed=*/42, device::Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  chaos::ChaosConfig cfg;
  cfg.action_fail[1] = 1.0;  // A1 modem restart
  cfg.action_fail[2] = 1.0;  // A2 config update
  cfg.action_fail[3] = 1.0;  // A3 SIM refresh
  tb.enable_chaos(cfg);
  tb.bring_up();

  t.enable(true);
  (void)tb.run_cp_failure(testbed::CpFailure::kOutdatedPlmn);
  t.enable(false);
  std::vector<Event> events = t.events();
  t.clear();
  return events;
}

TEST(Blackboxes, ChaosExhaustionLeavesABlackbox) {
  const std::vector<Blackbox> boxes =
      obs::blackboxes(chaos_exhaustion_capture());

  // Every recovery rung failed, so SEED went terminal (ladder exhaustion
  // or watchdog abandonment) and the view froze a blackbox with the
  // UE's final moments.
  ASSERT_FALSE(boxes.empty());
  const Blackbox& box = boxes.front();
  ASSERT_FALSE(box.empty());
  EXPECT_LE(box.size(), obs::kBlackboxDepth);
  EXPECT_EQ(box.back().kind, EventKind::kTerminalFailure);
  EXPECT_FALSE(box.back().detail.empty());
  // The trail leads up to the terminal event: at least one reset attempt
  // should be visible in the final window.
  bool saw_reset = false;
  for (const Event& e : box) saw_reset |= e.kind == EventKind::kResetIssued;
  EXPECT_TRUE(saw_reset);
}

// The view reads a replayed capture the same as a live one: boxes built
// from an export_jsonl -> import_jsonl round trip dump the same bytes.
TEST(Blackboxes, JsonlRoundTripYieldsTheSameBoxes) {
  const std::vector<Event> events = chaos_exhaustion_capture();
  std::stringstream jsonl;
  for (const Event& e : events) obs::export_event_jsonl(jsonl, e);
  const std::vector<Event> replayed = obs::Tracer::import_jsonl(jsonl);
  ASSERT_EQ(replayed.size(), events.size());

  const std::vector<Blackbox> live = obs::blackboxes(events);
  ASSERT_FALSE(live.empty());
  EXPECT_EQ(dump(obs::blackboxes(replayed)), dump(live));
}

}  // namespace
}  // namespace seed

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "metrics/stats.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(ms(30), [&] { order.push_back(3); });
  sim.schedule_after(ms(10), [&] { order.push_back(1); });
  sim.schedule_after(ms(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().time_since_epoch(), ms(30));
}

TEST(Simulator, FifoOnTies) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(ms(5), [&] { order.push_back(1); });
  sim.schedule_after(ms(5), [&] { order.push_back(2); });
  sim.schedule_after(ms(5), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const TimerId id = sim.schedule_after(ms(10), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule_after(seconds(1), tick);
  };
  sim.schedule_after(seconds(1), tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().time_since_epoch(), seconds(5));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.schedule_after(seconds(1), [&] { ++count; });
  sim.schedule_after(seconds(3), [&] { ++count; });
  sim.run_until(kTimeZero + seconds(2));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now().time_since_epoch(), seconds(2));
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunForAdvancesEvenWithoutEvents) {
  Simulator sim;
  sim.run_for(seconds(7));
  EXPECT_EQ(sim.now().time_since_epoch(), seconds(7));
}

TEST(Simulator, StopHaltsLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule_after(ms(1), [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_after(ms(2), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.run_for(seconds(10));
  bool fired = false;
  sim.schedule_at(kTimeZero + seconds(1), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().time_since_epoch(), seconds(10));
}

TEST(Simulator, EventBudgetThrows) {
  Simulator sim;
  sim.set_event_budget(10);
  std::function<void()> forever = [&] { sim.schedule_after(ms(1), forever); };
  sim.schedule_after(ms(1), forever);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, NextEventTimeSkipsCancelledEvents) {
  Simulator sim;
  EXPECT_FALSE(sim.next_event_time().has_value());
  const TimerId early = sim.schedule_after(ms(5), [] {});
  sim.schedule_after(ms(9), [] {});
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), kTimeZero + ms(5));
  sim.cancel(early);
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), kTimeZero + ms(9));
  sim.run();
  EXPECT_FALSE(sim.next_event_time().has_value());
}

TEST(Simulator, GenerationTagInvalidatesRecycledIds) {
  Simulator sim;
  bool a = false, b = false;
  const TimerId id1 = sim.schedule_after(ms(1), [&] { a = true; });
  sim.run();
  EXPECT_TRUE(a);
  EXPECT_FALSE(sim.pending(id1));
  // The freed slot is recycled (LIFO free list): same slot bits, bumped
  // generation.
  const TimerId id2 = sim.schedule_after(ms(1), [&] { b = true; });
  EXPECT_EQ(id1 & 0xffffffffULL, id2 & 0xffffffffULL);
  EXPECT_NE(id1, id2);
  EXPECT_FALSE(sim.pending(id1));
  EXPECT_FALSE(sim.cancel(id1));  // a stale handle can't kill the new timer
  EXPECT_TRUE(sim.pending(id2));
  sim.run();
  EXPECT_TRUE(b);
}

TEST(Simulator, FifoTiesSurviveSlotRecycling) {
  Simulator sim;
  // Scramble the free list first so recycled slot order differs from
  // schedule order.
  std::vector<TimerId> churn;
  for (int i = 0; i < 16; ++i) {
    churn.push_back(sim.schedule_after(ms(100), [] {}));
  }
  for (int i = 15; i >= 0; --i) EXPECT_TRUE(sim.cancel(churn[i]));
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_after(ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  std::vector<int> want(16);
  for (int i = 0; i < 16; ++i) want[i] = i;
  EXPECT_EQ(order, want);
}

/// Reference model of the run queue for the churn test below: the pending
/// timers keyed by (at_us, schedule order), plus a fixed bank of
/// sim::Timer objects. Every schedule goes through it, so it knows each
/// event's key; a firing event checks that it is the model's smallest key,
/// which pins the exact order (FIFO ties included), not just the fired set.
/// Mismatches are recorded, not asserted, so a broken queue reports its
/// first divergence once instead of once per later event.
class QueueModel {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at_us, seq)

  QueueModel(Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {
    for (auto& t : timers_) t.timer = std::make_unique<Timer>(sim_);
  }

  /// Plain schedule_after, mirrored in the model.
  void schedule(Duration delay) {
    const Key k = next_key(delay);
    const TimerId id = sim_.schedule_after(delay, [this, k] { fire(k); });
    ids_.emplace(k, id);
    ++scheduled_;
    check();
  }

  /// Re-arms one of the bank's Timers: the previous key (if still
  /// pending) leaves the queue, the new one joins it.
  void rearm(std::size_t which, Duration delay) {
    Bank& b = timers_[which];
    if (b.key) {
      expect(ids_.erase(*b.key) == 1, "re-armed timer was not pending");
      ++cancelled_;
    }
    const Key k = next_key(delay);
    b.timer->arm(delay, [this, which, k] {
      timers_[which].key.reset();
      fire(k);
      // A protocol timer often re-arms itself from its own expiry.
      if (rng_.chance(0.3)) rearm(which, random_delay());
    });
    b.key = k;
    ids_.emplace(k, kInvalidTimer);
    ++scheduled_;
    check();
  }

  /// Cancels a random pending plain timer, if any.
  void cancel_random() {
    std::vector<std::map<Key, TimerId>::iterator> plain;
    for (auto it = ids_.begin(); it != ids_.end(); ++it) {
      if (it->second != kInvalidTimer) plain.push_back(it);
    }
    if (plain.empty()) return;
    const auto it = plain[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(plain.size()) - 1))];
    const TimerId id = it->second;
    expect(sim_.cancel(id), "cancel of a pending timer returned false");
    expect(!sim_.pending(id), "cancelled timer still pending");
    ids_.erase(it);
    dead_.push_back(id);
    ++cancelled_;
    check();
  }

  /// Cancels an id that already fired or was cancelled: a no-op.
  void cancel_dead() {
    if (dead_.empty()) return;
    const TimerId id = dead_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(dead_.size()) - 1))];
    expect(!sim_.cancel(id), "cancel of a dead id returned true");
    check();
  }

  Duration random_delay() {
    // A coarse grid makes equal times (FIFO ties) common.
    if (rng_.chance(0.15)) return Duration{0};
    return us(100 * rng_.uniform_int(0, 300));
  }

  /// Compares queued(), pending(), armed() and the next event time with
  /// the model.
  void check() {
    expect(sim_.queued() == ids_.size(), "queued() != model size");
    const auto next = sim_.next_event_time();
    if (ids_.empty()) {
      expect(!next.has_value(), "next event time on an empty model");
    } else {
      expect(next.has_value() &&
                 next->time_since_epoch().count() == ids_.begin()->first.first,
             "next event time != model's first key");
    }
    for (const auto& [k, id] : ids_) {
      if (id != kInvalidTimer) expect(sim_.pending(id), "live id not pending");
    }
    for (const Bank& b : timers_) {
      expect(b.timer->armed() == b.key.has_value(), "Timer::armed() mismatch");
    }
    const std::size_t tail = std::min<std::size_t>(dead_.size(), 32);
    for (std::size_t i = dead_.size() - tail; i < dead_.size(); ++i) {
      expect(!sim_.pending(dead_[i]), "dead id pending");
    }
  }

  const std::string& first_error() const { return error_; }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t cancelled() const { return cancelled_; }
  bool empty() const { return ids_.empty(); }
  std::size_t bank_size() const { return timers_.size(); }

 private:
  struct Bank {
    std::unique_ptr<Timer> timer;
    std::optional<Key> key;  // pending key, if armed
  };

  Key next_key(Duration delay) {
    return {(sim_.now() + delay).time_since_epoch().count(), seq_++};
  }

  void fire(const Key& k) {
    ++fired_;
    expect(!ids_.empty() && ids_.begin()->first == k,
           "fired out of (time, seq) order");
    expect(sim_.now().time_since_epoch().count() == k.first,
           "fired at the wrong time");
    const auto it = ids_.find(k);
    if (it == ids_.end()) return;
    const TimerId self = it->second;
    ids_.erase(it);
    if (self != kInvalidTimer) {
      dead_.push_back(self);
      // The running event is no longer pending: cancelling it is a no-op.
      expect(!sim_.cancel(self), "running event cancelled itself");
    }
    check();
    // Churn from inside the callback.
    if (rng_.chance(0.3)) schedule(random_delay());
    if (rng_.chance(0.2)) cancel_random();
    if (rng_.chance(0.1)) cancel_dead();
    if (rng_.chance(0.1)) {
      rearm(static_cast<std::size_t>(rng_.uniform_int(
                0, static_cast<std::int64_t>(timers_.size()) - 1)),
            random_delay());
    }
  }

  void expect(bool cond, const char* what) {
    if (cond || !error_.empty()) return;
    error_ = std::string(what) + " at event " + std::to_string(fired_) +
             ", t=" + std::to_string(sim_.now().time_since_epoch().count());
  }

  Simulator& sim_;
  Rng rng_;
  std::map<Key, TimerId> ids_;  // pending keys; kInvalidTimer = bank Timer
  std::array<Bank, 8> timers_;
  std::vector<TimerId> dead_;   // fired or cancelled plain ids
  std::uint64_t seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::string error_;
};

TEST(Simulator, SlabStressScheduleCancelInterleaving) {
  // Randomized churn across many free-list recyclings, checked step by
  // step against QueueModel: exact (time, seq) firing order, cancels from
  // the driver and from inside callbacks (of pending, already-dead and
  // the running event's own ids), and sim::Timer re-arms.
  for (const std::uint64_t seed : {99u, 1u, 7u, 2024u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulator sim;
    Rng rng(seed);
    QueueModel model(sim, seed + 1);
    for (int round = 0; round < 40; ++round) {
      for (int k = 0; k < 100; ++k) model.schedule(model.random_delay());
      for (int k = 0; k < 30; ++k) model.cancel_random();
      for (std::size_t t = 0; t < model.bank_size(); ++t) {
        if (rng.chance(0.5)) model.rearm(t, model.random_delay());
      }
      model.cancel_dead();
      sim.run_for(us(rng.uniform_int(0, 20'000)));
      model.check();
      ASSERT_EQ(model.first_error(), "") << "round " << round;
    }
    sim.run();
    model.check();
    ASSERT_EQ(model.first_error(), "");
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(model.fired() + model.cancelled(), model.scheduled());
    EXPECT_EQ(sim.events_processed(), model.fired());
    EXPECT_GT(model.cancelled(), 1000u);
  }
}

TEST(Simulator, EventBudgetThrowMidHeapConsumesThrowingEvent) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 20; ++i) {
    sim.schedule_after(ms(i + 1), [&] { ++count; });
  }
  sim.set_event_budget(5);
  EXPECT_THROW(sim.run(), std::runtime_error);
  // The 6th event tripped the budget after being popped: consumed but
  // never executed (the seed implementation's exact semantics).
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.queued(), 14u);
  sim.set_event_budget(1'000'000);
  sim.run();
  EXPECT_EQ(count, 19);
}

TEST(PollUntil, HoldingAtTheCallTakesNoStep) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(ms(10), [&] { fired = true; });
  EXPECT_TRUE(sim.poll_until([] { return true; }, ms(50), kTimeZero + ms(1)));
  EXPECT_EQ(sim.now(), kTimeZero);
  EXPECT_FALSE(fired);
}

TEST(PollUntil, OffGridEventExitsAtTheNextGridInstant) {
  Simulator sim;
  sim.run_for(seconds(1));
  const TimePoint t0 = sim.now();
  bool done = false;
  int evals = 0;
  sim.schedule_after(ms(130), [&] { done = true; });
  EXPECT_TRUE(sim.poll_until([&] { ++evals; return done; }, ms(50),
                             t0 + seconds(1)));
  EXPECT_EQ(sim.now(), t0 + ms(150));
  EXPECT_EQ(evals, 2);  // +0 and +150 ms; +50 and +100 ms precede the event
}

TEST(PollUntil, IdleGapIsSkipped) {
  Simulator sim;
  sim.run_for(ms(3));
  const TimePoint t0 = sim.now();
  bool done = false;
  int evals = 0;
  sim.schedule_after(minutes(40), [&] { done = true; });
  EXPECT_TRUE(sim.poll_until([&] { ++evals; return done; }, ms(50),
                             t0 + minutes(41)));
  // Same exit instant as evaluating at all 48,001 grid instants.
  EXPECT_EQ(sim.now(), t0 + minutes(40));
  EXPECT_EQ(evals, 2);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(PollUntil, NonPositiveStepThrows) {
  Simulator sim;
  int evals = 0;
  const auto done = [&] { ++evals; return false; };
  EXPECT_THROW(sim.poll_until(done, Duration{0}, kTimeZero + seconds(1)),
               std::invalid_argument);
  EXPECT_THROW(sim.poll_until(done, us(-1), kTimeZero + seconds(1)),
               std::invalid_argument);
  EXPECT_EQ(evals, 0);
  EXPECT_EQ(sim.now(), kTimeZero);
}

TEST(PollUntil, NeverTrueStopsAtTheFirstGridInstantPastTheDeadline) {
  Simulator sim;
  int ticks = 0;
  int evals = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.schedule_after(ms(7), tick);
  };
  sim.schedule_after(ms(7), tick);
  EXPECT_FALSE(sim.poll_until([&] { ++evals; return false; }, ms(50),
                              kTimeZero + ms(120)));
  EXPECT_EQ(sim.now(), kTimeZero + ms(150));
  EXPECT_EQ(evals, 4);   // 0, 50, 100, 150 ms
  EXPECT_EQ(ticks, 21);  // every tick up to 147 ms ran
}

TEST(PollUntil, EmptyQueueWithADeadlineTerminates) {
  Simulator sim;
  EXPECT_FALSE(sim.poll_until([] { return false; }, ms(100),
                              kTimeZero + minutes(10)));
  EXPECT_EQ(sim.now(), kTimeZero + minutes(10));
  EXPECT_EQ(sim.queued(), 0u);
}

// Reference for poll_until: evaluates done() at every grid instant.
template <class Done>
bool poll_every_instant(Simulator& sim, Done done, Duration step,
                        TimePoint deadline) {
  for (;; sim.run_for(step)) {
    if (done()) return true;
    if (sim.now() >= deadline) return false;
  }
}

// A random schedule that replays identically on any simulator. Times are
// offsets from t0, the (off-grid) instant the poll starts.
struct PollSchedule {
  struct Event {
    Duration at{0};
    bool cancelled = false;  // cancelled before the poll starts
    int cancels = -1;        // index of an event this one cancels
    bool stop = false;       // calls Simulator::stop()
    int chain = 0;           // follow-up events, each `chain_gap` later
    Duration chain_gap{0};
  };
  Duration lead{0};
  Duration step{1};
  Duration horizon{0};  // deadline - t0
  int target = 0;       // done() once this many events ran
  std::vector<Event> events;
};

PollSchedule random_schedule(std::uint64_t seed) {
  Rng rng(seed);
  PollSchedule s;
  s.lead = us(rng.uniform_int(0, 3'000'000));
  const Duration kSteps[] = {us(1), us(7), ms(1), ms(20), ms(50), seconds(1)};
  s.step = rng.chance(0.5) ? kSteps[rng.uniform_int(0, 5)]
                           : us(rng.uniform_int(1, 1'500'000));
  // At most 20,001 grid instants before the deadline keeps the reference
  // loop cheap; a handful of events in that span leaves long idle gaps.
  s.horizon = s.step * rng.uniform_int(0, 20'000);
  if (rng.chance(0.5)) s.horizon += us(rng.uniform_int(0, s.step.count() - 1));
  const auto random_at = [&] {
    const double u = rng.uniform();
    if (u < 0.25) return s.step * rng.uniform_int(0, s.horizon / s.step + 2);
    if (u < 0.35) return s.horizon;
    if (u < 0.45) return Duration{0};  // pending at now() when the call starts
    if (u < 0.85) return us(rng.uniform_int(0, s.horizon.count()));
    return s.horizon + us(rng.uniform_int(1, 10 * s.step.count()));
  };
  const int n = rng.chance(0.1) ? 0 : static_cast<int>(rng.uniform_int(1, 30));
  for (int i = 0; i < n; ++i) {
    PollSchedule::Event e;
    e.at = random_at();
    e.stop = rng.chance(0.05);
    if (rng.chance(0.15)) {
      e.chain = static_cast<int>(rng.uniform_int(1, 5));
      e.chain_gap = rng.chance(0.5) ? us(rng.uniform_int(0, s.step.count()))
                                    : us(rng.uniform_int(0, s.horizon.count()));
    }
    s.events.push_back(e);
  }
  // Cancel storm: at least 64 queued timers, most of them cancelled before
  // they fire, so keys leave the run queue from its middle.
  if (rng.chance(0.3)) {
    const int fill = static_cast<int>(rng.uniform_int(64, 200));
    for (int i = 0; i < fill; ++i) {
      PollSchedule::Event e;
      e.at = random_at();
      e.cancelled = rng.chance(0.8);
      s.events.push_back(e);
    }
  }
  const int total = static_cast<int>(s.events.size());
  for (auto& e : s.events) {
    if (total > 0 && rng.chance(0.1)) {
      e.cancels = static_cast<int>(rng.uniform_int(0, total - 1));
    }
  }
  const double u = rng.uniform();
  s.target = u < 0.15   ? 0                        // holds at the call
             : u < 0.3  ? std::numeric_limits<int>::max()  // never holds
                        : static_cast<int>(rng.uniform_int(1, total + 4));
  return s;
}

struct PollRun {
  bool result = false;
  Duration exit{0};  // now() - t0 when the poll returned
  std::uint64_t processed = 0;
  std::vector<int> order;  // event ids in execution order at the return
  int evals = 0;
  std::uint64_t drained = 0;  // events_processed() once the queue is empty
  std::vector<int> drained_order;
};

template <class Poll>
PollRun replay(const PollSchedule& s, Poll poll) {
  Simulator sim;
  sim.run_for(s.lead);
  const TimePoint t0 = sim.now();
  PollRun r;
  std::vector<int> log;  // event ids in execution order
  std::vector<TimerId> ids(s.events.size());
  std::function<void(int, int, Duration)> follow = [&](int id, int left,
                                                        Duration gap) {
    log.push_back(id);
    if (left > 0) {
      sim.schedule_after(gap, [&, id, left, gap] {
        follow(id + 1000, left - 1, gap);
      });
    }
  };
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const auto& e = s.events[i];
    ids[i] = sim.schedule_at(t0 + e.at, [&, i] {
      const auto& ev = s.events[i];
      if (ev.cancels >= 0) sim.cancel(ids[static_cast<std::size_t>(ev.cancels)]);
      if (ev.stop) sim.stop();
      follow(static_cast<int>(i), ev.chain, ev.chain_gap);
    });
  }
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (s.events[i].cancelled) sim.cancel(ids[i]);
  }
  const auto done = [&] {
    ++r.evals;
    return static_cast<int>(log.size()) >= s.target;
  };
  r.result = poll(sim, done, s.step, t0 + s.horizon);
  r.exit = sim.now() - t0;
  r.processed = sim.events_processed();
  r.order = log;
  while (sim.queued() > 0) sim.run();
  r.drained = sim.events_processed();
  r.drained_order = log;
  return r;
}

TEST(PollUntil, MatchesEvaluatingAtEveryGridInstant) {
  std::int64_t fast_evals = 0;
  std::int64_t naive_evals = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    const PollSchedule s = random_schedule(seed);
    const PollRun naive = replay(s, [](Simulator& sim, auto done, Duration step,
                                       TimePoint deadline) {
      return poll_every_instant(sim, done, step, deadline);
    });
    const PollRun fast = replay(s, [](Simulator& sim, auto done, Duration step,
                                      TimePoint deadline) {
      return sim.poll_until(done, step, deadline);
    });
    ASSERT_EQ(fast.result, naive.result);
    ASSERT_EQ(fast.exit.count(), naive.exit.count());
    ASSERT_EQ(fast.processed, naive.processed);
    ASSERT_EQ(fast.order, naive.order);
    ASSERT_EQ(fast.drained, naive.drained);
    ASSERT_EQ(fast.drained_order, naive.drained_order);
    // Every evaluation past the first follows a step that ran an event or
    // reached the deadline: no idle instant is evaluated.
    ASSERT_LE(fast.evals, static_cast<int>(fast.processed) + 2);
    fast_evals += fast.evals;
    naive_evals += naive.evals;
  }
  EXPECT_LT(fast_evals * 10, naive_evals);
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator sim;
  Timer t(sim);
  int hits = 0;
  t.arm(ms(10), [&] { ++hits; });
  t.arm(ms(20), [&] { hits += 10; });
  sim.run();
  EXPECT_EQ(hits, 10);
}

TEST(Timer, DestructionCancels) {
  Simulator sim;
  bool fired = false;
  {
    Timer t(sim);
    t.arm(ms(10), [&] { fired = true; });
  }
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, StaleHandleAfterFireRearmRegression) {
  // Regression for slab-slot recycling: after a timer fires, its slot can
  // be handed to a completely unrelated timer. The generation tag inside
  // TimerId must keep the stale handle inert — armed() false, cancel() a
  // no-op that does not kill the squatter.
  Simulator sim;
  Timer t(sim);
  int hits = 0;
  t.arm(ms(1), [&] { ++hits; });
  sim.run();
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(t.armed());
  // A foreign timer recycles the slot the Timer's handle still points at.
  const TimerId foreign = sim.schedule_after(ms(1), [] {});
  EXPECT_FALSE(t.armed());  // without generation tags this reads true
  // Re-arm goes through cancel() on the stale id — the foreign timer
  // must survive it.
  t.arm(ms(2), [&] { hits += 10; });
  EXPECT_TRUE(sim.pending(foreign));
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(hits, 11);
}

TEST(Timer, ArmedReflectsState) {
  Simulator sim;
  Timer t(sim);
  EXPECT_FALSE(t.armed());
  t.arm(ms(5), [] {});
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_FALSE(t.armed());
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(seconds(2), ms(2000));
  EXPECT_EQ(minutes(1), seconds(60));
  EXPECT_DOUBLE_EQ(to_seconds(ms(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(us(2500)), 2.5);
  EXPECT_EQ(secs_f(0.5), ms(500));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    saw_lo |= (v == 3);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  metrics::Samples s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng rng(17);
  metrics::Samples s;
  for (int i = 0; i < 100000; ++i) s.add(rng.lognormal_median(4.0, 0.8));
  EXPECT_NEAR(s.median(), 4.0, 0.15);
}

TEST(Rng, WeightedIndexDistribution) {
  Rng rng(19);
  const std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> hits(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hits[rng.weighted_index(w)];
  EXPECT_NEAR(hits[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(hits[1] / double(n), 0.3, 0.015);
  EXPECT_NEAR(hits[2] / double(n), 0.6, 0.015);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{0, 0}),
               std::invalid_argument);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{-1, 2}),
               std::invalid_argument);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng a(31);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
  const std::vector<int> one = {9};
  EXPECT_EQ(rng.pick(one), 9);
}

TEST(Stats, Percentiles) {
  metrics::Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Stats, EmptyThrows) {
  metrics::Samples s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(Stats, CdfAt) {
  metrics::Samples s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(Stats, CdfSeriesMonotone) {
  metrics::Samples s;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) s.add(rng.exponential(2.0));
  const auto series = metrics::make_cdf(s, "test", 40);
  ASSERT_EQ(series.x.size(), 40u);
  for (std::size_t i = 1; i < series.y.size(); ++i) {
    EXPECT_LE(series.y[i - 1], series.y[i]);
  }
  EXPECT_DOUBLE_EQ(series.y.back(), 1.0);
}

TEST(Stats, SingleSample) {
  metrics::Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

}  // namespace
}  // namespace seed::sim

// Single-threaded discrete-event simulator.
//
// Events are closures ordered by (time, insertion sequence); ties execute
// in FIFO order, which keeps every experiment deterministic for a fixed
// RNG seed. Timers are cancellable via the TimerId returned at schedule
// time.
//
// Hot-path layout: timer entries live in a slab (a vector of slots
// recycled through a free list) with the callback stored inline, and the
// run queue is a 4-ary min-heap of (time, seq, slot) keys that holds
// exactly the pending timers. Each slot records its key's heap position,
// so `cancel` removes the key in O(log n) the same way a pop does: the
// last key fills the hole and sifts up or down. A TimerId packs the slot
// index with a generation tag that is bumped every time the slot is
// released, so `cancel`/`pending` are O(1) array probes with no hashing
// and stale handles to a recycled slot can never alias a newer timer.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "simcore/time.h"

namespace seed::sim {

/// Packed timer handle: low 32 bits hold the slab slot index + 1 (so the
/// zero id stays invalid), high 32 bits hold the slot's generation at
/// allocation time.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Attribution that rides along the event graph: schedule_at captures the
/// context current at schedule time, and while an event's callback runs
/// the simulator restores it. Set once around a root action (e.g.
/// powering UE #7 on, injecting failure #3) and every transitively
/// scheduled callback — modem timers, core handlers, applet plans —
/// carries it with zero per-layer plumbing. Zero fields are the steady
/// state of single-UE runs.
struct Context {
  std::uint32_t tag = 0;    // per-UE tag (UE index + 1); 0 = untagged
  std::uint32_t label = 0;  // ground-truth label (cause family + injection
                            // ordinal); 0 = unlabeled
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }
  /// Stable reference for the logger's timestamp source.
  const TimePoint& now_ref() const { return now_; }

  /// Schedules `cb` at absolute time `t` (clamped to now if in the past).
  TimerId schedule_at(TimePoint t, Callback cb);

  /// Schedules `cb` after `d` from now.
  TimerId schedule_after(Duration d, Callback cb) {
    return schedule_at(now_ + (d.count() > 0 ? d : Duration{0}), std::move(cb));
  }

  /// Cancels a pending timer. Returns false if already fired/cancelled.
  bool cancel(TimerId id);

  /// True if `id` is still pending.
  bool pending(TimerId id) const { return lookup(id) != nullptr; }

  /// Runs until the queue drains, `stop()` is called, or the event budget
  /// (default: effectively unlimited) is exhausted.
  void run();

  /// Runs events with time <= t, then sets now to t.
  void run_until(TimePoint t);

  void run_for(Duration d) { run_until(now_ + d); }

  /// Evaluates `done()` at now() and after each run_for(step) until it
  /// holds or now() >= deadline; returns the last result. Grid instants
  /// before the next live event are skipped unevaluated: exact only because
  /// `done()` must be a pure function of state that only events change (a
  /// `done()` reading now() is wrong). Throws std::invalid_argument if
  /// `step` is not positive.
  template <class Done>
  bool poll_until(Done done, Duration step, TimePoint deadline) {
    if (step <= Duration{0}) {
      throw std::invalid_argument("poll_until: step must be positive");
    }
    for (;; run_for(step)) {
      if (done()) return true;
      if (now_ >= deadline) return false;
      // No event before `horizon`: skip the grid instants short of it.
      const auto next = next_event_time();
      const TimePoint horizon = next && *next < deadline ? *next : deadline;
      const auto k = (horizon - now_ - Duration{1}) / step;
      if (k > 0) now_ += k * step;
    }
  }

  /// Stops the run loop after the current event returns.
  void stop() { stopped_ = true; }

  /// Time of the next pending event, or nullopt if the queue is empty.
  std::optional<TimePoint> next_event_time() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().at;
  }

  /// Number of pending timers.
  std::size_t queued() const { return heap_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Guard against runaway simulations; run() throws std::runtime_error
  /// when exceeded.
  void set_event_budget(std::uint64_t budget) { budget_ = budget; }

  /// The context of the running event (or of the enclosing TagScope).
  /// The reference is stable for observers (the tracer) that must not
  /// depend on the simulator's type.
  const Context& context() const { return context_; }

  /// RAII context scope for root actions, the only writer of the context
  /// outside the run loop. The three-argument form also sets the
  /// ground-truth label for the scope; the two-argument form leaves the
  /// label untouched (nested scopes re-tag without clearing labels).
  class TagScope {
   public:
    TagScope(Simulator& sim, std::uint32_t tag)
        : TagScope(sim, tag, sim.context_.label) {}
    TagScope(Simulator& sim, std::uint32_t tag, std::uint32_t label)
        : sim_(sim), prev_(sim.context_) {
      sim_.context_ = Context{tag, label};
    }
    ~TagScope() { sim_.context_ = prev_; }
    TagScope(const TagScope&) = delete;
    TagScope& operator=(const TagScope&) = delete;

   private:
    Simulator& sim_;
    Context prev_;
  };

 private:
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;

  struct Slot {
    Callback cb;
    Context context;                 // captured at schedule time
    std::uint32_t gen = 0;           // bumped on release; part of the TimerId
    std::uint32_t pos = kNotQueued;  // index of this slot's key in heap_
  };

  /// Heap key; `seq` (globally unique) breaks time ties FIFO.
  struct HeapKey {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator<(const HeapKey& o) const {
      if (at != o.at) return at < o.at;
      return seq < o.seq;
    }
  };

  static TimerId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<TimerId>(gen) << 32) |
           (static_cast<TimerId>(slot) + 1);
  }

  /// Resolves an id to its pending slot, or nullptr when the id is
  /// invalid, already fired/cancelled, or stale (generation mismatch after
  /// reuse).
  const Slot* lookup(TimerId id) const {
    const std::uint32_t lo = static_cast<std::uint32_t>(id);
    if (lo == 0) return nullptr;
    const std::uint32_t slot = lo - 1;
    if (slot >= slab_.size()) return nullptr;
    const Slot& s = slab_[slot];
    if (s.pos == kNotQueued || s.gen != static_cast<std::uint32_t>(id >> 32)) {
      return nullptr;
    }
    return &s;
  }

  /// Marks the (already dequeued) slot recyclable; the generation bump
  /// invalidates every outstanding TimerId minted for it.
  void release(std::uint32_t slot) {
    Slot& s = slab_[slot];
    s.pos = kNotQueued;
    s.cb = nullptr;
    ++s.gen;
    free_.push_back(slot);
  }

  // Hand-written sifts: std::push_heap/pop_heap cannot track positions.
  void place(std::size_t i, const HeapKey& k) {
    heap_[i] = k;
    slab_[k.slot].pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, HeapKey k);
  void sift_down(std::size_t i, HeapKey k);
  /// Removes the key at heap position `i`: the last key fills the hole.
  void remove_at(std::size_t i);

  bool pop_one();  // executes the next event; false if none

  TimePoint now_ = kTimeZero;
  Context context_;
  std::uint64_t seq_ = 0;
  bool stopped_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t budget_ = 500'000'000;
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_;  // recyclable slot indices (LIFO)
  std::vector<HeapKey> heap_;        // 4-ary min-heap on (at, seq)
};

/// RAII one-shot timer bound to an owner's lifetime: cancels on destruction
/// and on re-arm. Use for protocol timers (T3511, ...) owned by an FSM.
/// The generation tag inside TimerId keeps `armed()`/`cancel()` correct
/// even after the underlying slab slot has been recycled by later timers.
class Timer {
 public:
  explicit Timer(Simulator& sim) : sim_(&sim) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void arm(Duration d, Simulator::Callback cb) {
    cancel();
    id_ = sim_->schedule_after(d, std::move(cb));
  }
  void cancel() {
    if (id_ != kInvalidTimer) {
      sim_->cancel(id_);
      id_ = kInvalidTimer;
    }
  }
  bool armed() const { return id_ != kInvalidTimer && sim_->pending(id_); }

 private:
  Simulator* sim_;
  TimerId id_ = kInvalidTimer;
};

}  // namespace seed::sim

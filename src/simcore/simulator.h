// Single-threaded discrete-event simulator.
//
// Events are closures ordered by (time, insertion sequence); ties execute
// in FIFO order, which keeps every experiment deterministic for a fixed
// RNG seed. Timers are cancellable via the TimerId returned at schedule
// time.
//
// Hot-path layout: timer entries live in a slab (a vector of slots
// recycled through a free list) with the callback stored inline, and the
// run queue is a binary heap of (time, seq, slot) keys. A TimerId packs
// the slot index with a generation tag that is bumped every time the slot
// is released, so `cancel`/`pending` are O(1) array probes with no
// hashing and stale handles to a recycled slot can never alias a newer
// timer. Cancellation leaves a tombstone key in the heap; tombstones are
// skipped lazily at pop/peek time (a key is dead when its seq no longer
// matches the slot's), and once they outnumber live keys the heap is
// compacted in one O(n) sweep.
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
      const auto next = peek_next_live_time();
      const TimePoint horizon = next && *next < deadline ? *next : deadline;
      const auto k = (horizon - now_ - Duration{1}) / step;
      if (k > 0) now_ += k * step;
    }
  }

  /// Stops the run loop after the current event returns.
  void stop() { stopped_ = true; }

  /// Time of the next live (non-cancelled) event, or nullopt if the queue
  /// is empty. Drops any tombstoned heap tops it walks past, so repeated
  /// calls are amortized O(1).
  std::optional<TimePoint> peek_next_live_time();

  std::size_t queued() const { return live_count_; }
  std::uint64_t events_processed() const { return processed_; }

  /// Guard against runaway simulations; run() throws std::runtime_error
  /// when exceeded.
  void set_event_budget(std::uint64_t budget) { budget_ = budget; }

  // ----- context tag (per-UE attribution in multi-UE experiments)
  //
  // An opaque 32-bit tag that rides along the event graph: schedule_at
  // captures the tag current at schedule time, and while an event's
  // callback runs the simulator restores that captured tag. Set once
  // around a root action (e.g. powering UE #7 on) and every transitively
  // scheduled callback — modem timers, core handlers, applet plans —
  // carries the same tag with zero per-layer plumbing. Tag 0 means
  // "untagged" and is the steady state of single-UE runs.
  std::uint32_t current_tag() const { return current_tag_; }
  void set_current_tag(std::uint32_t tag) { current_tag_ = tag; }
  /// Stable address of the current tag, for observers (the tracer) that
  /// must not depend on the simulator's type.
  const std::uint32_t* current_tag_ref() const { return &current_tag_; }

  // ----- context label (ground-truth attribution in labeled scenarios)
  //
  // A second 32-bit cell with the same propagation semantics as the tag:
  // captured at schedule time, restored around the callback. Carries a
  // machine-readable ground-truth label (cause family + injection
  // ordinal) from the point a failure is injected through every event it
  // transitively causes, so the tracer can join diagnosis verdicts back
  // to the injection that provoked them. Label 0 means "unlabeled".
  std::uint32_t current_label() const { return current_label_; }
  void set_current_label(std::uint32_t label) { current_label_ = label; }
  const std::uint32_t* current_label_ref() const { return &current_label_; }

  /// RAII tag scope for root actions. The three-argument form also sets
  /// the ground-truth label for the scope; the two-argument form leaves
  /// the label untouched (nested scopes re-tag without clearing labels).
  class TagScope {
   public:
    TagScope(Simulator& sim, std::uint32_t tag)
        : sim_(sim), prev_(sim.current_tag()),
          prev_label_(sim.current_label()) {
      sim_.set_current_tag(tag);
    }
    TagScope(Simulator& sim, std::uint32_t tag, std::uint32_t label)
        : sim_(sim), prev_(sim.current_tag()),
          prev_label_(sim.current_label()) {
      sim_.set_current_tag(tag);
      sim_.set_current_label(label);
    }
    ~TagScope() {
      sim_.set_current_tag(prev_);
      sim_.set_current_label(prev_label_);
    }
    TagScope(const TagScope&) = delete;
    TagScope& operator=(const TagScope&) = delete;

   private:
    Simulator& sim_;
    std::uint32_t prev_;
    std::uint32_t prev_label_;
  };

 private:
  struct Slot {
    Callback cb;
    TimePoint at = kTimeZero;
    std::uint64_t seq = 0;       // schedule sequence; globally unique
    std::uint32_t gen = 0;       // bumped on release; part of the TimerId
    std::uint32_t tag = 0;       // context tag captured at schedule time
    std::uint32_t label = 0;     // ground-truth label captured alongside
    bool live = false;
  };

  /// Heap key. `seq` both breaks time ties FIFO and identifies the slab
  /// entry this key was minted for: a mismatch means the slot was
  /// cancelled (and possibly recycled), i.e. the key is a tombstone.
  struct HeapKey {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const HeapKey& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  static TimerId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<TimerId>(gen) << 32) |
           (static_cast<TimerId>(slot) + 1);
  }

  /// Resolves an id to its live slot, or nullptr when the id is invalid,
  /// already fired/cancelled, or stale (generation mismatch after reuse).
  const Slot* lookup(TimerId id) const {
    const std::uint32_t lo = static_cast<std::uint32_t>(id);
    if (lo == 0) return nullptr;
    const std::uint32_t slot = lo - 1;
    if (slot >= slab_.size()) return nullptr;
    const Slot& s = slab_[slot];
    if (!s.live || s.gen != static_cast<std::uint32_t>(id >> 32)) {
      return nullptr;
    }
    return &s;
  }

  /// Marks the slot dead and recyclable; the generation bump invalidates
  /// every outstanding TimerId minted for it.
  void release(std::uint32_t slot) {
    Slot& s = slab_[slot];
    s.live = false;
    s.cb = nullptr;
    ++s.gen;
    free_.push_back(slot);
    --live_count_;
  }

  /// Pops tombstoned keys off the heap top; true when a live key remains.
  bool drop_dead_tops();

  /// Rebuilds the heap without its tombstones once they outnumber the
  /// live keys. One O(n) sweep replaces up to n/2 future O(log n)
  /// tombstone pops and halves the heap every subsequent operation works
  /// on; pop order is unaffected because keys are totally ordered by
  /// (at, seq).
  void maybe_compact_heap();

  bool pop_one();  // executes the next live event; false if none

  TimePoint now_ = kTimeZero;
  std::uint32_t current_tag_ = 0;
  std::uint32_t current_label_ = 0;
  std::uint64_t seq_ = 0;
  bool stopped_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t budget_ = 500'000'000;
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_;  // recyclable slot indices (LIFO)
  std::vector<HeapKey> heap_;        // binary min-heap on (at, seq)
  std::size_t live_count_ = 0;
  std::size_t dead_in_heap_ = 0;     // tombstone keys still in heap_
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

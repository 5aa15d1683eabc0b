#include "simcore/simulator.h"

#include <algorithm>
#include <stdexcept>

#include "obs/prof.h"

namespace seed::sim {

TimerId Simulator::schedule_at(TimePoint t, Callback cb) {
  if (t < now_) t = now_;
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Slot& s = slab_[slot];
  s.cb = std::move(cb);
  s.at = t;
  s.seq = seq_++;
  s.tag = current_tag_;
  s.label = current_label_;
  s.live = true;
  heap_.push_back(HeapKey{t, s.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_count_;
  return make_id(s.gen, slot);
}

bool Simulator::cancel(TimerId id) {
  const Slot* s = lookup(id);
  if (!s) return false;
  // The heap key stays behind as a tombstone (its seq no longer matches
  // any live slot) and is dropped lazily at pop/peek.
  release(static_cast<std::uint32_t>(id) - 1);
  ++dead_in_heap_;
  maybe_compact_heap();
  return true;
}

void Simulator::maybe_compact_heap() {
  if (heap_.size() < 64 || dead_in_heap_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const HeapKey& k) {
    const Slot& s = slab_[k.slot];
    return !s.live || s.seq != k.seq;
  });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  dead_in_heap_ = 0;
}

bool Simulator::drop_dead_tops() {
  while (!heap_.empty()) {
    const HeapKey& top = heap_.front();
    const Slot& s = slab_[top.slot];
    if (s.live && s.seq == top.seq) return true;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    --dead_in_heap_;
  }
  return false;
}

std::optional<TimePoint> Simulator::peek_next_live_time() {
  if (!drop_dead_tops()) return std::nullopt;
  return heap_.front().at;
}

bool Simulator::pop_one() {
  if (!drop_dead_tops()) return false;
  const HeapKey top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
  Callback cb = std::move(slab_[top.slot].cb);
  const std::uint32_t tag = slab_[top.slot].tag;
  const std::uint32_t label = slab_[top.slot].label;
  release(top.slot);
  now_ = top.at;
  ++processed_;
  if (processed_ > budget_) {
    throw std::runtime_error("Simulator: event budget exhausted");
  }
  current_tag_ = tag;
  current_label_ = label;
  {
    // Event dispatch is the root zone: every instrumented path that runs
    // inside a callback (codec, crypto, collab, cache) nests under it, so
    // sim.dispatch's exclusive time is the loop-and-glue cost itself.
    PROF_ZONE("sim.dispatch");
    cb();
  }
  current_tag_ = 0;
  current_label_ = 0;
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && pop_one()) {
  }
}

void Simulator::run_until(TimePoint t) {
  stopped_ = false;
  while (!stopped_) {
    const auto next = peek_next_live_time();
    if (!next || *next > t) break;
    pop_one();
  }
  if (now_ < t) now_ = t;
}

}  // namespace seed::sim

#include "simcore/simulator.h"

#include <algorithm>
#include <stdexcept>

#include "obs/prof.h"

namespace seed::sim {

namespace {
// Four children per node: half the depth of a binary heap, and a node's
// children (4 x 24 B keys) share about one or two cache lines.
constexpr std::size_t kArity = 4;
}  // namespace

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
  s.context = context_;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapKey{t, seq_++, slot});
  return make_id(s.gen, slot);
}

bool Simulator::cancel(TimerId id) {
  const Slot* s = lookup(id);
  if (!s) return false;
  remove_at(s->pos);
  release(static_cast<std::uint32_t>(id) - 1);
  return true;
}

void Simulator::sift_up(std::size_t i, HeapKey k) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(k < heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, k);
}

void Simulator::sift_down(std::size_t i, HeapKey k) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < k)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, k);
}

void Simulator::remove_at(std::size_t i) {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  if (i > 0 && last < heap_[(i - 1) / kArity]) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

bool Simulator::pop_one() {
  if (heap_.empty()) return false;
  const HeapKey top = heap_.front();
  remove_at(0);
  Slot& s = slab_[top.slot];
  Callback cb = std::move(s.cb);
  const Context context = s.context;
  release(top.slot);
  now_ = top.at;
  ++processed_;
  if (processed_ > budget_) {
    throw std::runtime_error("Simulator: event budget exhausted");
  }
  context_ = context;
  {
    // Event dispatch is the root zone: every instrumented path that runs
    // inside a callback (codec, crypto, collab, cache) nests under it, so
    // sim.dispatch's exclusive time is the loop-and-glue cost itself.
    PROF_ZONE("sim.dispatch");
    cb();
  }
  context_ = {};
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
    const auto next = next_event_time();
    if (!next || *next > t) break;
    pop_one();
  }
  if (now_ < t) now_ = t;
}

}  // namespace seed::sim

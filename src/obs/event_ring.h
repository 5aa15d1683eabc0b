// Bounded ring buffer of the last N values, oldest first: the blackbox
// view's per-UE ring (obs::blackboxes rolls each UE's events through one
// and freezes it on a terminal failure).
//
// Tail-based trace retention keeps its per-UE history differently, in
// the Tracer's own circular byte buffers of SEEDTRC EVT payload records
// (trace.cc): those are sized by the bytes each UE's events take, not by
// a fixed slot per event, and only a promotion decodes them.
#pragma once

#include <cstddef>
#include <vector>

namespace seed::obs {

template <typename T>
class Ring {
 public:
  /// A zero-capacity ring is legal and degenerate: every put evicts the
  /// value immediately (nothing is ever buffered). Storage is reserved on
  /// the first put, so an unused ring holds no heap memory.
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  std::size_t size() const { return slots_.size(); }

  /// Appends a copy of `v` and says whether an element was evicted. When
  /// the ring is full the copy is assigned over the oldest element, so
  /// that slot's storage (a string's buffer) is reused, not reallocated.
  bool put(const T& v) {
    if (capacity_ == 0) return true;
    if (slots_.size() < capacity_) {
      if (slots_.empty()) slots_.reserve(capacity_);
      slots_.push_back(v);
      return false;
    }
    slots_[head_] = v;
    if (++head_ == capacity_) head_ = 0;
    return true;
  }

  /// Appends the ring's contents, oldest first, without draining.
  void append_to(std::vector<T>& out) const {
    out.reserve(out.size() + size());
    for (std::size_t i = 0; i < size(); ++i) {
      out.push_back(slots_[(head_ + i) % capacity_]);
    }
  }

 private:
  // Until the ring first fills, elements sit at [0, size) and head_ is 0.
  std::size_t capacity_;
  std::vector<T> slots_;  // size() == number of buffered elements
  std::size_t head_ = 0;  // oldest element once the ring is full
};

}  // namespace seed::obs

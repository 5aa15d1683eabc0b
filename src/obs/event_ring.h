// Bounded ring buffer — THE per-UE event-ring primitive.
//
// Both tail-based trace retention (Tracer's sampled capture) and the
// post-mortem blackbox view (obs::blackboxes) keep "the last N things
// that happened to a UE"; this is the one ring implementation behind
// both. A fixed-capacity circular store: push evicts (and returns) the
// oldest element once full, and iteration order is always oldest-first,
// so a promoted ring replays a UE's history in the order it happened.
//
// Templated so the header has no dependency on the trace layer (trace.cc
// instantiates Ring<Event> for both).
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace seed::obs {

template <typename T>
class Ring {
 public:
  /// A zero-capacity ring is legal and degenerate: every push evicts the
  /// pushed value immediately (nothing is ever buffered).
  explicit Ring(std::size_t capacity) : capacity_(capacity) {
    slots_.reserve(capacity_);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends `v`; when the ring is full the oldest element is evicted
  /// and handed back so the caller can account for it (aged-out counts).
  std::optional<T> push(T v) {
    if (capacity_ == 0) return std::optional<T>(std::move(v));
    if (size_ < capacity_) {
      if (slots_.size() < capacity_) {
        slots_.push_back(std::move(v));
      } else {
        slots_[(head_ + size_) % capacity_] = std::move(v);
      }
      ++size_;
      return std::nullopt;
    }
    std::optional<T> evicted(std::move(slots_[head_]));
    slots_[head_] = std::move(v);
    head_ = (head_ + 1) % capacity_;
    return evicted;
  }

  /// Appends the ring's contents, oldest first, without draining.
  void append_to(std::vector<T>& out) const {
    out.reserve(out.size() + size_);
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(slots_[(head_ + i) % capacity_]);
    }
  }

  /// Moves the ring's contents out, oldest first, leaving it empty.
  std::vector<T> take() {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(std::move(slots_[(head_ + i) % capacity_]));
    }
    clear();
    return out;
  }

  void clear() {
    slots_.clear();
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace seed::obs

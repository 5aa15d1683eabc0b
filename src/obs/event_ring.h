// Bounded ring buffer — THE per-UE event-ring primitive.
//
// Both tail-based trace retention (Tracer's sampled capture) and the
// post-mortem blackbox view (obs::blackboxes) keep "the last N things
// that happened to a UE"; this is the one ring implementation behind
// both. A fixed-capacity circular store: once full, push evicts (and
// returns) the oldest element and put overwrites it in place. Iteration
// order is always oldest-first, so a promoted ring replays a UE's
// history in the order it happened.
//
// Templated so the header has no dependency on the trace layer: trace.cc
// instantiates it twice, retention rings of 48-byte EVT payload cells
// and blackbox rings of whole Events.
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
  /// pushed value immediately (nothing is ever buffered). Storage is
  /// reserved on the first push or put, so an unused ring holds no heap
  /// memory.
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// Appends `v`; when the ring is full the oldest element is evicted
  /// and handed back so the caller can account for it (aged-out counts).
  std::optional<T> push(T v) {
    if (capacity_ == 0) return std::optional<T>(std::move(v));
    if (slots_.size() < capacity_) {
      append(std::move(v));
      return std::nullopt;
    }
    std::optional<T> evicted(std::move(slots_[head_]));
    slots_[head_] = std::move(v);
    advance();
    return evicted;
  }

  /// Appends a copy of `v` and says whether an element was evicted. When
  /// the ring is full the copy is assigned over the oldest element, so
  /// that slot's storage (a string's buffer) is reused, not reallocated.
  bool put(const T& v) {
    if (capacity_ == 0) return true;
    if (slots_.size() < capacity_) {
      append(v);
      return false;
    }
    slots_[head_] = v;
    advance();
    return true;
  }

  /// Appends the ring's contents, oldest first, without draining.
  void append_to(std::vector<T>& out) const {
    out.reserve(out.size() + size());
    for (std::size_t i = 0; i < size(); ++i) {
      out.push_back(slots_[(head_ + i) % capacity_]);
    }
  }

  /// Moves the ring's contents out, oldest first, leaving it empty.
  std::vector<T> take() {
    std::vector<T> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
      out.push_back(std::move(slots_[(head_ + i) % capacity_]));
    }
    clear();
    return out;
  }

  /// Empties the ring and releases its storage.
  void clear() {
    std::vector<T>().swap(slots_);
    head_ = 0;
  }

 private:
  // Until the ring first fills, elements sit at [0, size) and head_ is 0.
  template <typename U>
  void append(U&& v) {
    if (slots_.empty()) slots_.reserve(capacity_);
    slots_.push_back(std::forward<U>(v));
  }
  void advance() {
    if (++head_ == capacity_) head_ = 0;
  }

  std::size_t capacity_;
  std::vector<T> slots_;  // size() == number of buffered elements
  std::size_t head_ = 0;  // oldest element once the ring is full
};

}  // namespace seed::obs

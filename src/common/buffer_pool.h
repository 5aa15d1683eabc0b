// Free-list of reusable byte buffers for the per-message hot paths.
//
// acquire() hands out a cleared buffer whose capacity was warmed up by
// earlier use (or pre-reserved on first acquire), release() returns it to
// the pool. Steady state does zero heap traffic: buffers cycle between
// the pool and in-flight messages, keeping whatever capacity they grew.
//
// Ownership rule (see DESIGN.md "Buffer ownership"): the pool owns idle
// buffers; an acquired buffer is owned by exactly one in-flight message
// at a time and must be released (or dropped, forfeiting the capacity)
// when delivery completes. Acquire outside PROF_ZONEs so the one-time
// warm-up reserve is never attributed to a steady-state zone.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace seed {

class BufferPool {
 public:
  explicit BufferPool(std::size_t reserve = 512) : reserve_(reserve) {}

  Bytes acquire() {
    if (free_.empty()) {
      Bytes b;
      b.reserve(reserve_);
      return b;
    }
    Bytes b = std::move(free_.back());
    free_.pop_back();
    b.clear();
    return b;
  }

  void release(Bytes&& b) { free_.push_back(std::move(b)); }

 private:
  std::size_t reserve_;
  std::vector<Bytes> free_;
};

}  // namespace seed

// Parallel multi-shard fleet runner.
//
// Fleet experiments (Table 4 sweeps, ablations, online-learning waves) are
// embarrassingly parallel: every shard owns its Simulator, its RNG stream
// (derived from the fleet base seed and the shard index), and — because
// the obs singletons are thread-local — its own observability world.
// FleetRunner executes N shard bodies on a work-stealing thread pool and
// hands results back **in shard order**, so merged outcomes, metric dumps,
// and trace exports are byte-identical no matter how many workers ran or
// how the OS scheduled them.
//
// Shards are statically dealt round-robin onto per-worker deques; an idle
// worker steals from the back of a victim's deque. Stealing only changes
// *which thread* runs a shard, never the slot its result lands in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace seed::sim {

/// Derives a shard's RNG seed from the fleet base seed: splitmix64 over
/// `base_seed ^ shard` so neighbouring shards get well-separated streams
/// while staying a pure function of (base, shard).
std::uint64_t shard_seed(std::uint64_t base_seed, std::uint64_t shard);

struct ShardInfo {
  std::size_t index = 0;   // shard number in [0, total)
  std::size_t total = 0;   // fleet size
  std::uint64_t seed = 0;  // shard_seed(base_seed, index)
  std::size_t worker = 0;  // executing worker (informational only —
                           // results never depend on it)
};

class FleetRunner {
 public:
  /// `threads == 0` means hardware_concurrency. The pool is created per
  /// run() call (shard bodies dwarf thread spawn cost); even a 1-thread
  /// fleet runs on a spawned worker so shard bodies always see a fresh
  /// thread-local obs world regardless of the thread count.
  explicit FleetRunner(std::size_t threads = 0, std::uint64_t base_seed = 0);

  std::size_t threads() const { return threads_; }
  std::uint64_t base_seed() const { return base_seed_; }

  /// Runs `body` once per shard. Returns when every shard finished; the
  /// first exception thrown by any shard is rethrown here (remaining
  /// shards are abandoned).
  void run(std::size_t shards,
           const std::function<void(const ShardInfo&)>& body) const;

  /// run() with a result per shard, returned in shard order.
  template <typename R, typename Body>
  std::vector<R> map(std::size_t shards, Body&& body) const {
    std::vector<std::optional<R>> slots(shards);
    run(shards, [&](const ShardInfo& info) {
      slots[info.index].emplace(body(info));
    });
    std::vector<R> out;
    out.reserve(shards);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

 private:
  std::size_t threads_;
  std::uint64_t base_seed_;
};

/// Thread count for fleet benches: SEED_FLEET_THREADS if set and > 0,
/// otherwise `fallback` (0 = hardware_concurrency).
std::size_t fleet_threads_from_env(std::size_t fallback = 0);

}  // namespace seed::sim

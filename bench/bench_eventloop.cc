// Event-loop microbench: schedule/cancel/fire churn mimicking the repo's
// protocol-timer patterns — every FSM keeps a long retry timer armed
// (T3511-style) that is almost always cancelled by an earlier event
// (conflict-window style), so the loop is dominated by schedule+cancel
// pairs with a thin stream of actual expiries.
//
// The bench runs the same deterministic workload through the current
// slab-backed Simulator and through an embedded copy of the seed
// implementation (priority_queue + unordered_set tombstones +
// unordered_map callbacks — three hash-table operations per event), checks
// that both reach the same end state, prints before/after events-per-second,
// and writes the machine-readable result to BENCH_eventloop.json in the
// working directory. The slab/legacy speedup is a same-process ratio, so
// it holds across hosts; absolute event-loop throughput is measured by
// perfbench's sim_events_per_s.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace {

using namespace seed::sim;

/// The seed event loop, verbatim hot path: one hash insert at schedule,
/// a hash erase pair at cancel/pop, callbacks in their own hash map.
class LegacySimulator {
 public:
  using Callback = std::function<void()>;

  TimePoint now() const { return now_; }

  TimerId schedule_at(TimePoint t, Callback cb) {
    if (t < now_) t = now_;
    const TimerId id = next_id_++;
    queue_.push(Entry{t, seq_++, id});
    live_.insert(id);
    callbacks_.emplace(id, std::move(cb));
    return id;
  }

  TimerId schedule_after(Duration d, Callback cb) {
    return schedule_at(now_ + (d.count() > 0 ? d : Duration{0}),
                       std::move(cb));
  }

  bool cancel(TimerId id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    live_.erase(it);
    callbacks_.erase(id);
    return true;
  }

  bool pending(TimerId id) const { return live_.contains(id); }

  void run() {
    stopped_ = false;
    while (!stopped_ && pop_one()) {
    }
  }

  void stop() { stopped_ = true; }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    TimerId id;
    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  bool pop_one() {
    while (!queue_.empty()) {
      Entry e = queue_.top();
      queue_.pop();
      const auto it = live_.find(e.id);
      if (it == live_.end()) continue;
      live_.erase(it);
      auto cb_it = callbacks_.find(e.id);
      Callback cb = std::move(cb_it->second);
      callbacks_.erase(cb_it);
      now_ = e.at;
      cb();
      return true;
    }
    return false;
  }

  TimePoint now_ = kTimeZero;
  std::uint64_t seq_ = 0;
  TimerId next_id_ = 1;
  bool stopped_ = false;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_set<TimerId> live_;
  std::unordered_map<TimerId, Callback> callbacks_;
};

struct ChurnResult {
  std::uint64_t fired = 0;
  std::uint64_t cancels = 0;
  std::int64_t final_us = 0;  // cross-impl checksum
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
};

/// One FSM of the churn workload. Callbacks capture a single Fsm* so they
/// fit std::function's small-object buffer in BOTH implementations — the
/// bench then measures the event loops, not a shared allocator tax.
template <class Sim>
struct ChurnWorld;

template <class Sim>
struct ChurnFsm {
  ChurnWorld<Sim>* world = nullptr;
  TimerId retry = kInvalidTimer;

  void tick();
  void retry_expired() {
    ++world->res.fired;  // the ~3.5% of retries that actually expire
    retry = kInvalidTimer;
  }
};

template <class Sim>
struct ChurnWorld {
  Sim sim;
  Rng rng{0x5EED0202};
  std::uint64_t target_events = 0;
  std::vector<ChurnFsm<Sim>> fsms;
  ChurnResult res;

  void arm_tick(ChurnFsm<Sim>* f) {
    const auto gap = us(static_cast<std::int64_t>(rng.exponential(3e6)) + 1);
    sim.schedule_after(gap, [f] { f->tick(); });
  }
};

template <class Sim>
void ChurnFsm<Sim>::tick() {
  ChurnWorld<Sim>& w = *world;
  if (++w.res.fired >= w.target_events) {
    w.sim.stop();
    return;
  }
  // Conflict window: the pending T3511-style retry is superseded.
  if (w.sim.pending(retry)) {
    w.sim.cancel(retry);
    ++w.res.cancels;
  }
  retry = w.sim.schedule_after(seconds(10), [this] { retry_expired(); });
  w.arm_tick(this);
}

/// Identical deterministic workload for both implementations: the RNG
/// draw sequence only depends on event execution order, which the FIFO
/// tie-break pins down exactly.
template <class Sim>
ChurnResult run_churn(int n_fsm, std::uint64_t target_events) {
  ChurnWorld<Sim> world;
  world.target_events = target_events;
  world.fsms.resize(static_cast<std::size_t>(n_fsm));
  for (auto& f : world.fsms) {
    f.world = &world;
    world.arm_tick(&f);
  }

  const auto t0 = std::chrono::steady_clock::now();
  world.sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  ChurnResult res = world.res;
  res.final_us = world.sim.now().time_since_epoch().count();
  res.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  res.events_per_sec =
      static_cast<double>(res.fired) / (res.wall_ms / 1e3);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t target =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2'000'000ULL;
  constexpr int kFsms = 32768;

  std::cout << "eventloop churn: " << kFsms << " FSMs, " << target
            << " events (schedule+cancel pair per tick)\n";

  // Warm-up pass so neither contender pays first-touch costs.
  run_churn<seed::sim::Simulator>(kFsms, target / 10);
  run_churn<LegacySimulator>(kFsms, target / 10);

  // Interleaved best-of-N: the fastest trial per implementation is the
  // one least disturbed by the host's scheduler.
  constexpr int kTrials = 3;
  ChurnResult slab, legacy;
  for (int trial = 0; trial < kTrials; ++trial) {
    const ChurnResult s = run_churn<seed::sim::Simulator>(kFsms, target);
    const ChurnResult l = run_churn<LegacySimulator>(kFsms, target);
    if (trial == 0 || s.wall_ms < slab.wall_ms) slab = s;
    if (trial == 0 || l.wall_ms < legacy.wall_ms) legacy = l;
  }

  if (slab.fired != legacy.fired || slab.cancels != legacy.cancels ||
      slab.final_us != legacy.final_us) {
    std::cerr << "MISMATCH: slab and legacy event loops diverged "
              << "(fired " << slab.fired << " vs " << legacy.fired
              << ", cancels " << slab.cancels << " vs " << legacy.cancels
              << ", final_us " << slab.final_us << " vs "
              << legacy.final_us << ")\n";
    return 1;
  }

  const double speedup = slab.events_per_sec / legacy.events_per_sec;
  std::cout << "  before (seed pq+hash): " << legacy.events_per_sec
            << " events/s  (" << legacy.wall_ms << " ms)\n"
            << "  after  (slab+heap)   : " << slab.events_per_sec
            << " events/s  (" << slab.wall_ms << " ms)\n"
            << "  speedup: " << speedup << "x  (" << slab.fired
            << " events, " << slab.cancels
            << " cancels, identical end state)\n";

  std::ofstream json("BENCH_eventloop.json", std::ios::trunc);
  json << "{\"bench\":\"eventloop_churn\",\"events_per_sec\":"
       << static_cast<std::uint64_t>(slab.events_per_sec)
       << ",\"wall_ms\":" << slab.wall_ms
       << ",\"baseline_events_per_sec\":"
       << static_cast<std::uint64_t>(legacy.events_per_sec)
       << ",\"baseline_wall_ms\":" << legacy.wall_ms
       << ",\"speedup\":" << speedup << ",\"events\":" << slab.fired
       << ",\"cancels\":" << slab.cancels << "}\n";
  return 0;
}

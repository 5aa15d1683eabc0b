// Deterministic hot-path profiler (the SEED observability layer, half
// three — cost attribution).
//
// The paper's Fig. 11 viability argument is that SEED's per-message work
// stays cheap; this layer makes "cheap" a measured, regression-gated fact
// instead of a hope. RAII ProfZone scoped timers, keyed by a process-wide
// zone registry, record per-zone call counts, inclusive/exclusive wall
// time, and byte/allocation counters, with full nesting support via a
// thread-local zone stack (a zone nested inside itself accounts its
// inclusive time exactly once).
//
// Two kinds of quantity live side by side and are dumped separately:
//
//  - *Deterministic* counters — calls, bytes, allocs, and the log2
//    bytes-per-observation histogram — are pure functions of the simulated
//    workload. They merge across fleet shards by commutative addition, so
//    a merged profile is byte-identical for any worker count and is safe
//    to commit (BENCH_profile.json) and to gate CI on.
//  - *Wall-clock* times — inclusive/exclusive ns and the log2
//    exclusive-ns histogram — are inherently run-to-run noisy. They feed
//    the human-facing report view (trace_summary --prof) and the
//    uncommitted *_full sidecar dumps, never the committed artifact.
//
// Cost model: like the Tracer and Registry, the profiler singleton is
// thread-local (each fleet worker owns an isolated world; shard captures
// fold back by zone *name*, so global registration order never matters)
// and OFF by default. A disabled PROF_ZONE costs one thread-local bool
// load and a branch; compiling with -DSEED_PROF_COMPILED=0 removes every
// zone entirely.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#ifndef SEED_PROF_COMPILED
#define SEED_PROF_COMPILED 1
#endif

namespace seed::obs {

/// Index into the process-wide zone registry.
using ZoneId = std::uint32_t;

/// Bounded, mergeable log2 histogram behind the profiler's zone
/// durations. Bucket b counts observations v with bit_width(v) == b (v == 0
/// lands in bucket 0), clamped to the last bucket; 48 buckets cover every
/// uint64 value seen in practice. add() is bucket-wise, so merges commute.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  static constexpr std::size_t bucket(std::uint64_t v) {
    const auto b = static_cast<std::size_t>(std::bit_width(v));
    return b < kBuckets ? b : kBuckets - 1;
  }

  void observe(std::uint64_t v) {
    ++buckets_[bucket(v)];
    ++count_;
    sum_ += v;
  }
  void add(const Histogram& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  std::uint64_t operator[](std::size_t b) const { return buckets_[b]; }
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }

  /// Sparse JSON: [[bucket,count],...] over the non-empty buckets.
  void write_json(std::ostream& os) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Everything recorded for one zone on one thread. add() merges by field
/// (all fields are sums), so folding shard captures is order-independent.
struct ZoneStats {
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;  // wall, outermost instances only
  std::uint64_t excl_ns = 0;  // wall, minus time spent in nested zones
  std::uint64_t bytes = 0;    // payload bytes attributed via prof_bytes
  std::uint64_t allocs = 0;   // buffer allocations via prof_alloc
  std::uint64_t alloc_bytes = 0;
  Histogram bytes_hist;  // deterministic
  Histogram time_hist;   // wall (excl ns)

  void add(const ZoneStats& o);
  bool touched() const { return calls != 0 || bytes != 0 || allocs != 0; }
};

/// Interns `name` in the process-wide registry (idempotent; thread-safe).
/// Call once per site via the PROF_ZONE macro's function-local static.
ZoneId prof_zone_id(std::string_view name);

/// Name interned for `id` (asserts-by-construction: ids come from
/// prof_zone_id).
const std::string& prof_zone_name(ZoneId id);

namespace detail {
/// Mirrors Profiler::enabled() so the disabled hot path never touches the
/// (larger) profiler object. constinit: static initialization is promised,
/// so cross-TU reads skip the TLS init wrapper (which UBSan flags as a
/// null load).
extern thread_local constinit bool tl_prof_on;
std::uint64_t now_ns();
}  // namespace detail

/// One zone's capture row, detached from any thread (fleet shard
/// hand-off). Keyed by name: registration order is a process-global
/// accident and must not leak into merged output.
struct ProfRow {
  std::string name;
  ZoneStats stats;
};

class Profiler {
 public:
  /// The thread's live profiler. Like Tracer/Registry, each simulation
  /// thread owns an isolated instance.
  static Profiler& instance();

  bool enabled() const { return enabled_; }
  void enable(bool on);

  /// Drops all recorded stats and any open zone frames (open ProfZone
  /// guards on the stack become inert).
  void clear();

  // ----- ProfZone guts (public for the RAII type; not for direct use)
  void begin(ZoneId zone);
  void end();

  /// Attributes payload bytes / an allocation to the innermost open zone
  /// (dropped when no zone is open).
  void add_bytes(std::uint64_t n);
  void add_alloc(std::uint64_t bytes);

  /// Snapshot of every touched zone, sorted by name.
  std::vector<ProfRow> rows() const;

  /// Folds shard rows into this thread's stats by zone name. Addition is
  /// commutative, so absorb order never changes the result.
  void absorb(const std::vector<ProfRow>& shard);

  /// JSON dump of every touched zone, sorted by name. With
  /// `include_times` false only the deterministic fields are written —
  /// that variant is the committed BENCH_profile.json format. All values
  /// are integers (times in whole microseconds), so the bytes are
  /// reproducible across platforms.
  void dump_json(std::ostream& os, std::string_view workload,
                 bool include_times = false) const;

 private:
  struct Frame {
    ZoneId zone = 0;
    std::uint64_t t0 = 0;
    std::uint64_t child_ns = 0;
  };

  ZoneStats& stats_for(ZoneId zone);

  bool enabled_ = false;
  std::vector<ZoneStats> zones_;       // indexed by ZoneId, grown lazily
  std::vector<std::uint32_t> depth_;   // per-zone open count (reentrancy)
  std::vector<Frame> stack_;
};

/// dump_json over detached rows (e.g. a fleet-merged profile) without
/// touching any thread's live Profiler.
void dump_prof_json(std::ostream& os, std::string_view workload,
                    const std::vector<ProfRow>& rows,
                    bool include_times = false);

inline void prof_bytes(std::uint64_t n) {
  if (detail::tl_prof_on) Profiler::instance().add_bytes(n);
}

inline void prof_alloc(std::uint64_t bytes) {
  if (detail::tl_prof_on) Profiler::instance().add_alloc(bytes);
}

/// RAII scoped timer. Construction/destruction must stay on one thread
/// (true for every simulation code path — shards never migrate
/// mid-event). Pairing is tracked locally, so toggling the profiler
/// inside an open zone cannot corrupt the stack.
class ProfZone {
 public:
  explicit ProfZone(ZoneId zone) {
    if (!detail::tl_prof_on) return;
    active_ = true;
    Profiler::instance().begin(zone);
  }
  ~ProfZone() {
    if (active_) Profiler::instance().end();
  }
  ProfZone(const ProfZone&) = delete;
  ProfZone& operator=(const ProfZone&) = delete;

 private:
  bool active_ = false;
};

}  // namespace seed::obs

#if SEED_PROF_COMPILED
#define SEED_PROF_CAT2(a, b) a##b
#define SEED_PROF_CAT(a, b) SEED_PROF_CAT2(a, b)
/// Opens a zone for the rest of the enclosing scope. `name` must be a
/// string literal (or otherwise outlive the program); distinct sites may
/// share a name and accumulate into one zone.
#define PROF_ZONE(name)                                                  \
  static const ::seed::obs::ZoneId SEED_PROF_CAT(seed_prof_id_,          \
                                                 __LINE__) =             \
      ::seed::obs::prof_zone_id(name);                                   \
  const ::seed::obs::ProfZone SEED_PROF_CAT(seed_prof_zone_, __LINE__)(  \
      SEED_PROF_CAT(seed_prof_id_, __LINE__))
#define PROF_BYTES(n) ::seed::obs::prof_bytes(static_cast<std::uint64_t>(n))
#define PROF_ALLOC(bytes) \
  ::seed::obs::prof_alloc(static_cast<std::uint64_t>(bytes))
#else
#define PROF_ZONE(name) static_cast<void>(0)
#define PROF_BYTES(n) static_cast<void>(n)
#define PROF_ALLOC(bytes) static_cast<void>(bytes)
#endif

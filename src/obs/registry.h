// Named-counter registry (the SEED observability layer, half two).
//
// Counters keyed by dotted names ("fleet.detected"), dumpable as
// Prometheus text exposition or JSON. The simulator itself writes no
// series: every count it keeps lives once, in a typed stats struct
// (UeStats, AppletStats, ModemStats, ChaosStats, RetentionStats) or as a
// trace event kind. The registry stays for callers that bring their own
// counters and for the label-cardinality cap the fleet benchmark drives.
//
// Like the tracer, the registry singleton is thread-local (each
// simulation thread owns an isolated instance; fleet merges fold shard
// snapshots back in shard order) and OFF by default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace seed::obs {

class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Registry {
 public:
  /// The thread's live registry is instance(); freestanding Registry
  /// values act as snapshot/merge buffers for shard captures.
  Registry() = default;

  static Registry& instance();

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  /// Handles are stable for the registry's lifetime; callers may cache
  /// them. Lookup creates the counter on first use.
  Counter& counter(std::string_view name);

  /// Caps label cardinality: at most `limit` distinct labeled series
  /// ("base{label=value}") per base name; later label values route to
  /// the shared "base{overflow}" series and bump the
  /// `obs.series_dropped` counter. 0 (the default) = unlimited.
  /// Unlabeled series are never capped.
  void set_series_limit(std::size_t limit) { series_limit_ = limit; }
  std::size_t series_limit() const { return series_limit_; }
  /// Observations routed to an overflow series so far.
  std::uint64_t series_dropped() const;

  /// Prometheus text exposition: dots in names become underscores and a
  /// "base{k=v}" series becomes base{k="v"} under one # TYPE line per
  /// base.
  void dump_prometheus(std::ostream& os) const;
  void dump_json(std::ostream& os) const;

  /// Drops every counter (names and values).
  void clear();

  /// Adds another registry's counters into this one. Fleet merges call
  /// this in shard order, so the merged dump is deterministic. Works even
  /// while disabled.
  void merge_from(const Registry& other);

  /// Value-type copy of this registry (shard captures hand snapshots
  /// across threads with it).
  Registry snapshot() const { return *this; }

 private:
  /// Applied when `name` does not exist yet: returns the series to create
  /// instead (the name itself, or its overflow series once the base is at
  /// the cardinality cap).
  std::string admit_series(std::string_view name);

  bool enabled_ = false;
  std::size_t series_limit_ = 0;
  // std::map: deterministic dump order, and node stability keeps cached
  // counter handles valid across later insertions.
  std::map<std::string, Counter, std::less<>> counters_;
  // Distinct labeled series admitted per base name.
  std::map<std::string, std::size_t, std::less<>> label_cardinality_;
};

}  // namespace seed::obs

// Named-series registry (the SEED observability layer, half two).
//
// Counters, gauges, and histograms keyed by dotted names
// ("seed.reset.b1", "seed.recovery_ms"), dumpable as Prometheus text
// exposition or JSON. Histograms are the profiler's bounded log2
// obs::Histogram (prof.h): fixed storage per series however long the run,
// and a fleet merge adds buckets.
//
// Like the tracer, the registry singleton is thread-local (each
// simulation thread owns an isolated instance; fleet merges fold shard
// snapshots back in shard order) and OFF by
// default; instrument sites gate on `Registry::instance().enabled()`
// (or use the metric handle they cached) so the disabled path costs one
// branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "obs/prof.h"

namespace seed::sim {
class Simulator;
}  // namespace seed::sim

namespace seed::obs {

class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
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
  /// them. Lookup creates the metric on first use.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Caps label cardinality: at most `limit` distinct labeled series
  /// ("base{label=value}") per base name; later label values route to
  /// the shared "base{overflow}" series and bump the
  /// `obs.series_dropped` counter. 0 (the default) = unlimited. The cap
  /// guards fleet-scale label explosions (1k UEs × per-UE series), so
  /// unlabeled series are never capped.
  void set_series_limit(std::size_t limit) { series_limit_ = limit; }
  std::size_t series_limit() const { return series_limit_; }
  /// Observations routed to an overflow series so far.
  std::uint64_t series_dropped() const;

  /// Prometheus text exposition: dots in names become underscores, a
  /// "base{k=v}" series becomes base{k="v"} under one # TYPE line per
  /// base, and histograms carry cumulative le="2^b-1" buckets.
  void dump_prometheus(std::ostream& os) const;
  void dump_json(std::ostream& os) const;

  /// Drops every metric (names and values).
  void clear();

  /// Folds another registry's series into this one: counters and
  /// histograms add, gauges take the other's value (last write
  /// wins — fleet merges call this in shard order, so the merged dump is
  /// deterministic). Works even while disabled.
  void merge_from(const Registry& other);

  /// Value-type copy of this registry (shard captures hand snapshots
  /// across threads with it).
  Registry snapshot() const { return *this; }

 private:
  /// Applied when `name` does not exist yet in a family: returns the
  /// series to create instead (the name itself, or its overflow series
  /// once the base is at the cardinality cap).
  std::string admit_series(std::string_view name);

  bool enabled_ = false;
  std::size_t series_limit_ = 0;
  // std::map: deterministic dump order, and node stability keeps cached
  // metric handles valid across later insertions.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  // Distinct labeled series admitted per base name (all families share
  // one budget — base names do not collide across families in practice).
  std::map<std::string, std::size_t, std::less<>> label_cardinality_;
};

// ----- gated convenience helpers (one branch when disabled)

inline void count(std::string_view name, std::uint64_t by = 1) {
  Registry& r = Registry::instance();
  if (!r.enabled()) return;
  r.counter(name).inc(by);
}

inline void observe(std::string_view name, std::uint64_t v) {
  Registry& r = Registry::instance();
  if (!r.enabled()) return;
  r.histogram(name).observe(v);
}

/// Prometheus-style labeled series name ("modem.reject{cause=9}"). Every
/// distinct label value mints a separate series — fleet-scale callers
/// should keep these behind the registry's enabled() gate and set a
/// series limit (see Registry::set_series_limit).
inline std::string label_series(std::string_view name, std::string_view label,
                                std::string_view value) {
  std::string s(name);
  s += '{';
  s += label;
  s += '=';
  s += value;
  s += '}';
  return s;
}

/// Per-UE series name ("fleet.injections{ue=7}").
inline std::string ue_series(std::string_view name, std::uint32_t ue) {
  return label_series(name, "ue", std::to_string(ue));
}

/// Installs a Simulator probe exporting event-loop gauges
/// (`seed.sim.queue_depth`, `seed.sim.events_processed`) and a queue-depth
/// histogram, sampled every `every_n` processed events.
void observe_simulator(sim::Simulator& sim, std::uint64_t every_n = 2048);

}  // namespace seed::obs

#include "obs/registry.h"

#include <array>
#include <cstdio>
#include <ostream>
#include <utility>
#include <vector>

#include "simcore/simulator.h"

namespace seed::obs {
namespace {

std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string fmt(double v) {
  std::array<char, 48> buf{};
  std::snprintf(buf.data(), buf.size(), "%.9g", v);
  return std::string(buf.data());
}

/// Prometheus label text of a "base{k=v}" series: k="v", with the bare
/// overflow series as overflow="true"; empty for an unlabeled series.
std::string labels_of(std::string_view name) {
  const auto brace = name.find('{');
  if (brace == std::string_view::npos) return {};
  std::string_view inner = name.substr(brace + 1);
  if (inner.ends_with('}')) inner.remove_suffix(1);
  const auto eq = inner.find('=');
  const std::string value =
      eq == std::string_view::npos ? "true" : std::string(inner.substr(eq + 1));
  return sanitize(inner.substr(0, eq)) + "=\"" + value + "\"";
}

std::string braced(const std::string& labels) {
  return labels.empty() ? labels : "{" + labels + "}";
}

/// Writes one kind's series grouped into families: one # TYPE line per
/// sanitized base name, then `sample(family, labels, metric)` per series.
/// Map order alone would not group them: "a.b" sorts between "a" and
/// "a{k=v}".
template <class Map, class Sample>
void write_families(std::ostream& os, const Map& series, const char* type,
                    Sample sample) {
  using Metric = typename Map::mapped_type;
  std::map<std::string, std::vector<std::pair<std::string, const Metric*>>>
      families;
  for (const auto& [name, m] : series) {
    families[sanitize(name.substr(0, name.find('{')))].emplace_back(
        labels_of(name), &m);
  }
  for (const auto& [family, members] : families) {
    os << "# TYPE " << family << " " << type << "\n";
    for (const auto& [labels, m] : members) sample(family, labels, *m);
  }
}

}  // namespace

Registry& Registry::instance() {
  // Thread-local: every fleet-runner worker gets an isolated registry;
  // shard snapshots are folded back into the caller's instance in shard
  // order (merge_from).
  static thread_local Registry registry;
  return registry;
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).inc(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauge(name).set(g.value());
  }
  for (const auto& [name, h] : other.histograms_) histogram(name).add(h);
}

std::string Registry::admit_series(std::string_view name) {
  const auto brace = name.find('{');
  if (series_limit_ == 0 || brace == std::string_view::npos) {
    return std::string(name);
  }
  const std::string_view base = name.substr(0, brace);
  auto it = label_cardinality_.find(base);
  if (it == label_cardinality_.end()) {
    it = label_cardinality_.emplace(std::string(base), 0).first;
  }
  if (it->second >= series_limit_) {
    // Route the observation into the base's shared overflow bucket so
    // the aggregate stays right even though the label is dropped. The
    // overflow series itself does not consume cardinality budget.
    counters_.try_emplace("obs.series_dropped").first->second.inc();
    std::string out(base);
    out += "{overflow}";
    return out;
  }
  ++it->second;
  return std::string(name);
}

std::uint64_t Registry::series_dropped() const {
  const auto it = counters_.find("obs.series_dropped");
  return it == counters_.end() ? 0 : it->second.value();
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(admit_series(name), Counter{}).first;
  }
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(admit_series(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(admit_series(name), Histogram{}).first;
  }
  return it->second;
}

void Registry::dump_prometheus(std::ostream& os) const {
  write_families(os, counters_, "counter",
                 [&](const auto& n, const auto& labels, const Counter& c) {
                   os << n << braced(labels) << " " << c.value() << "\n";
                 });
  write_families(os, gauges_, "gauge",
                 [&](const auto& n, const auto& labels, const Gauge& g) {
                   os << n << braced(labels) << " " << fmt(g.value()) << "\n";
                 });
  write_families(
      os, histograms_, "histogram",
      [&](const auto& n, const std::string& labels, const Histogram& h) {
        const std::string bucket =
            "_bucket{" + labels + (labels.empty() ? "" : ",");
        // The clamped last bucket is unbounded above: +Inf covers it.
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
          if (h[b] == 0) continue;
          cum += h[b];
          os << n << bucket << "le=\"" << (std::uint64_t{1} << b) - 1
             << "\"} " << cum << "\n";
        }
        os << n << bucket << "le=\"+Inf\"} " << h.count() << "\n"
           << n << "_sum" << braced(labels) << " " << h.sum() << "\n"
           << n << "_count" << braced(labels) << " " << h.count() << "\n";
      });
}

void Registry::dump_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << fmt(g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{\"count\":" << h.count()
       << ",\"sum\":" << h.sum() << ",\"buckets\":";
    h.write_json(os);
    os << "}";
  }
  os << "}}\n";
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  label_cardinality_.clear();
}

void observe_simulator(sim::Simulator& sim, std::uint64_t every_n) {
  sim.set_probe(
      [](std::size_t queued, std::uint64_t processed) {
        Registry& r = Registry::instance();
        if (!r.enabled()) return;
        r.gauge("seed.sim.queue_depth").set(static_cast<double>(queued));
        r.gauge("seed.sim.events_processed")
            .set(static_cast<double>(processed));
        r.histogram("seed.sim.queue_depth_hist").observe(queued);
      },
      every_n);
}

}  // namespace seed::obs

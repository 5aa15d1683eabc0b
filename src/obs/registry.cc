#include "obs/registry.h"

#include <ostream>
#include <utility>
#include <vector>

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

void Registry::dump_prometheus(std::ostream& os) const {
  // Group series into families: one # TYPE line per sanitized base name.
  // Map order alone would not group them: "a.b" sorts between "a" and
  // "a{k=v}".
  std::map<std::string, std::vector<std::pair<std::string, std::uint64_t>>>
      families;
  for (const auto& [name, c] : counters_) {
    families[sanitize(name.substr(0, name.find('{')))].emplace_back(
        labels_of(name), c.value());
  }
  for (const auto& [family, members] : families) {
    os << "# TYPE " << family << " counter\n";
    for (const auto& [labels, value] : members) {
      os << family << braced(labels) << " " << value << "\n";
    }
  }
}

void Registry::dump_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << c.value();
  }
  os << "}}\n";
}

void Registry::clear() {
  counters_.clear();
  label_cardinality_.clear();
}

}  // namespace seed::obs

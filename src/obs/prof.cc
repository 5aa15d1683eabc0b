#include "obs/prof.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <mutex>
#include <ostream>

namespace seed::obs {

namespace detail {

thread_local constinit bool tl_prof_on = false;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

namespace {

/// log2 bucket of a value: 0 stays 0, otherwise bit_width, clamped.
std::size_t bucket_of(std::uint64_t v) {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
  return b < kProfBuckets ? b : kProfBuckets - 1;
}

/// Process-wide zone name registry. Registration order depends on which
/// thread first hits a site, so nothing downstream may key off the
/// numeric id — captures and dumps always go through the name.
struct ZoneRegistry {
  std::mutex mu;
  std::vector<std::string> names;
  std::map<std::string, ZoneId, std::less<>> by_name;
};

ZoneRegistry& registry() {
  static ZoneRegistry* r = new ZoneRegistry();  // leaked: outlives TLS dtors
  return *r;
}

void dump_hist(std::ostream& os,
               const std::array<std::uint64_t, kProfBuckets>& hist) {
  os << '[';
  bool first = true;
  for (std::size_t b = 0; b < kProfBuckets; ++b) {
    if (hist[b] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '[' << b << ',' << hist[b] << ']';
  }
  os << ']';
}

}  // namespace

void ZoneStats::add(const ZoneStats& o) {
  calls += o.calls;
  incl_ns += o.incl_ns;
  excl_ns += o.excl_ns;
  bytes += o.bytes;
  allocs += o.allocs;
  alloc_bytes += o.alloc_bytes;
  for (std::size_t b = 0; b < kProfBuckets; ++b) {
    bytes_hist[b] += o.bytes_hist[b];
    time_hist[b] += o.time_hist[b];
  }
}

ZoneId prof_zone_id(std::string_view name) {
  ZoneRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.by_name.find(name);
  if (it != r.by_name.end()) return it->second;
  const ZoneId id = static_cast<ZoneId>(r.names.size());
  r.names.emplace_back(name);
  r.by_name.emplace(r.names.back(), id);
  return id;
}

const std::string& prof_zone_name(ZoneId id) {
  ZoneRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.names[id];
}

Profiler& Profiler::instance() {
  thread_local Profiler p;
  return p;
}

void Profiler::enable(bool on) {
  enabled_ = on;
  detail::tl_prof_on = on;
}

void Profiler::clear() {
  zones_.clear();
  depth_.clear();
  stack_.clear();
}

ZoneStats& Profiler::stats_for(ZoneId zone) {
  if (zones_.size() <= zone) {
    zones_.resize(zone + 1);
    depth_.resize(zone + 1, 0);
  }
  return zones_[zone];
}

void Profiler::begin(ZoneId zone) {
  stats_for(zone);  // sizes both vectors
  ++depth_[zone];
  stack_.push_back(Frame{zone, detail::now_ns(), 0});
}

void Profiler::end() {
  if (stack_.empty()) return;  // clear() ran inside an open zone
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t now = detail::now_ns();
  const std::uint64_t incl = now > f.t0 ? now - f.t0 : 0;
  const std::uint64_t excl = incl > f.child_ns ? incl - f.child_ns : 0;
  ZoneStats& st = zones_[f.zone];
  ++st.calls;
  st.excl_ns += excl;
  ++st.time_hist[bucket_of(excl)];
  // A zone nested inside itself contributes inclusive time only at the
  // outermost instance, so incl_ns is real elapsed time, never inflated.
  if (--depth_[f.zone] == 0) st.incl_ns += incl;
  if (!stack_.empty()) stack_.back().child_ns += incl;
}

void Profiler::add_bytes(std::uint64_t n) {
  if (stack_.empty()) return;
  ZoneStats& st = zones_[stack_.back().zone];
  st.bytes += n;
  ++st.bytes_hist[bucket_of(n)];
}

void Profiler::add_alloc(std::uint64_t bytes) {
  if (stack_.empty()) return;
  ZoneStats& st = zones_[stack_.back().zone];
  ++st.allocs;
  st.alloc_bytes += bytes;
}

std::vector<ProfRow> Profiler::rows() const {
  std::vector<ProfRow> out;
  for (ZoneId id = 0; id < zones_.size(); ++id) {
    if (!zones_[id].touched()) continue;
    out.push_back(ProfRow{prof_zone_name(id), zones_[id]});
  }
  std::sort(out.begin(), out.end(),
            [](const ProfRow& a, const ProfRow& b) { return a.name < b.name; });
  return out;
}

void Profiler::absorb(const std::vector<ProfRow>& shard) {
  for (const ProfRow& row : shard) {
    stats_for(prof_zone_id(row.name)).add(row.stats);
  }
}

void Profiler::dump_json(std::ostream& os, std::string_view workload,
                         bool include_times) const {
  dump_prof_json(os, workload, rows(), include_times);
}

void dump_prof_json(std::ostream& os, std::string_view workload,
                    const std::vector<ProfRow>& rows, bool include_times) {
  os << "{\"profile\":{\"workload\":\"" << workload << "\",\"zones\":[";
  bool first = true;
  for (const ProfRow& row : rows) {
    if (!first) os << ',';
    first = false;
    const ZoneStats& st = row.stats;
    os << "\n{\"name\":\"" << row.name << "\",\"calls\":" << st.calls
       << ",\"bytes\":" << st.bytes << ",\"allocs\":" << st.allocs
       << ",\"alloc_bytes\":" << st.alloc_bytes << ",\"bytes_hist\":";
    dump_hist(os, st.bytes_hist);
    if (include_times) {
      os << ",\"incl_us\":" << st.incl_ns / 1000
         << ",\"excl_us\":" << st.excl_ns / 1000 << ",\"time_hist\":";
      dump_hist(os, st.time_hist);
    }
    os << '}';
  }
  os << "\n]}}\n";
}

}  // namespace seed::obs

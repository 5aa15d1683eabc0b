#include "common/perf_gate.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace seed::gate {

namespace {

/// Doubles in the baseline are counters or ratios; print integers
/// without a decimal point so --update-baseline round-trips bytes.
std::string render_number(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::vector<GateSpec> parse_baseline(const minijson::Value& doc) {
  std::vector<GateSpec> out;
  for (const minijson::Value& g : doc.at("gates").as_array()) {
    GateSpec spec;
    spec.name = g.at("name").as_string();
    spec.file = g.at("file").as_string();
    if (const minijson::Value* path = g.find("path")) {
      for (const minijson::Value& key : path->as_array()) {
        spec.path.push_back(key.as_string());
      }
    }
    if (const minijson::Value* zone = g.find("zone")) {
      spec.zone = zone->as_string();
      spec.field = g.at("field").as_string();
    }
    if (spec.path.empty() == spec.zone.empty()) {
      throw minijson::ParseError(
          "gate '" + spec.name + "': need exactly one of path/zone", 0);
    }
    spec.value = g.at("value").as_number();
    if (const minijson::Value* exact = g.find("exact")) {
      spec.exact = exact->as_bool();
    }
    if (const minijson::Value* r = g.find("min_ratio")) {
      spec.min_ratio = r->as_number();
    }
    if (g.find("max_ratio") != nullptr) {
      throw minijson::ParseError(
          "gate '" + spec.name + "': max_ratio is no longer supported", 0);
    }
    if (!spec.exact && !spec.min_ratio) {
      throw minijson::ParseError(
          "gate '" + spec.name + "': no tolerance (exact or min_ratio)", 0);
    }
    out.push_back(std::move(spec));
  }
  return out;
}

double extract_value(const GateSpec& g, const minijson::Value& bench_doc) {
  if (!g.zone.empty()) {
    for (const minijson::Value& row :
         bench_doc.at("profile").at("zones").as_array()) {
      if (row.at("name").as_string() == g.zone) {
        return row.at(g.field).as_number();
      }
    }
    throw minijson::ParseError(
        "gate '" + g.name + "': zone '" + g.zone + "' not in profile", 0);
  }
  const minijson::Value* v = &bench_doc;
  for (const std::string& key : g.path) v = &v->at(key);
  return v->as_number();
}

GateResult evaluate(const GateSpec& g, double actual) {
  GateResult res;
  res.name = g.name;
  res.baseline = g.value;
  res.actual = actual;
  std::ostringstream detail;
  if (g.exact) {
    res.pass = actual == g.value;
    detail << g.name << ": " << render_number(actual)
           << (res.pass ? " == " : " != ") << render_number(g.value)
           << " (exact)";
  } else {
    const double bound = g.value * *g.min_ratio;
    res.pass = actual >= bound;
    detail << g.name << ": " << render_number(actual) << " vs baseline "
           << render_number(g.value) << " [>=" << render_number(bound)
           << "]";
  }
  detail << (res.pass ? " PASS" : " FAIL");
  res.detail = detail.str();
  return res;
}

std::string render_baseline(const std::vector<GateSpec>& gates) {
  std::ostringstream os;
  os << "{\"gates\":[";
  bool first = true;
  for (const GateSpec& g : gates) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << g.name << "\",\"file\":\"" << g.file << "\"";
    if (!g.zone.empty()) {
      os << ",\"zone\":\"" << g.zone << "\",\"field\":\"" << g.field << "\"";
    } else {
      os << ",\"path\":[";
      for (std::size_t i = 0; i < g.path.size(); ++i) {
        if (i != 0) os << ',';
        os << '"' << g.path[i] << '"';
      }
      os << ']';
    }
    os << ",\"value\":" << render_number(g.value);
    if (g.exact) os << ",\"exact\":true";
    if (g.min_ratio) os << ",\"min_ratio\":" << render_number(*g.min_ratio);
    os << '}';
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace seed::gate

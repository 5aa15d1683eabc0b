// Regression gate evaluation: compares fresh BENCH_*.json outputs
// against a committed baseline file.
//
// Two gate flavours:
//  - exact gates pin deterministic counters (simulated event counts,
//    profiler zone calls/bytes, retained trace bytes): any drift is a
//    semantic change and fails regardless of host speed;
//  - ratio gates require actual >= value * min_ratio. The one in the
//    committed baseline bounds the event loop's slab-vs-legacy speedup,
//    a same-process ratio; host throughput is bounded by perfbench and
//    BENCHMARK.json, not here.
//
// Baseline format (perf_baseline.json):
//   {"gates":[
//     {"name":"...","file":"BENCH_x.json","path":["a","b"],
//      "value":123,"exact":true},
//     {"name":"...","file":"BENCH_profile.json","zone":"nas.encode",
//      "field":"calls","value":2823,"exact":true},
//     {"name":"...","file":"BENCH_y.json","path":["speedup"],
//      "value":2.9,"min_ratio":0.5}]}
//
// The library is pure evaluation over parsed JSON; file IO and argv
// handling live in the bench_gate CLI so tests can drive everything
// in-process (including synthetic regressions).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/minijson.h"

namespace seed::gate {

struct GateSpec {
  std::string name;                 // stable id, shown in reports
  std::string file;                 // bench output file the value lives in
  std::vector<std::string> path;    // nested object keys, outermost first
  std::string zone;                 // BENCH_profile.json zone selector...
  std::string field;                // ...and the stat inside the zone row
  double value = 0.0;               // committed baseline
  bool exact = false;               // counter gate: actual must equal value
  std::optional<double> min_ratio;  // actual >= value * min_ratio
};

struct GateResult {
  std::string name;
  double baseline = 0.0;
  double actual = 0.0;
  bool pass = false;
  std::string detail;  // human-readable verdict line
};

/// Parses a perf_baseline.json document. Throws minijson::ParseError on
/// structural problems (missing keys, wrong types) and on the retired
/// "max_ratio" key, so a stale baseline cannot silently lose a bound.
std::vector<GateSpec> parse_baseline(const minijson::Value& doc);

/// Extracts the gated value from a parsed bench output document.
/// Throws minijson::ParseError when the path/zone is absent.
double extract_value(const GateSpec& g, const minijson::Value& bench_doc);

/// Applies the tolerance band to an extracted value.
GateResult evaluate(const GateSpec& g, double actual);

/// Serializes gates back to the baseline format (the --update-baseline
/// path): same gates, refreshed values, byte-stable field order.
std::string render_baseline(const std::vector<GateSpec>& gates);

}  // namespace seed::gate

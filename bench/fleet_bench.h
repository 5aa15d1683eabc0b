// Shared plumbing for fleet benches: `--flag` and `--key=value`
// arguments, thread-count selection and the per-cell outcome tally.
//
// Thread count resolution order: SEED_FLEET_THREADS env var, then a
// `--threads=N` argument, then hardware_concurrency — so CI and the
// determinism check (1-thread vs N-thread byte-identical output) can pin
// the pool without rebuilding.
#pragma once

#include <cstdlib>
#include <cstring>

#include "metrics/stats.h"
#include "simcore/fleet_runner.h"
#include "testbed/testbed.h"

namespace seed::benchutil {

/// One cell's runs, bucketed by testbed::classify.
struct OutcomeTally {
  int total = 0;
  int recovered = 0;
  int user_action = 0;
  metrics::Samples disruption;  // recovered runs only

  void add(const testbed::Outcome& out, const testbed::Scenario& s) {
    ++total;
    switch (testbed::classify(out, s)) {
      case testbed::OutcomeClass::kRecovered:
        ++recovered;
        disruption.add(out.disruption_s);
        break;
      case testbed::OutcomeClass::kUserAction:
        ++user_action;
        break;
      case testbed::OutcomeClass::kFailed:
        break;
    }
  }

  /// Recovered share of the runs that do not need the user to act.
  double recovery_rate() const {
    const int recoverable = total - user_action;
    return recoverable > 0 ? static_cast<double>(recovered) / recoverable
                           : 1.0;
  }
};

/// True when the bare argument `key` is present.
inline bool flag_of(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return true;
  }
  return false;
}

/// Value of the first `key=value` argument, or nullptr when absent.
inline const char* str_of(int argc, char** argv, const char* key) {
  const std::size_t n = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, n) == 0 && argv[i][n] == '=') {
      return argv[i] + n + 1;
    }
  }
  return nullptr;
}

/// Value of the first `key=N` argument, or `fallback` when absent.
inline long long arg_of(int argc, char** argv, const char* key,
                        long long fallback) {
  const char* v = str_of(argc, argv, key);
  return v ? std::strtoll(v, nullptr, 10) : fallback;
}

inline std::size_t fleet_threads(int argc, char** argv) {
  if (const std::size_t env = sim::fleet_threads_from_env(0)) return env;
  if (const long long v = arg_of(argc, argv, "--threads", 0); v > 0) {
    return static_cast<std::size_t>(v);
  }
  return 0;  // FleetRunner: hardware_concurrency
}

}  // namespace seed::benchutil

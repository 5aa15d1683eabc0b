// Shared plumbing for fleet benches: `--key=N` arguments and
// thread-count selection.
//
// Thread count resolution order: SEED_FLEET_THREADS env var, then a
// `--threads=N` argument, then hardware_concurrency — so CI and the
// determinism check (1-thread vs N-thread byte-identical output) can pin
// the pool without rebuilding.
#pragma once

#include <cstdlib>
#include <cstring>

#include "simcore/fleet_runner.h"

namespace seed::benchutil {

/// Value of the first `key=N` argument, or `fallback` when absent.
inline long long arg_of(int argc, char** argv, const char* key,
                        long long fallback) {
  const std::size_t n = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, n) == 0 && argv[i][n] == '=') {
      return std::strtoll(argv[i] + n + 1, nullptr, 10);
    }
  }
  return fallback;
}

inline std::size_t fleet_threads(int argc, char** argv) {
  if (const std::size_t env = sim::fleet_threads_from_env(0)) return env;
  if (const long long v = arg_of(argc, argv, "--threads", 0); v > 0) {
    return static_cast<std::size_t>(v);
  }
  return 0;  // FleetRunner: hardware_concurrency
}

}  // namespace seed::benchutil

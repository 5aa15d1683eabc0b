// Shared plumbing for fleet benches: thread-count selection.
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

inline std::size_t fleet_threads(int argc, char** argv) {
  if (const std::size_t env = sim::fleet_threads_from_env(0)) return env;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const long v = std::strtol(argv[i] + 10, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
  }
  return 0;  // FleetRunner: hardware_concurrency
}

}  // namespace seed::benchutil

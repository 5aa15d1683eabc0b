// Scenario: a fleet of devices meets an operator-customized failure no
// standardized cause covers (paper §5.3). Early devices walk Algorithm 1's
// trial ladder (B3 -> A3 -> B2 -> A2 -> B1 -> A1); their SIMs record what
// worked and upload the records OTA; the infrastructure's crowd-sourced
// NetRecord then suggests the right action to later devices with a
// probability that ramps along the sigmoid gate.
//
// The fleet runs in OTA waves on the FleetRunner pool: every device in a
// wave consults the model as it stood when the wave started (its shard
// gets a private NetRecord copy), and the wave's new records are folded
// back into the shared model in shard order before the next wave — the
// parallel-fleet equivalent of batched OTA uploads, deterministic for any
// thread count (SEED_FLEET_THREADS pins the pool).
//
//   ./build/examples/online_learning_fleet
#include <iostream>
#include <map>

#include "metrics/stats.h"
#include "metrics/table.h"
#include "seed/online_learning.h"
#include "simcore/fleet_runner.h"
#include "testbed/testbed.h"

int main(int argc, char** argv) {
  using namespace seed;
  using namespace seed::testbed;

  constexpr core::CustomCause kCause = 0xC9;  // a broken c-plane function
  constexpr int kWaves = 10;
  constexpr int kDevicesPerWave = 3;
  core::NetRecord learner(/*lr=*/0.25);

  std::size_t threads = sim::fleet_threads_from_env(0);
  if (threads == 0 && argc > 1) {
    threads = static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10));
  }
  const sim::FleetRunner fleet(threads);

  std::cout << "Fleet of devices hitting custom control-plane failure 0xC9\n"
            << "(unknown to the standardized cause registry), "
            << kWaves << " OTA waves x " << kDevicesPerWave
            << " devices:\n\n";

  struct DeviceOut {
    Outcome out;
    std::vector<core::SimRecordStore::Entry> contributed;
  };

  metrics::Table t({"Wave", "Suggest prob. before", "Mean disruption (s)",
                    "Records after", "Learned action"});
  for (int wave = 0; wave < kWaves; ++wave) {
    const double p_before = learner.suggestion_probability(kCause);
    const auto before_entries = learner.export_entries();

    const auto outs = fleet.map<DeviceOut>(
        kDevicesPerWave, [&](const sim::ShardInfo& info) {
          const auto device =
              static_cast<std::uint64_t>(wave) * kDevicesPerWave +
              info.index;
          // Private model copy: suggestions come from the wave-start
          // snapshot; new records are diffed out and merged after.
          core::NetRecord local = learner;
          Testbed tb(9000 + device * 37, device::Scheme::kSeedR);
          tb.secondary_congestion_prob = 0;
          tb.core().set_learner(&local);
          tb.bring_up();
          DeviceOut d;
          d.out = tb.run_custom_failure(nas::Plane::kControl, kCause,
                                        sim::minutes(12));
          // OTA upload: only what this device added on top of the
          // snapshot.
          std::map<std::pair<core::CustomCause, proto::ResetAction>,
                   std::uint32_t>
              delta;
          for (const auto& e : local.export_entries()) {
            delta[{e.cause, e.action}] = e.count;
          }
          for (const auto& e : before_entries) {
            delta[{e.cause, e.action}] -= e.count;
          }
          for (const auto& [key, count] : delta) {
            if (count > 0) {
              d.contributed.push_back(
                  core::SimRecordStore::Entry{key.first, key.second, count});
            }
          }
          return d;
        });

    // Crowd-source the wave's uploads in shard order (deterministic).
    metrics::Samples disruption;
    for (const DeviceOut& d : outs) {
      learner.absorb(d.contributed);
      if (d.out.recovered) disruption.add(d.out.disruption_s);
    }

    const auto best = learner.best_action(kCause);
    t.row({std::to_string(wave), metrics::Table::pct(p_before, 0),
           disruption.empty() ? "-" : metrics::Table::num(disruption.mean(), 1),
           std::to_string(learner.record_count(kCause)),
           best ? std::string(proto::reset_action_name(*best)) : "(none)"});
  }
  t.print(std::cout);

  std::cout << "\nEarly waves pay the trial-ladder cost; once the learner\n"
               "has seen enough OTA-uploaded records, the suggestion gate\n"
               "opens (sigmoid of record count x lr) and later waves get\n"
               "the B2 control-plane reattach immediately.\n";
  return 0;
}

// Reproduces paper §7.2.4: online-learning validation. Six devices of
// different models connect to the testbed; 4 control-plane and 4
// data-plane network functions are failed 50 times each with customized
// (unstandardized) cause codes. The crowd-sourced SIM records must
// classify every cause into the right plane and recommend a matching
// reset action; the sigmoid suggestion gate (Algorithm 1 line 14) ramps
// up as records accumulate.
#include <iostream>

#include "metrics/table.h"
#include "seed/online_learning.h"
#include "testbed/testbed.h"

int main() {
  using namespace seed;
  using namespace seed::testbed;
  constexpr std::uint64_t kSeed = 20220808;
  constexpr int kDevices = 6;
  constexpr int kFailuresPerFunction = 50;
  constexpr double kLearningRate = 0.12;

  // 4 control-plane + 4 data-plane "functions" with customized codes.
  struct Function {
    core::CustomCause code;
    bool control_plane;
  };
  const Function functions[] = {
      {0xA1, true},  {0xA2, true},  {0xA3, true},  {0xA4, true},
      {0xB1, false}, {0xB2, false}, {0xB3, false}, {0xB4, false},
  };

  core::NetRecord learner(kLearningRate);
  int total_recovered = 0, total_runs = 0;
  std::map<core::CustomCause, int> suggested_runs;

  for (int round = 0; round < kFailuresPerFunction; ++round) {
    for (const auto& fn : functions) {
      const int device = (round + static_cast<int>(fn.code)) % kDevices;
      Testbed tb(kSeed + static_cast<std::uint64_t>(round) * 131 +
                     fn.code * 17 + static_cast<std::uint64_t>(device),
                 device::Scheme::kSeedR);
      tb.core().set_learner(&learner);
      tb.bring_up();
      // The learner's pre-run suggestion (if any) drives the handling.
      const Outcome out = tb.run_custom_failure(
          fn.control_plane ? nas::Plane::kControl : nas::Plane::kData,
          fn.code, sim::minutes(12));
      ++total_runs;
      if (out.recovered) ++total_recovered;
    }
  }

  metrics::print_banner(std::cout,
                        "§7.2.4 online learning: 8 custom functions x " +
                            std::to_string(kFailuresPerFunction) +
                            " failures, " + std::to_string(kDevices) +
                            " devices, lr=" + std::to_string(kLearningRate));
  std::cout << "recovered " << total_recovered << "/" << total_runs
            << " runs\n";

  metrics::Table t({"Custom cause", "True plane", "Records",
                    "Learned action", "Correct plane?", "Suggest prob."});
  int correct = 0;
  for (const auto& fn : functions) {
    const auto best = learner.best_action(fn.code);
    std::string action = best ? std::string(proto::reset_action_name(*best))
                              : "(none)";
    bool is_cp_action =
        best && (*best == proto::ResetAction::kB2CPlaneReattach ||
                 *best == proto::ResetAction::kB1ModemReset ||
                 *best == proto::ResetAction::kA1ProfileReload ||
                 *best == proto::ResetAction::kA2CPlaneConfigUpdate);
    bool is_dp_action =
        best && (*best == proto::ResetAction::kB3DPlaneReset ||
                 *best == proto::ResetAction::kA3DPlaneConfigUpdate);
    const bool ok = fn.control_plane ? is_cp_action : is_dp_action;
    if (ok) ++correct;
    char code_buf[8];
    std::snprintf(code_buf, sizeof(code_buf), "0x%02X", fn.code);
    t.row({code_buf, fn.control_plane ? "control" : "data",
           std::to_string(learner.record_count(fn.code)), action,
           ok ? "yes" : "NO",
           metrics::Table::pct(learner.suggestion_probability(fn.code), 0)});
  }
  t.print(std::cout);
  std::cout << correct << "/8 causes mapped to the correct plane's reset "
            << "action (paper: records correctly classify all failures "
            << "into control or data plane and recommend corresponding "
            << "reset actions)\n";
  return 0;
}

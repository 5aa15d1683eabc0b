// Diagnosis-accuracy bench: runs the labeled ground-truth scenario packs
// across a sharded fleet, joins every kGroundTruthLabel to the first
// kDiagnosisVerdict carrying its label, and writes the per-cause
// confusion matrices, precision/recall, and the §5.3 learner convergence
// curve to BENCH_accuracy.json.
//
// Deterministic and shard-merge-stable: each shard owns its simulator,
// RNG stream, and thread-local obs world; shard label ranges are
// disjoint (ordinal base = shard * 4096) and the scorer aggregates the
// convergence curve by learner depth, not stream position — so the
// committed JSON is byte-identical for ANY worker count
// (SEED_FLEET_THREADS=1 and =8 produce the same file, and CI cmp's
// both against the committed copy).
//
// Usage: bench_accuracy [--shards=N] [--seed=S] [--threads=N]

#include <fstream>
#include <iostream>
#include <vector>

#include "eval/accuracy.h"
#include "fleet_bench.h"
#include "obs/fleet_obs.h"
#include "simcore/fleet_runner.h"
#include "testbed/labeled_scenarios.h"
#include "testbed/multi_testbed.h"

using namespace seed;

namespace {

constexpr std::size_t kRounds = 2;
/// Extra custom-cause injections after the pack: each confirmed recovery
/// uploads a crowd record, deepening the learner between decisions — the
/// x-axis of the convergence curve.
constexpr int kLearnerDeepeningRounds = 6;

obs::ShardObs run_shard(const sim::ShardInfo& info) {
  obs::begin_shard_obs(/*traces=*/true, /*metrics=*/false);

  testbed::MultiOptions o;
  // One dedicated UE per cause family (recovery cascades never bleed
  // across rows of the confusion matrix).
  const auto families = testbed::LabeledScenarioGen::all_families();
  o.ue_count = families.size();
  o.scheme = testbed::Scheme::kSeedU;
  o.seed_r_every = 1;  // all SEED-R: delivery reports travel the uplink
  o.diag_cache = true;
  o.outdated_dnn_population = true;
  testbed::MultiTestbed bed(info.seed, o);
  bed.bring_up_all();
  // Clear the §4.4.2 conflict window left by the bring-up assists so the
  // first round's delivery reports are diagnosed, not suppressed.
  bed.simulator().run_for(sim::seconds(10));

  testbed::LabeledScenarioGen gen(
      bed, static_cast<std::uint32_t>(info.index));
  testbed::LabeledScenarioGen::PackOptions pack;
  pack.rounds = kRounds;
  gen.run_pack(pack);

  // The custom-cause UE is the family's dedicated slot in the pack.
  corenet::UeId custom_ue = 0;
  for (std::size_t i = 0; i < families.size(); ++i) {
    if (families[i] == core::CauseFamily::kCustomUnknown) {
      custom_ue = static_cast<corenet::UeId>(i);
    }
  }
  for (int i = 0; i < kLearnerDeepeningRounds; ++i) {
    gen.inject(core::CauseFamily::kCustomUnknown, custom_ue);
    bed.simulator().run_for(sim::seconds(40));
  }
  bed.simulator().run_for(sim::seconds(60));

  return obs::end_shard_obs();
}

}  // namespace

int main(int argc, char** argv) {
  const auto shards =
      static_cast<std::size_t>(benchutil::arg_of(argc, argv, "--shards", 4));
  const auto seed =
      static_cast<std::uint64_t>(benchutil::arg_of(argc, argv, "--seed", 42));
  const std::size_t workers = benchutil::fleet_threads(argc, argv);

  const sim::FleetRunner runner(workers, seed);
  std::vector<obs::ShardObs> captures = runner.map<obs::ShardObs>(
      shards, [](const sim::ShardInfo& info) { return run_shard(info); });

  // Concatenate in shard order. Labels are globally unique (disjoint
  // per-shard ordinal ranges), so scoring the concatenation equals
  // scoring each shard and summing.
  std::vector<obs::Event> events;
  std::size_t total = 0;
  for (const obs::ShardObs& c : captures) total += c.trace_events.size();
  events.reserve(total);
  for (obs::ShardObs& c : captures) {
    for (obs::Event& e : c.trace_events) events.push_back(std::move(e));
  }

  const eval::AccuracyReport report = eval::score(events);
  eval::print_text(std::cout, report);

  std::ofstream json("BENCH_accuracy.json", std::ios::trunc);
  json << "{\"bench\":\"accuracy\",\"shards\":" << shards
       << ",\"seed\":" << seed << ",\"ues_per_shard\":"
       << testbed::LabeledScenarioGen::all_families().size()
       << ",\"rounds\":" << kRounds << ",\n\"report\": ";
  eval::write_json(json, report);
  json << "}\n";
  std::cout << "wrote BENCH_accuracy.json (" << report.labels
            << " labeled injections, " << events.size()
            << " trace events)\n";
  return 0;
}

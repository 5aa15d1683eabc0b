// Adversarial-survival bench: the semantic mutation storm of the chaos
// layer (field-aware header forgery, stale-fragment replay, unsolicited
// pre-security-context downlinks) against the hardened decoders and the
// peer penalty box. Three cells over the Table-1 failure mix on SEED-R
// (both collaboration directions live):
//
//   clean          — no chaos at all (purity + disruption baseline)
//   syntactic      — bit-flip corruption on both collab directions (the
//                    pre-existing chaos model; integrity check holds)
//   semantic_storm — every semantic injection point hot: the *decoders*
//                    and the quarantine machinery must hold the line
//
// Survival criteria (CI compares BENCH_adversarial.json byte for byte
// with the committed copy):
//   - zero applet/decoder crashes in every cell (ASan/UBSan CI job runs
//     this bench too, giving the no-crash claim teeth)
//   - 100% recovery of recoverable failures under the storm
//   - deterministic mutation/reject/quarantine counts, byte-identical
//     for any fleet worker count (jobs pre-sampled, merged in order)
//
// BENCH_adversarial.json is a single JSON object keyed by cell, so a
// json.tool diff against the committed copy names the drifted counter.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "fleet_bench.h"
#include "metrics/table.h"

namespace {

using namespace seed;
using namespace seed::testbed;

constexpr std::uint64_t kSeed = 20260807;
constexpr int kRuns = 40;

struct CellSpec {
  const char* name;
  bool chaos = false;
  chaos::ChaosConfig config;
};

std::vector<CellSpec> make_cells() {
  CellSpec clean;
  clean.name = "clean";

  CellSpec syntactic;
  syntactic.name = "syntactic";
  syntactic.chaos = true;
  syntactic.config.downlink_corrupt = 0.30;
  syntactic.config.uplink_corrupt = 0.30;

  CellSpec storm;
  storm.name = "semantic_storm";
  storm.chaos = true;
  storm.config.semantic_downlink = 0.50;
  storm.config.semantic_uplink = 0.50;
  storm.config.replay_downlink = 0.30;
  storm.config.unsolicited_downlink = 0.30;

  return {clean, syntactic, storm};
}

struct RunOut {
  Outcome out;
  std::uint64_t injections = 0;
  std::uint64_t mutations = 0;      // semantic points only
  std::uint64_t decode_rejects = 0;
  std::uint64_t malformed_rx = 0;
  std::uint64_t quarantine_drops = 0;
  std::uint64_t suspect_dropped = 0;
  std::uint64_t malformed_downlinks = 0;
  std::uint64_t applet_crashes = 0;
};

struct CellResult : benchutil::OutcomeTally {
  std::uint64_t injections = 0;
  std::uint64_t mutations = 0;
  std::uint64_t decode_rejects = 0;
  std::uint64_t malformed_rx = 0;
  std::uint64_t quarantine_drops = 0;
  std::uint64_t suspect_dropped = 0;
  std::uint64_t malformed_downlinks = 0;
  std::uint64_t applet_crashes = 0;
};

CellResult run_cell(const sim::FleetRunner& fleet, const CellSpec& cell,
                    std::uint64_t seed) {
  const std::vector<Scenario> jobs = table1_scenarios(seed, kRuns);
  const auto outs = fleet.map<RunOut>(
      jobs.size(), [&](const sim::ShardInfo& info) {
        Testbed tb(jobs[info.index].tb_seed, device::Scheme::kSeedR);
        if (cell.chaos) tb.enable_chaos(cell.config);
        RunOut r{run_scenario(tb, jobs[info.index])};
        if (tb.chaos() != nullptr) {
          const chaos::ChaosStats& cs = tb.chaos()->stats();
          r.injections = cs.total();
          r.mutations = cs.downlink_mutated + cs.uplink_mutated +
                        cs.downlink_replayed + cs.unsolicited_injected;
        }
        const corenet::CoreStats& core = tb.core().stats();
        r.decode_rejects = core.decode_rejects;
        r.malformed_rx = core.malformed_rx;
        r.quarantine_drops = core.quarantine_drops;
        r.suspect_dropped = core.suspect_reports_dropped;
        const applet::AppletStats& ap = tb.dev().applet().stats();
        r.malformed_downlinks = ap.malformed_downlinks;
        r.applet_crashes = ap.applet_crashes;
        return r;
      });

  CellResult res;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const RunOut& r = outs[i];
    res.add(r.out, jobs[i]);
    res.injections += r.injections;
    res.mutations += r.mutations;
    res.decode_rejects += r.decode_rejects;
    res.malformed_rx += r.malformed_rx;
    res.quarantine_drops += r.quarantine_drops;
    res.suspect_dropped += r.suspect_dropped;
    res.malformed_downlinks += r.malformed_downlinks;
    res.applet_crashes += r.applet_crashes;
  }
  return res;
}

void append_cell_json(std::ostream& os, const CellSpec& cell,
                      const CellResult& r) {
  os << "\"" << cell.name << "\":{\"runs\":" << r.total
     << ",\"recovered\":" << r.recovered
     << ",\"user_action\":" << r.user_action
     << ",\"recovery_rate\":" << r.recovery_rate()
     << ",\"injections\":" << r.injections
     << ",\"mutations\":" << r.mutations
     << ",\"decode_rejects\":" << r.decode_rejects
     << ",\"malformed_rx\":" << r.malformed_rx
     << ",\"quarantine_drops\":" << r.quarantine_drops
     << ",\"suspect_dropped\":" << r.suspect_dropped
     << ",\"malformed_downlinks\":" << r.malformed_downlinks
     << ",\"applet_crashes\":" << r.applet_crashes << ",\"disruption_s\":{"
     << "\"p50\":" << r.disruption.median()
     << ",\"p90\":" << r.disruption.percentile(90)
     << ",\"p99\":" << r.disruption.percentile(99) << "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const sim::FleetRunner fleet(benchutil::fleet_threads(argc, argv));
  const std::vector<CellSpec> cells = make_cells();

  metrics::print_banner(
      std::cout,
      "Adversarial survival: semantic mutation storm vs hardened decoders "
      "(SEED-R, seed " + std::to_string(kSeed) + ", " +
      std::to_string(kRuns) + " runs/cell)");

  std::ofstream json("BENCH_adversarial.json");
  json << "{\"bench\":\"adversarial\",\"seed\":" << kSeed
       << ",\"runs_per_cell\":" << kRuns << ",\"cells\":{";

  metrics::Table t({"Cell", "Recovery", "Median (s)", "99th (s)",
                    "Mutations", "Malformed", "Quarantined", "Crashes"});
  double clean_median = 0.0;
  bool first = true;
  for (const CellSpec& cell : cells) {
    // Seed each cell by its position so adding a cell never reshuffles
    // the failure mixes of the existing ones.
    const std::uint64_t cell_seed =
        kSeed + static_cast<std::uint64_t>(&cell - cells.data()) * 1000;
    const CellResult r = run_cell(fleet, cell, cell_seed);
    if (!cell.chaos) clean_median = r.disruption.median();
    if (!first) json << ",";
    first = false;
    append_cell_json(json, cell, r);
    t.row({cell.name, metrics::Table::pct(r.recovery_rate(), 1),
           metrics::Table::num(r.disruption.median(), 1),
           metrics::Table::num(r.disruption.percentile(99), 1),
           std::to_string(r.mutations), std::to_string(r.malformed_rx),
           std::to_string(r.quarantine_drops),
           std::to_string(r.applet_crashes)});
    if (cell.chaos && clean_median > 0.0) {
      std::cout << "  [" << cell.name << "] median/clean = "
                << metrics::Table::num(r.disruption.median() / clean_median,
                                       2)
                << "x (acceptance bound 3x)\n";
    }
  }
  json << "}}\n";
  t.print(std::cout);
  std::cout << "\ncells written to BENCH_adversarial.json\n";
  return 0;
}

// City-scale failure storm: 1k UEs on one core, the Table 1 failure mix
// injected continuously plus a rolling congestion wave sweeping the
// cells, with the shared Fig. 8 diagnosis cache on. Reports simulated
// event counts and the diagnosis-cache hit rate — how far one core's
// SEED plugin amortizes across a city. Wall-clock throughput of the same
// storm is perfbench's storm1k sim_events_per_s.
//
// Deterministic: for a fixed --seed the storm schedule, every recovery,
// and the whole BENCH_city.json line are byte-identical run to run.
//
// The fleet health engine and per-UE flight recorder ride along as
// strictly passive trace observers: they judge recovery/failure-rate/
// collab/cache SLOs over rolling sim-time windows and capture blackboxes
// for terminal failures, writing BENCH_health.json — without changing a
// byte of BENCH_city.json.
//
// Usage: bench_city_storm [--ues=N] [--seed=S] [--storm-min=M]
//                         [--no-cache] [--trace=city_trace.jsonl]
//                         [--blackbox=city_blackbox.jsonl]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "fleet_bench.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "testbed/city_workload.h"
#include "testbed/multi_testbed.h"
#include "testbed/profile_workload.h"

using namespace seed;

namespace {

long long arg_of(int argc, char** argv, const char* key, long long fallback) {
  const std::size_t n = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, n) == 0 && argv[i][n] == '=') {
      return std::strtoll(argv[i] + n + 1, nullptr, 10);
    }
  }
  return fallback;
}

bool flag_of(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return true;
  }
  return false;
}

const char* str_of(int argc, char** argv, const char* key) {
  const std::size_t n = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, n) == 0 && argv[i][n] == '=') {
      return argv[i] + n + 1;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const auto n_ues = static_cast<std::size_t>(arg_of(argc, argv, "--ues",
                                                     1000));
  const auto seed = static_cast<std::uint64_t>(arg_of(argc, argv, "--seed",
                                                      42));
  const auto storm_min = arg_of(argc, argv, "--storm-min", 10);
  const bool cache_on = !flag_of(argc, argv, "--no-cache");
  const char* trace_path = str_of(argc, argv, "--trace");
  const char* blackbox_path = str_of(argc, argv, "--blackbox");

  // The stack writes no registry series (its counts live in typed stats
  // and trace kinds), so series_dropped in BENCH_health.json pins 0: any
  // per-UE series creeping back onto the hot path shows up as a diff.
  obs::Registry::instance().clear();
  obs::Registry::instance().enable(true);
  obs::Registry::instance().set_series_limit(256);
  // The health engine and flight recorder tap the tracer, so tracing is
  // always on; --trace only controls whether the raw stream is dumped.
  obs::Tracer::instance().enable(true);
  obs::HealthEngine health;
  obs::FlightRecorder recorder(64);
  obs::Tracer::instance().add_observer(&health);
  obs::Tracer::instance().add_observer(&recorder);

  testbed::MultiOptions opts;
  opts.ue_count = n_ues;
  opts.scheme = testbed::Scheme::kSeedU;
  opts.diag_cache = cache_on;
  testbed::MultiTestbed city(seed, opts);

  std::cout << "bringing up " << n_ues << " UEs (outdated-DNN population, "
            << (cache_on ? "shared diagnosis cache" : "cache OFF") << ")...\n";
  city.bring_up_all();
  const auto events_after_bringup = city.simulator().events_processed();
  std::cout << "  fleet healthy after " << events_after_bringup
            << " simulated events\n";

  // ---- the storm: every UE draws failures from the Table 1 mix at an
  // exponential-ish cadence, and a congestion wave rolls over 5% of the
  // city every 30 s.
  auto& sim = city.simulator();
  auto& rng = city.rng();
  city.start_rolling_congestion(sim::seconds(30), sim::seconds(12), 0.05);

  const auto storm_end = sim.now() + sim::minutes(storm_min);
  // Mean one injection per UE per 2 simulated minutes: with 1k UEs that
  // is ~8 injections/s citywide, far denser than any real cell ever sees.
  const double mean_gap_s = 120.0;
  std::uint64_t injections = 0;
  while (sim.now() < storm_end) {
    const auto ue = static_cast<corenet::UeId>(
        rng.uniform_int(0, static_cast<int>(n_ues) - 1));
    city.inject_sampled(ue);
    ++injections;
    const double gap = rng.uniform(0.0, 2.0 * mean_gap_s /
                                            static_cast<double>(n_ues));
    sim.run_for(sim::secs_f(gap));
  }
  // Drain: give in-flight recoveries time to settle.
  sim.run_for(sim::minutes(3));

  const std::uint64_t events = sim.events_processed();
  const std::size_t healthy = city.healthy_count();
  const auto& cs = city.core().stats();

  std::uint64_t hits = 0, misses = 0, bypasses = 0, invalidations = 0;
  double hit_rate = 0.0;
  std::size_t cache_entries = 0;
  if (const core::DiagnosisCache* c = city.core().diag_cache()) {
    hits = c->stats().hits;
    misses = c->stats().misses;
    bypasses = c->stats().bypasses;
    invalidations = c->stats().invalidations;
    hit_rate = c->stats().hit_rate();
    cache_entries = c->size();
  }

  std::cout << "storm done: " << injections << " injections over "
            << storm_min << " sim-min\n"
            << "  simulated events: " << events << "\n"
            << "  healthy UEs at end: " << healthy << "/" << n_ues << "\n"
            << "  diag downlinks: " << cs.diag_downlinks
            << ", reports rx: " << cs.diag_reports_rx << "\n"
            << "  diagnosis cache: " << hits << " hits / " << misses
            << " misses / " << bypasses << " bypasses / " << invalidations
            << " invalidations (hit rate " << std::fixed
            << hit_rate * 100.0 << "%, " << cache_entries << " entries)\n";

  // Deterministic output only (counters, no wall-clock): same seed ->
  // byte-identical BENCH_city.json. The 1k-storm fields are buffered
  // here and the file is written at the end, once the sampled 10k-UE
  // section has run (that run reuses this thread's tracer as its merge
  // accumulator, so it must come after the --trace dump).
  std::ostringstream city_json;
  city_json << "{\"bench\":\"city_storm\",\"ues\":" << n_ues
            << ",\"seed\":" << seed << ",\"storm_min\":" << storm_min
            << ",\"injections\":" << injections
            << ",\"sim_events\":" << events
            << ",\"healthy\":" << healthy << ",\"nas_rx\":" << cs.nas_rx
            << ",\"nas_tx\":" << cs.nas_tx
            << ",\"rejects\":" << cs.rejects_sent
            << ",\"diag_downlinks\":" << cs.diag_downlinks
            << ",\"diag_reports_rx\":" << cs.diag_reports_rx
            << ",\"cache\":{\"enabled\":" << (cache_on ? "true" : "false")
            << ",\"hits\":" << hits << ",\"misses\":" << misses
            << ",\"bypasses\":" << bypasses
            << ",\"invalidations\":" << invalidations << ",\"entries\":"
            << cache_entries << "}";

  // ---- health snapshot: close the final evaluation windows and write
  // the deterministic BENCH_health.json (sim-time only, no wall clock).
  health.flush(sim.now().time_since_epoch().count());
  std::size_t alerts_fired = 0;
  for (const obs::SloStatus& s : health.status()) alerts_fired += s.fired;
  std::cout << "health: " << health.alerts().size()
            << " alert transitions (" << alerts_fired << " fired), "
            << recorder.blackboxes().size() << " blackboxes, "
            << obs::Registry::instance().series_dropped()
            << " label series observations dropped\n";
  std::ofstream health_json("BENCH_health.json", std::ios::trunc);
  health_json << "{\"bench\":\"city_health\",\"ues\":" << n_ues
              << ",\"seed\":" << seed << ",\"storm_min\":" << storm_min
              << ",\"series_dropped\":"
              << obs::Registry::instance().series_dropped()
              << ",\"blackboxes\":" << recorder.blackboxes().size()
              << ",\"health\":";
  health.dump_json(health_json);
  health_json << "}\n";
  std::cout << "wrote BENCH_health.json\n";

  // ---- hot-path cost attribution: the canonical fleet profiling
  // workload (8 shard mini-storms merged in shard order). The committed
  // BENCH_profile.json holds only deterministic counters and is
  // byte-identical for ANY --threads value; wall times go to the
  // uncommitted *_full sidecar.
  const std::size_t workers = benchutil::fleet_threads(argc, argv);
  {
    const testbed::ProfileWorkload pw;
    const auto prun = testbed::run_profile_workload(pw, workers);
    // Splice the shards' tail-retention trace budget in as a sibling of
    // "profile": drop dump_prof_json's closing "}\n", append "trace".
    std::ostringstream prof_buf;
    obs::dump_prof_json(prof_buf, "profile_fleet", prun.rows,
                        /*include_times=*/false);
    std::string prof_doc = std::move(prof_buf).str();
    while (!prof_doc.empty() && prof_doc.back() == '\n') prof_doc.pop_back();
    if (!prof_doc.empty() && prof_doc.back() == '}') prof_doc.pop_back();
    std::ofstream prof_json("BENCH_profile.json", std::ios::trunc);
    prof_json << prof_doc << ",\"trace\":{\"bytes_total\":"
              << prun.trace.bytes_retained
              << ",\"events_retained\":" << prun.trace.events_retained
              << ",\"events_aged_out\":" << prun.trace.events_aged_out
              << ",\"ues_retained\":" << prun.trace.ues_retained << "}}\n";
    std::ofstream prof_full("BENCH_profile_full.json", std::ios::trunc);
    obs::dump_prof_json(prof_full, "profile_fleet", prun.rows,
                        /*include_times=*/true);
    std::uint64_t zone_calls = 0;
    for (const auto& r : prun.rows) zone_calls += r.stats.calls;
    std::cout << "wrote BENCH_profile.json (" << prun.rows.size()
              << " zones, " << zone_calls << " zone entries, "
              << prun.trace.bytes_retained << " trace bytes retained; "
              << "times in BENCH_profile_full.json)\n";
  }

  if (blackbox_path != nullptr) {
    std::ofstream box_out(blackbox_path, std::ios::trunc);
    recorder.dump_jsonl(box_out);
    std::cout << "wrote " << blackbox_path << "\n";
  }
  if (trace_path != nullptr) {
    std::ofstream trace_out(trace_path, std::ios::trunc);
    obs::Tracer::instance().export_jsonl(trace_out);
    std::cout << "wrote " << trace_path << "\n";
  }
  obs::Tracer::instance().remove_observer(&health);
  obs::Tracer::instance().remove_observer(&recorder);

  // ---- the metro-scale proof: the 10k-UE sharded storm under
  // tail-based retention. Deterministic for any worker count (shard
  // captures merge in shard order), so the whole section commits into
  // BENCH_city.json next to the 1k counters, which stay untouched.
  {
    const testbed::CityWorkload cw;
    const auto total_ues =
        static_cast<std::uint64_t>(cw.shards * cw.ues_per_shard);
    std::cout << "sampled city storm: " << total_ues << " UEs across "
              << cw.shards << " shards (ring depth " << cw.ring_depth
              << ")...\n";
    const testbed::CityRun cr = testbed::run_city_workload(cw, workers);
    const std::uint64_t bytes_per_ue =
        cr.retention.bytes_retained / total_ues;
    std::cout << "  " << cr.injections << " injections, " << cr.sim_events
              << " simulated events, " << cr.healthy << "/" << total_ues
              << " healthy\n"
              << "  retained " << cr.retention.events_retained
              << " events (" << cr.retention.bytes_retained
              << " TLV bytes, " << bytes_per_ue << " bytes/UE), aged out "
              << cr.retention.events_aged_out << ", "
              << cr.retention.ues_retained << " UEs promoted\n";
    city_json << ",\"sampled10k\":{\"ues\":" << total_ues
              << ",\"shards\":" << cw.shards
              << ",\"storm_min\":" << cw.storm_min
              << ",\"ring_depth\":" << cw.ring_depth
              << ",\"injections\":" << cr.injections
              << ",\"sim_events\":" << cr.sim_events
              << ",\"healthy\":" << cr.healthy
              << ",\"diag_reports_rx\":" << cr.diag_reports_rx
              << ",\"terminal_failures\":" << cr.terminal_failures
              << ",\"alert_transitions\":" << cr.alert_transitions
              << ",\"events_retained\":" << cr.retention.events_retained
              << ",\"events_aged_out\":" << cr.retention.events_aged_out
              << ",\"ues_retained\":" << cr.retention.ues_retained
              << ",\"trace_bytes_total\":" << cr.retention.bytes_retained
              << ",\"trace_bytes_per_ue\":" << bytes_per_ue << "}";
  }

  std::ofstream json("BENCH_city.json", std::ios::trunc);
  json << city_json.str() << "}\n";
  std::cout << "wrote BENCH_city.json\n";
  return 0;
}

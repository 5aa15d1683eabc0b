// Reproduces paper Fig. 12: real-time SIM-network collaboration latency,
// downlink (network -> SIM via DFlag Auth Request) and uplink (SIM ->
// network via DIAG DNN), split into preparation and transmission.
// Paper averages: downlink 12.8 ms prep + 41.2 ms trans; uplink 35.9 ms
// prep + 46.3 ms trans.
//
// The latencies come from the lifecycle tracer's CollabDownlink/
// CollabUplink events, each carrying its own transfer's prep and trans
// times. Set SEED_TRACE=<path> to also export the raw event stream as
// JSONL.
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "metrics/stats.h"
#include "metrics/table.h"
#include "obs/trace.h"
#include "testbed/testbed.h"

using namespace seed;
using namespace seed::testbed;

int main() {
  constexpr std::uint64_t kSeed = 20220606;
  constexpr int kRounds = 40;

  auto& tracer = obs::Tracer::instance();
  tracer.enable(true);

  std::ofstream trace_out;
  if (const char* path = std::getenv("SEED_TRACE")) trace_out.open(path);

  metrics::Samples dl_prep, dl_trans, ul_prep, ul_trans;

  // Downlink: every injected cause triggers one assistance transfer.
  // Cause-only payloads fit one AUTN round; config-carrying ones (the
  // "more information with multiple transmission rounds" case of §4.5)
  // take two.
  tracer.clear();
  for (int i = 0; i < kRounds; ++i) {
    Testbed tb(kSeed + static_cast<std::uint64_t>(i), device::Scheme::kSeedU);
    tb.secondary_congestion_prob = 0;
    tb.bring_up();
    if (i % 3 == 0) {
      (void)tb.run_dp_failure(DpFailure::kOutdatedDnn, sim::minutes(5));
    } else {
      (void)tb.run_cp_failure(CpFailure::kIdentityDesync, sim::minutes(5));
    }
  }
  for (const obs::Event& e : tracer.events()) {
    if (e.kind != obs::EventKind::kCollabDownlink) continue;
    dl_prep.add(e.prep_ms);
    dl_trans.add(e.trans_ms);
  }
  if (trace_out.is_open()) tracer.export_jsonl(trace_out);

  // Uplink: delivery-failure reports from the SIM. Mid-transfer rejects
  // can trigger extra downlink assists, so the phases are traced
  // separately and filtered by event kind.
  tracer.clear();
  for (int i = 0; i < kRounds; ++i) {
    Testbed tb(kSeed + 500 + static_cast<std::uint64_t>(i),
               device::Scheme::kSeedR);
    tb.bring_up();
    (void)tb.run_delivery_failure(DeliveryFailure::kStaleSession,
                                  sim::minutes(5));
  }
  for (const obs::Event& e : tracer.events()) {
    if (e.kind != obs::EventKind::kCollabUplink) continue;
    ul_prep.add(e.prep_ms);
    ul_trans.add(e.trans_ms);
  }
  if (trace_out.is_open()) tracer.export_jsonl(trace_out);

  metrics::print_banner(std::cout,
                        "Fig. 12: SIM-infra collaboration latency (ms), "
                        "seed " + std::to_string(kSeed));
  metrics::Table t({"Direction", "Stage", "Samples", "Mean (ms)",
                    "p90 (ms)", "Paper mean"});
  t.row({"Downlink", "Prep", std::to_string(dl_prep.count()),
         metrics::Table::num(dl_prep.mean(), 1),
         metrics::Table::num(dl_prep.percentile(90), 1), "12.8 ms"});
  t.row({"", "Trans", std::to_string(dl_trans.count()),
         metrics::Table::num(dl_trans.mean(), 1),
         metrics::Table::num(dl_trans.percentile(90), 1), "41.2 ms"});
  t.row({"Uplink", "Prep", std::to_string(ul_prep.count()),
         metrics::Table::num(ul_prep.mean(), 1),
         metrics::Table::num(ul_prep.percentile(90), 1), "35.9 ms"});
  t.row({"", "Trans", std::to_string(ul_trans.count()),
         metrics::Table::num(ul_trans.mean(), 1),
         metrics::Table::num(ul_trans.percentile(90), 1), "46.3 ms"});
  t.print(std::cout);
  return 0;
}

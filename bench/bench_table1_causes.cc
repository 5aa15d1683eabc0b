// Reproduces paper Table 1: top-5 failure causes in control/data plane
// from the (synthetic) signaling-trace corpus of §3.1.
#include <iostream>

#include "metrics/table.h"
#include "nas/causes.h"
#include "simcore/rng.h"
#include "trace/dataset.h"

int main() {
  using namespace seed;
  constexpr std::uint64_t kSeed = 20220822;
  sim::Rng rng(kSeed);

  trace::GeneratorOptions opts;
  trace::Dataset ds = trace::generate_dataset(rng, opts);

  // Round-trip through the on-disk format, as the real pipeline would.
  const Bytes blob = ds.serialize();
  const auto reloaded = trace::Dataset::deserialize(blob);
  if (!reloaded) {
    std::cerr << "dataset serialization round-trip failed\n";
    return 1;
  }
  const trace::AnalysisResult res = trace::analyze(*reloaded);

  metrics::print_banner(std::cout, "Table 1: top 5 failure causes (rng seed "
                                   + std::to_string(kSeed) + ")");
  std::cout << "procedures analyzed: " << res.procedures
            << ", failures: " << res.failures
            << " (ratio " << metrics::Table::pct(res.failure_ratio())
            << "; paper: 24k procedures, 2832 failures, >10%)\n"
            << "control-plane share: "
            << metrics::Table::pct(
                   static_cast<double>(res.control_plane_failures) /
                   res.failures)
            << " (paper 56.2%), data-plane share: "
            << metrics::Table::pct(
                   static_cast<double>(res.data_plane_failures) /
                   res.failures)
            << " (paper 43.8%)\n";

  metrics::Table table({"Class", "Failure cause", "Measured", "Paper"});
  struct PaperRow {
    const char* frac;
  };
  const char* paper_cp[5] = {"15.2%", "12.6%", "10.3%", "7.5%", "2.8%"};
  const char* paper_dp[5] = {"7.9%", "5.9%", "4.7%", "2.6%", "1.9%"};
  int i = 0;
  for (const auto& c : res.top_causes(nas::Plane::kControl, 5)) {
    table.row({i == 0 ? "Control Plane" : "",
               std::string(nas::cause_name(c.plane, c.cause)) + " (#" +
                   std::to_string(c.cause) + ")",
               metrics::Table::pct(c.fraction_of_failures),
               i < 5 ? paper_cp[i] : ""});
    ++i;
  }
  i = 0;
  for (const auto& c : res.top_causes(nas::Plane::kData, 5)) {
    table.row({i == 0 ? "Data Plane" : "",
               std::string(nas::cause_name(c.plane, c.cause)) + " (#" +
                   std::to_string(c.cause) + ")",
               metrics::Table::pct(c.fraction_of_failures),
               i < 5 ? paper_dp[i] : ""});
    ++i;
  }
  table.print(std::cout);
  std::cout << "undecodable records: " << res.undecodable << " (expect 0)\n";

  std::size_t config_related = 0;
  for (const auto& c : res.causes) {
    if (nas::config_kind_for(c.plane, c.cause) != nas::ConfigKind::kNone) {
      config_related += c.count;
    }
  }
  std::cout << "config-related causes (paper Appendix A): "
            << metrics::Table::pct(static_cast<double>(config_related) /
                                   res.failures)
            << " of failures could ship a fresh configuration with the "
               "cause code\n";
  return 0;
}

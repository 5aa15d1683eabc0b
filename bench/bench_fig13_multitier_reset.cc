// Reproduces paper Fig. 13: recovery time for the multi-tier reset at the
// hardware / control-plane / data-plane levels, legacy vs SEED-U vs
// SEED-R. Paper averages:
//   hardware: legacy 42.5 s, SEED-U (A1) 5.9 s, SEED-R (B1) 3.3 s
//   c-plane:  legacy 27.8 s, SEED-U (A2+A1) 6.1 s, SEED-R (B2) 2.6 s
//   d-plane:  legacy 21.4 s, SEED-U (A3) 0.88 s, SEED-R (B3) 0.42 s
// Legacy numbers are the time Android's sequential retry takes to *reach*
// each tier with the recommended 21/6/16 s intervals.
//
// SEED action timings are taken from the lifecycle tracer: each run's
// duration is first ResetIssued -> last ResetCompleted in the event
// stream. The inline measurement (simulated-time delta captured in the
// completion callback) is kept as a cross-check; the two must agree to
// within 1 us of simulated time.
#include <cmath>
#include <iostream>

#include "metrics/stats.h"
#include "metrics/table.h"
#include "obs/trace.h"
#include "testbed/testbed.h"

namespace {

using namespace seed;
using namespace seed::testbed;

// Tolerance for tracer-vs-inline agreement: 1 us of simulated time.
constexpr double kToleranceS = 1e-6;

struct Agreement {
  double max_delta_s = 0.0;
  std::size_t checks = 0;
  std::size_t missing_spans = 0;
} g_agree;

// Times one SEED action from trigger to completion on a healthy testbed.
// Returns the tracer-derived duration; records the inline delta for the
// agreement check.
template <typename Trigger>
double time_action(std::uint64_t seed, device::Scheme scheme,
                   Trigger&& trigger) {
  Testbed tb(seed, scheme);
  tb.bring_up();
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  const auto t0 = tb.simulator().now();
  bool done = false;
  sim::TimePoint t_done = t0;
  trigger(tb, [&](bool) {
    done = true;
    // Capture the completion instant exactly; the run_for() loop below
    // only advances on a 20 ms grid and would overshoot.
    t_done = tb.simulator().now();
  });
  while (!done) tb.simulator().run_for(sim::ms(20));
  const double inline_s = sim::to_seconds(t_done - t0);

  std::int64_t first_issue_us = -1;
  std::int64_t last_complete_us = -1;
  for (const obs::Event& e : tracer.events()) {
    if (e.kind == obs::EventKind::kResetIssued && first_issue_us < 0) {
      first_issue_us = e.at_us;
    } else if (e.kind == obs::EventKind::kResetCompleted) {
      last_complete_us = e.at_us;
    }
  }
  if (first_issue_us < 0 || last_complete_us < 0) {
    ++g_agree.missing_spans;
    return inline_s;
  }
  const double traced_s =
      static_cast<double>(last_complete_us - first_issue_us) / 1e6;
  g_agree.max_delta_s =
      std::max(g_agree.max_delta_s, std::fabs(traced_s - inline_s));
  ++g_agree.checks;
  return traced_s;
}

double avg_action(std::uint64_t seed, device::Scheme scheme,
                  void (modem::Modem::*action)(modem::ModemControl::Done),
                  int runs) {
  metrics::Samples s;
  for (int i = 0; i < runs; ++i) {
    s.add(time_action(seed + static_cast<std::uint64_t>(i), scheme,
                      [action](Testbed& tb, modem::ModemControl::Done done) {
                        (tb.dev().modem().*action)(std::move(done));
                      }));
  }
  return s.mean();
}

// Legacy tier-trigger latency: time from stall detection until the
// sequential retry reaches the action of that tier.
struct LegacyTimes {
  double tcp_restart;   // data-plane tier ("restart all TCP")
  double reregister;    // control-plane tier
  double modem_restart; // hardware tier
};

LegacyTimes measure_legacy(std::uint64_t seed) {
  Testbed tb(seed, device::Scheme::kLegacy);
  tb.bring_up();
  // Break the path permanently so the escalation walks all tiers.
  corenet::TrafficPolicy p;
  p.tcp_blocked = true;
  p.udp_blocked = true;
  p.dns_blocked = true;
  tb.core().set_effective_policy(tb.dev().ue_id(), p);

  // Detection is Fig. 3's business; measure from the stall trigger.
  LegacyTimes out{0, 0, 0};
  const auto& stats = tb.dev().os().stats();
  // Force a quick detection by probing: portal probe fails -> stall.
  const auto wait_until = [&](auto pred) {
    const auto deadline = tb.simulator().now() + sim::minutes(10);
    while (tb.simulator().now() < deadline && !pred()) {
      tb.simulator().run_for(sim::ms(100));
    }
  };
  wait_until([&] { return stats.stalls_detected > 0; });
  const auto t0 = *tb.dev().os().last_stall_at();
  wait_until([&] { return stats.retries_tcp_restart > 0; });
  out.tcp_restart = sim::to_seconds(tb.simulator().now() - t0);
  wait_until([&] { return stats.retries_reregister > 0; });
  out.reregister = sim::to_seconds(tb.simulator().now() - t0);
  wait_until([&] { return stats.retries_modem_restart > 0; });
  out.modem_restart = sim::to_seconds(tb.simulator().now() - t0);
  return out;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 20220707;
  constexpr int kRuns = 15;

  obs::Tracer::instance().enable(true);

  metrics::Samples l_tcp, l_rereg, l_modem;
  for (int i = 0; i < 5; ++i) {
    const LegacyTimes lt = measure_legacy(kSeed + 300 + i);
    l_tcp.add(lt.tcp_restart);
    l_rereg.add(lt.reregister);
    l_modem.add(lt.modem_restart);
  }

  // SEED-U hardware = A1 profile reload; SEED-R hardware = B1 modem reset.
  const double a1 =
      avg_action(kSeed + 1, device::Scheme::kSeedU,
                 &modem::Modem::refresh_profile, kRuns);
  const double b1 = avg_action(kSeed + 2, device::Scheme::kSeedR,
                               &modem::Modem::at_modem_reset, kRuns);
  // C-plane: SEED-U = A2 (instant config) + A1 reload; SEED-R = B2.
  metrics::Samples a2a1;
  for (int i = 0; i < kRuns; ++i) {
    a2a1.add(time_action(kSeed + 40 + i, device::Scheme::kSeedU,
                         [](Testbed& tb, modem::ModemControl::Done done) {
                           tb.dev().modem().update_cplane_config(
                               nas::PlmnId{310, 310}, {});
                           tb.dev().modem().refresh_profile(std::move(done));
                         }));
  }
  const double b2 = avg_action(kSeed + 3, device::Scheme::kSeedR,
                               &modem::Modem::at_reattach, kRuns);
  // D-plane: SEED-U = A3 carrier-app config update; SEED-R = B3 fast reset.
  metrics::Samples a3;
  for (int i = 0; i < kRuns; ++i) {
    a3.add(time_action(kSeed + 80 + i, device::Scheme::kSeedU,
                       [](Testbed& tb, modem::ModemControl::Done done) {
                         tb.dev().modem().update_dplane_config(
                             "internet", std::nullopt, std::move(done));
                       }));
  }
  const double b3 = avg_action(kSeed + 4, device::Scheme::kSeedR,
                               &modem::Modem::fast_dplane_reset, kRuns);

  metrics::print_banner(std::cout,
                        "Fig. 13: multi-tier reset recovery time (s), seed " +
                            std::to_string(kSeed));
  metrics::Table t({"Level", "Legacy", "SEED-U", "SEED-R",
                    "Paper (L / U / R)"});
  t.row({"Hardware", metrics::Table::num(l_modem.mean(), 1),
         metrics::Table::num(a1, 1), metrics::Table::num(b1, 1),
         "42.5 / 5.9 / 3.3"});
  t.row({"C-Plane", metrics::Table::num(l_rereg.mean(), 1),
         metrics::Table::num(a2a1.mean(), 1), metrics::Table::num(b2, 1),
         "27.8 / 6.1 / 2.6"});
  t.row({"D-Plane", metrics::Table::num(l_tcp.mean(), 1),
         metrics::Table::num(a3.mean(), 2), metrics::Table::num(b3, 2),
         "21.4 / 0.88 / 0.42"});
  t.print(std::cout);

  if (g_agree.missing_spans > 0) {
    std::cout << "FAIL: " << g_agree.missing_spans
              << " action runs produced no ResetIssued/ResetCompleted pair\n";
    return 1;
  }
  std::cout << "tracer vs inline: " << g_agree.checks
            << " action timings agree, max |delta| = " << g_agree.max_delta_s
            << " s\n";
  if (g_agree.max_delta_s > kToleranceS) {
    std::cout << "FAIL: tracer/inline disagreement exceeds " << kToleranceS
              << " s\n";
    return 1;
  }
  return 0;
}

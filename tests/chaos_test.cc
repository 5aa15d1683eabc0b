// Chaos-layer tests: the fault-injection engine impairing SEED's own
// recovery path, and the hardening that copes with it (retry/backoff,
// tier escalation, rate-limit refunds, recovery watchdog, degradation).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "chaos/chaos.h"
#include "modem/sim_iface.h"
#include "obs/trace.h"
#include "seedproto/failure_report.h"
#include "simapplet/applet.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "testbed/testbed.h"

namespace seed {
namespace {

using device::Scheme;
using testbed::CpFailure;
using testbed::DpFailure;
using testbed::Outcome;
using testbed::Testbed;

// --------------------------------------------------------------- helpers

auto stats_tuple(const chaos::ChaosStats& s) {
  return std::make_tuple(s.downlink_dropped, s.downlink_corrupted,
                         s.uplink_dropped, s.uplink_corrupted,
                         s.resets_failed);
}

/// The acceptance impairment mix: 10% AT failures plus 10% loss on both
/// collaboration directions.
chaos::ChaosConfig acceptance_config() {
  chaos::ChaosConfig cfg;
  cfg.at_fail = 0.10;
  cfg.downlink_drop = 0.10;
  cfg.uplink_drop = 0.10;
  return cfg;
}

std::int64_t first_event_at(const std::vector<obs::Event>& events,
                            obs::EventKind kind) {
  for (const obs::Event& e : events) {
    if (e.kind == kind) return e.at_us;
  }
  return -1;
}

/// Scoped tracer enable that always restores the process-global tracer to
/// a clean disabled state (other tests share the singleton).
class ScopedTracer {
 public:
  ScopedTracer() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().reset_span_counter();
    obs::Tracer::instance().enable(true);
  }
  ~ScopedTracer() {
    obs::Tracer::instance().enable(false);
    obs::Tracer::instance().clear();
  }
  const std::vector<obs::Event>& events() const {
    return obs::Tracer::instance().events();
  }
};

// ------------------------------------------------ engine (unit level)

TEST(ChaosEngine, ZeroConfigNeverInjects) {
  chaos::ChaosEngine engine(chaos::ChaosConfig{}, 1234);
  chaos::BitFlip flip;
  chaos::SemanticMutation m;
  std::array<std::uint8_t, 16> autn{};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(engine.drop_downlink());
    EXPECT_FALSE(engine.corrupt_downlink(&flip));
    EXPECT_FALSE(engine.drop_uplink());
    EXPECT_FALSE(engine.corrupt_uplink(&flip));
    EXPECT_FALSE(engine.mutate_downlink(&m));
    EXPECT_FALSE(engine.mutate_uplink(&m));
    EXPECT_FALSE(engine.replay_stale_downlink(&autn));
    EXPECT_FALSE(engine.unsolicited_downlink(&autn));
    engine.capture_downlink(autn.data(), autn.size());
    for (std::uint8_t a = 1; a <= 6; ++a) {
      EXPECT_FALSE(engine.fail_reset(a));
    }
  }
  EXPECT_EQ(engine.stats().total(), 0u);
}

TEST(ChaosEngine, SemanticDrawsAreDeterministicPerSeed) {
  chaos::ChaosConfig cfg;
  cfg.semantic_downlink = 0.3;
  cfg.semantic_uplink = 0.3;
  cfg.unsolicited_downlink = 0.2;
  chaos::ChaosEngine a(cfg, 4242), b(cfg, 4242);
  chaos::SemanticMutation ma, mb;
  std::array<std::uint8_t, 16> ua{}, ub{};
  for (int i = 0; i < 5000; ++i) {
    const bool da = a.mutate_downlink(&ma);
    ASSERT_EQ(da, b.mutate_downlink(&mb));
    if (da) {
      ASSERT_EQ(ma, mb);
    }
    const bool va = a.mutate_uplink(&ma);
    ASSERT_EQ(va, b.mutate_uplink(&mb));
    if (va) {
      ASSERT_EQ(ma, mb);
    }
    const bool fa = a.unsolicited_downlink(&ua);
    ASSERT_EQ(fa, b.unsolicited_downlink(&ub));
    if (fa) {
      ASSERT_EQ(ua, ub);
    }
  }
  EXPECT_EQ(a.stats().downlink_mutated, b.stats().downlink_mutated);
  EXPECT_EQ(a.stats().uplink_mutated, b.stats().uplink_mutated);
  EXPECT_EQ(a.stats().unsolicited_injected, b.stats().unsolicited_injected);
  EXPECT_GT(a.stats().downlink_mutated, 0u);
  EXPECT_GT(a.stats().uplink_mutated, 0u);
  EXPECT_GT(a.stats().unsolicited_injected, 0u);
}

TEST(ChaosEngine, ReplayRingServesCapturedFragments) {
  chaos::ChaosConfig cfg;
  cfg.replay_downlink = 1.0;
  chaos::ChaosEngine engine(cfg, 5);
  std::array<std::uint8_t, 16> out{};
  // Empty ring: the roll fires but there is nothing to replay.
  EXPECT_FALSE(engine.replay_stale_downlink(&out));
  std::array<std::uint8_t, 16> frag{};
  for (std::size_t i = 0; i < frag.size(); ++i) {
    frag[i] = static_cast<std::uint8_t>(i + 1);
  }
  engine.capture_downlink(frag.data(), frag.size());
  ASSERT_TRUE(engine.replay_stale_downlink(&out));
  EXPECT_EQ(out, frag);
  EXPECT_GT(engine.stats().downlink_replayed, 0u);
}

TEST(ChaosEngine, NamesCoverSemanticPointsAndMutations) {
  using chaos::Point;
  using chaos::SemanticMutation;
  EXPECT_EQ(chaos::point_name(Point::kSemanticDownlink), "semantic-downlink");
  EXPECT_EQ(chaos::point_name(Point::kSemanticUplink), "semantic-uplink");
  EXPECT_EQ(chaos::point_name(Point::kReplayDownlink), "replay-downlink");
  EXPECT_EQ(chaos::point_name(Point::kUnsolicitedDownlink),
            "unsolicited-downlink");
  EXPECT_EQ(chaos::semantic_mutation_name(SemanticMutation::kTypeConfusion),
            "type-confusion");
  EXPECT_EQ(chaos::semantic_mutation_name(SemanticMutation::kTruncatedLength),
            "truncated-length");
  EXPECT_EQ(chaos::semantic_mutation_name(SemanticMutation::kOversizedLength),
            "oversized-length");
  EXPECT_EQ(chaos::semantic_mutation_name(SemanticMutation::kZeroFragCount),
            "zero-frag-count");
  EXPECT_EQ(chaos::semantic_mutation_name(SemanticMutation::kInflatedFragCount),
            "inflated-frag-count");
}

TEST(ChaosEngine, PointNumbersArePinned) {
  // Each number seeds its point's stream and rides in a kChaosInjected
  // event's cause (committed goldens carry them): never renumber.
  const std::array<std::string_view, 12> names = {
      "downlink-drop",     "invalid",         "downlink-corrupt",
      "uplink-drop",       "invalid",         "uplink-corrupt",
      "reset-fail",        "invalid",         "semantic-downlink",
      "semantic-uplink",   "replay-downlink", "unsolicited-downlink"};
  static_assert(static_cast<std::size_t>(chaos::Point::kCount) == 12);
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(chaos::point_name(static_cast<chaos::Point>(i)), names[i])
        << "point " << i;
  }
}

TEST(ChaosEngine, SameSeedSameDrawSequence) {
  chaos::ChaosConfig cfg = acceptance_config();
  cfg.downlink_corrupt = 0.2;
  chaos::ChaosEngine a(cfg, 99), b(cfg, 99);
  chaos::BitFlip fa, fb;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(a.drop_downlink(), b.drop_downlink());
    const bool ca = a.corrupt_downlink(&fa);
    const bool cb = b.corrupt_downlink(&fb);
    ASSERT_EQ(ca, cb);
    if (ca) {
      EXPECT_EQ(fa.byte, fb.byte);
      EXPECT_EQ(fa.bit, fb.bit);
    }
    EXPECT_EQ(a.fail_reset(4), b.fail_reset(4));
  }
  EXPECT_EQ(stats_tuple(a.stats()), stats_tuple(b.stats()));
  EXPECT_GT(a.stats().total(), 0u);
}

TEST(ChaosEngine, ActionFailOverridePinsOutcome) {
  chaos::ChaosConfig cfg;
  cfg.action_fail[2] = 1.0;  // A2 always fails
  chaos::ChaosEngine engine(cfg, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(engine.fail_reset(2));
    EXPECT_FALSE(engine.fail_reset(1));
    EXPECT_FALSE(engine.fail_reset(5));
  }
}

// ---------------------------------------- rate-limit refund (satellite)

/// Scripted ModemControl: counts calls and fails every action, so the
/// retry/escalation/rate-limit bookkeeping can be probed in isolation.
class FailingModemControl : public modem::ModemControl {
 public:
  int refresh_calls = 0;
  int cplane_calls = 0;
  int dplane_calls = 0;
  int reset_calls = 0;
  int reattach_calls = 0;
  int fast_reset_calls = 0;
  int modify_calls = 0;

  void refresh_profile(Done done) override { ++refresh_calls; done(false); }
  void update_cplane_config(const nas::PlmnId&, Done done) override {
    ++cplane_calls;
    done(false);
  }
  void update_slice(const nas::SNssai&) override {}
  void update_dplane_config(const std::string&, std::optional<nas::Ipv4>,
                            Done done) override {
    ++dplane_calls;
    done(false);
  }
  void at_modem_reset(Done done) override { ++reset_calls; done(false); }
  void at_reattach(Done done) override { ++reattach_calls; done(false); }
  void send_diag_report(const std::vector<nas::Dnn>&, Done done) override {
    done(false);
  }
  void fast_dplane_reset(Done done) override {
    ++fast_reset_calls;
    done(false);
  }
  void at_dplane_modify(const std::string&, Done done) override {
    ++modify_calls;
    done(false);
  }
};

/// `hardened` attaches an all-zero chaos engine, which arms the applet's
/// hardening without injecting anything.
class RefundFixture {
 public:
  explicit RefundFixture(bool hardened)
      : rng_(42),
        applet_(sim_, rng_, modem::SimProfile{}, crypto::Key128{},
                crypto::Key128{}, crypto::Key128{}) {
    applet_.set_modem_control(&control_);
    if (hardened) applet_.set_chaos(&engine_);
    applet_.set_recovery_probe([] { return false; });
    applet_.set_user_notifier([](std::string) {});
    // Move past the conflict window's initial guard value.
    sim_.run_for(sim::seconds(10));
  }

  void report() {
    proto::FailureReport r;
    r.type = proto::FailureType::kNoConnection;
    applet_.report_failure(r);
  }

  sim::Simulator sim_;
  sim::Rng rng_;
  FailingModemControl control_;
  chaos::ChaosEngine engine_{chaos::ChaosConfig{}, 0};
  applet::SeedApplet applet_;
};

TEST(ChaosRefund, FailedResetDoesNotConsumeRateLimitBudget) {
  RefundFixture f(/*hardened=*/true);
  // SEED-U delivery plan is [A3]; with everything failing the hardened
  // applet retries 3x, escalates through A2 and A1, then notifies.
  f.report();
  f.sim_.run_for(sim::seconds(15));
  EXPECT_EQ(f.control_.dplane_calls, 3);
  EXPECT_EQ(f.control_.cplane_calls, 3);
  EXPECT_EQ(f.control_.refresh_calls, 3);
  EXPECT_GE(f.applet_.stats().actions_retried, 6u);
  EXPECT_GE(f.applet_.stats().tier_escalations, 1u);
  EXPECT_GE(f.applet_.stats().user_notifications, 1u);

  // A second report well inside the 30 s per-action rate-limit window:
  // every charge was refunded on failure, so A3 runs again instead of
  // being suppressed.
  f.report();
  f.sim_.run_for(sim::seconds(15));
  EXPECT_GE(f.control_.dplane_calls, 4);
  EXPECT_EQ(f.applet_.stats().actions_rate_limited, 0u);
}

TEST(ChaosRefund, LegacyPolicyStillChargesFailedActions) {
  RefundFixture f(/*hardened=*/false);
  // Legacy semantics (the seed behaviour): one attempt, no refund.
  f.report();
  f.sim_.run_for(sim::seconds(15));
  EXPECT_EQ(f.control_.dplane_calls, 1);
  EXPECT_EQ(f.applet_.stats().actions_retried, 0u);

  // The failed A3 still holds its rate-limit slot, so the follow-up
  // report inside the window is rate-limited — byte-compatible with the
  // original charge-at-issue behaviour.
  f.report();
  f.sim_.run_for(sim::seconds(15));
  EXPECT_EQ(f.control_.dplane_calls, 1);
  EXPECT_GE(f.applet_.stats().actions_rate_limited, 1u);
}

// ------------------------------- watchdog / escalation (end to end)

TEST(ChaosRecovery, A2AlwaysFailingRetriesEscalatesAndRecovers) {
  Testbed tb(42, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  chaos::ChaosConfig cfg;
  cfg.action_fail[2] = 1.0;  // pin A2 (c-plane config update) to fail
  tb.enable_chaos(cfg);
  tb.bring_up();

  ScopedTracer tracer;
  const Outcome out = tb.run_cp_failure(CpFailure::kOutdatedPlmn);
  ASSERT_TRUE(out.recovered);

  // The SEED-U plan for an outdated PLMN is [A2, A1]: A2 fails every
  // attempt, so handling must retry with backoff, escalate to A1, and
  // recover through the profile reload.
  const auto& st = tb.dev().applet().stats();
  EXPECT_GE(st.actions_retried, 2u);
  EXPECT_GE(st.tier_escalations, 1u);
  EXPECT_FALSE(tb.dev().degraded_to_legacy());

  const auto& ev = tracer.events();
  const std::int64_t retry_at =
      first_event_at(ev, obs::EventKind::kActionRetry);
  const std::int64_t escalate_at =
      first_event_at(ev, obs::EventKind::kTierEscalated);
  const std::int64_t recovered_at =
      first_event_at(ev, obs::EventKind::kRecovered);
  ASSERT_GE(retry_at, 0);
  ASSERT_GE(escalate_at, 0);
  ASSERT_GE(recovered_at, 0);
  EXPECT_LT(retry_at, escalate_at);
  EXPECT_LT(escalate_at, recovered_at);
}

// ------------------------------------------ acceptance: impaired runs

struct ScenarioResult {
  double impaired = 0.0;
  double baseline = 0.0;
};

/// Runs the same failure with and without the acceptance impairment mix
/// on identically-seeded testbeds; every run must recover.
template <typename RunFn>
ScenarioResult run_pair(std::uint64_t seed, Scheme scheme, RunFn&& run) {
  ScenarioResult r;
  {
    Testbed tb(seed, scheme);
    tb.secondary_congestion_prob = 0;
    tb.bring_up();
    const Outcome out = run(tb);
    EXPECT_TRUE(out.recovered) << "baseline seed=" << seed;
    r.baseline = out.disruption_s;
  }
  {
    Testbed tb(seed, scheme);
    tb.secondary_congestion_prob = 0;
    tb.enable_chaos(acceptance_config());
    tb.bring_up();
    const Outcome out = run(tb);
    EXPECT_TRUE(out.recovered) << "impaired seed=" << seed;
    r.impaired = out.disruption_s;
  }
  return r;
}

void run_acceptance(Scheme scheme) {
  double impaired_total = 0.0;
  double baseline_total = 0.0;
  for (std::uint64_t seed = 101; seed <= 105; ++seed) {
    const ScenarioResult cp = run_pair(seed, scheme, [](Testbed& tb) {
      return tb.run_cp_failure(CpFailure::kOutdatedPlmn);
    });
    const ScenarioResult dp = run_pair(seed, scheme, [](Testbed& tb) {
      return tb.run_dp_failure(DpFailure::kOutdatedDnn);
    });
    impaired_total += cp.impaired + dp.impaired;
    baseline_total += cp.baseline + dp.baseline;
  }
  // Acceptance: impaired disruption stays within 3x the unimpaired
  // baseline (aggregate across seeds and scenarios).
  EXPECT_GT(baseline_total, 0.0);
  EXPECT_LE(impaired_total, 3.0 * baseline_total)
      << "impaired=" << impaired_total << "s baseline=" << baseline_total
      << "s";
}

TEST(ChaosRecovery, SeedUImpairedStaysWithin3xBaseline) {
  run_acceptance(Scheme::kSeedU);
}

TEST(ChaosRecovery, SeedRImpairedStaysWithin3xBaseline) {
  run_acceptance(Scheme::kSeedR);
}

// ------------------------------------------------------- determinism

TEST(ChaosDeterminism, SameSeedAndConfigReproducesRunExactly) {
  auto run_once = [](std::uint64_t seed) {
    Testbed tb(seed, Scheme::kSeedR);
    tb.secondary_congestion_prob = 0;
    tb.enable_chaos(acceptance_config());
    tb.bring_up();
    const Outcome cp = tb.run_cp_failure(CpFailure::kOutdatedPlmn);
    const Outcome dp = tb.run_dp_failure(DpFailure::kOutdatedDnn);
    return std::make_tuple(cp.recovered, cp.disruption_s, dp.recovered,
                           dp.disruption_s, stats_tuple(tb.chaos()->stats()),
                           tb.dev().applet().stats().actions_retried,
                           tb.dev().applet().stats().tier_escalations);
  };
  const auto a = run_once(77);
  const auto b = run_once(77);
  EXPECT_EQ(a, b);  // byte-reproducible per (seed, config)
}

// ------------------------------------------------- unimpaired purity

TEST(ChaosZero, NoEngineLeavesHardeningCountersUntouched) {
  Testbed tb(9001, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const Outcome out = tb.run_cp_failure(CpFailure::kOutdatedPlmn);
  ASSERT_TRUE(out.recovered);
  const auto& st = tb.dev().applet().stats();
  EXPECT_EQ(st.actions_retried, 0u);
  EXPECT_EQ(st.tier_escalations, 0u);
  EXPECT_EQ(st.uplink_report_failures, 0u);
  EXPECT_EQ(tb.chaos(), nullptr);
  EXPECT_FALSE(tb.dev().degraded_to_legacy());
  EXPECT_EQ(tb.dev().watchdog_refires(), 0);
  // Without enable_chaos the applet keeps the legacy one-attempt policy.
  EXPECT_FALSE(tb.dev().applet().hardened());
}

// ------------------------------------- peer quarantine (penalty box)

TEST(Quarantine, RepeatedMalformedUplinkMutesThePeer) {
  Testbed tb(31337, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  corenet::CoreNetwork& core = tb.core();
  ASSERT_FALSE(core.peer_quarantined(0));
  const Bytes junk = {0x55, 0xaa, 0x01};  // undecodable: bad protocol
  // Every 3rd malformed message earns a strike; the first strike opens
  // the 10 s base mute window.
  core.on_uplink(0, junk);
  core.on_uplink(0, junk);
  EXPECT_FALSE(core.peer_quarantined(0));
  core.on_uplink(0, junk);
  EXPECT_TRUE(core.peer_quarantined(0));
  EXPECT_EQ(core.stats().decode_rejects, 3u);
  EXPECT_EQ(core.stats().malformed_rx, 3u);
  EXPECT_EQ(core.ue_stats(0).malformed_rx, 3u);
  // The mute expires: good standing is recoverable (graceful degradation,
  // not a permanent ban).
  tb.simulator().run_for(sim::seconds(11));
  EXPECT_FALSE(core.peer_quarantined(0));
}

TEST(Quarantine, MuteWindowEscalatesWithRepeatOffenses) {
  Testbed tb(31338, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  corenet::CoreNetwork& core = tb.core();
  const Bytes junk = {0x55, 0xaa, 0x01};
  // Two strikes back to back: the second doubles the window to 20 s.
  for (int i = 0; i < 6; ++i) core.on_uplink(0, junk);
  EXPECT_TRUE(core.peer_quarantined(0));
  tb.simulator().run_for(sim::seconds(11));
  EXPECT_TRUE(core.peer_quarantined(0)) << "second strike must outlast 10s";
  tb.simulator().run_for(sim::seconds(10));
  EXPECT_FALSE(core.peer_quarantined(0));
}

TEST(Quarantine, QuarantinedPeerRecordUploadsAreDropped) {
  Testbed tb(31339, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  corenet::CoreNetwork& core = tb.core();
  core.upload_sim_records(0, {});
  EXPECT_EQ(core.stats().suspect_reports_dropped, 0u);
  const Bytes junk = {0x55, 0xaa, 0x01};
  for (int i = 0; i < 3; ++i) core.on_uplink(0, junk);
  ASSERT_TRUE(core.peer_quarantined(0));
  // The learning path must not absorb records from a muted peer.
  core.upload_sim_records(0, {});
  EXPECT_EQ(core.stats().suspect_reports_dropped, 1u);
  EXPECT_EQ(core.ue_stats(0).suspect_reports_dropped, 1u);
}

TEST(ChaosZero, ZeroConfigEngineInjectsNothingAndStillRecovers) {
  Testbed tb(9002, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.enable_chaos(chaos::ChaosConfig{});
  tb.bring_up();
  const Outcome out = tb.run_cp_failure(CpFailure::kOutdatedPlmn);
  ASSERT_TRUE(out.recovered);
  ASSERT_NE(tb.chaos(), nullptr);
  EXPECT_EQ(tb.chaos()->stats().total(), 0u);
  EXPECT_TRUE(tb.dev().applet().hardened());
}

}  // namespace
}  // namespace seed

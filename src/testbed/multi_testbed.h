// Experiment harness: N complete devices (each with its own gNB link)
// attached to ONE core network on ONE simulator — the simulated
// equivalent of the paper's USRP/Magma/Pixel-5 testbed (§7 "Experimental
// Setup"), scaled to a city. This is the only code that builds the stack;
// Testbed (testbed.h) is its N=1 configuration with scripted
// measure-to-recovery drivers on top. Here, a *storm*: per-UE failures
// injected concurrently while every device's SEED/legacy recovery
// machinery runs autonomously.
//
// What the fleet shares (and what the paper's §5 infrastructure shares):
//  - the SubscriberDb and the core's SEED plugin,
//  - one online-learning NetRecord (§5.3) — one subscriber's confirmed
//    diagnosis warms the next subscriber's assistance,
//  - optionally one DiagnosisCache, so the Fig. 8 tree runs once per
//    distinct failure shape instead of once per reject.
//
// Per-UE observability rides the simulator's context tag: every root
// action here (power-on, injection) runs under TagScope(ue + 1), the tag
// propagates through the whole scheduled event cascade, and the tracer
// stamps it into each span event's `ue` field.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "corenet/core_network.h"
#include "device/device.h"
#include "ran/gnb.h"
#include "seed/online_learning.h"
#include "seedproto/failure_report.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::testbed {

using device::Scheme;

/// Control-plane management failure classes (drawn from Table 1's top
/// causes; each maps to a concrete injected condition).
enum class CpFailure {
  kIdentityDesync,         // #9  UE identity cannot be derived
  kOutdatedPlmn,           // #11/#15 outdated PLMN priority list
  kTransientStateMismatch, // #98 transient state desync (self-healing)
  kQuickTransient,         // #98 resolving on the immediate retry
  kUnauthorized,           // #3  illegal UE -> user action
  kCongestion,             // #22 cell/core congestion
  kCustomUnknown,          // operator-custom failure (online learning)
};

enum class DpFailure {
  kOutdatedDnn,      // #33 requested service option not subscribed
  kUnknownDnn,       // #27 missing or unknown DNN
  kOutdatedSlice,    // #70 slice no longer served (§9 slicing extension)
  kExpiredPlan,      // #29 user authentication failed -> user action
  kCongestion,       // #26 insufficient resources (transient)
  kCustomUnknown,    // operator-custom failure (online learning)
};

enum class DeliveryFailure {
  kStaleSession,  // outdated gateway state; recoverable by reconnection
  kTcpBlock,      // erroneous network-side TCP policy
  kUdpBlock,      // erroneous network-side UDP policy
  kDnsOutage,     // carrier LDNS down
};

/// The report an app daemon files through the SEED report API when it
/// notices the dead flow of a delivery failure.
proto::FailureReport app_failure_report(DeliveryFailure f);

struct MultiOptions {
  std::size_t ue_count = 16;
  Scheme scheme = Scheme::kSeedU;
  /// Share one Fig. 8 result cache across the fleet (CoreNetwork::
  /// enable_diag_cache). Off keeps the tree on every event.
  bool diag_cache = true;
  /// Provision every subscriber as already migrated to "internet.v2"
  /// while the devices' SIM copies still say "internet" — the Table 1
  /// outdated-config population. Each UE then exercises the #33
  /// config-assist path once at bring-up (warming the shared cache for
  /// the whole fleet) and again on every kOutdatedDnn storm injection.
  bool outdated_dnn_population = true;
  /// Mixed deployment: every Nth UE runs SEED-R (infrastructure-decided
  /// recovery) instead of the base kSeedU scheme, so a storm exercises
  /// the uplink collab report path alongside the downlink assistance
  /// path. 0 = the whole fleet runs `scheme`. Ignored unless `scheme`
  /// is kSeedU.
  std::size_t seed_r_every = 4;
};

class MultiTestbed {
 public:
  MultiTestbed(std::uint64_t seed, const MultiOptions& opts);
  ~MultiTestbed();

  /// Powers every device on (staggered) and runs until the whole fleet is
  /// data-healthy. Throws if stragglers remain after the deadline.
  void bring_up_all(sim::Duration deadline = sim::minutes(30));

  // ----- storm injections (fire-and-continue; recovery runs on its own).
  // Each injection executes under the UE's TagScope so the entire failure
  // cascade is attributed in the trace.
  void inject_cp(corenet::UeId ue, CpFailure f);
  void inject_dp(corenet::UeId ue, DpFailure f);
  /// Data-delivery failure (no NAS reject): the app daemon notices and
  /// files a report through the SEED report API; SEED-R UEs forward it
  /// over the uplink collab channel. kDnsOutage is carrier-wide and not
  /// injectable per-UE here.
  void inject_delivery(corenet::UeId ue, DeliveryFailure f);
  /// Samples the storm mix (Table 1 NAS failures plus a 15% slice of
  /// delivery failures) and injects it on `ue`.
  void inject_sampled(corenet::UeId ue);

  /// Scheme a fleet index runs under the configured SEED-R mix.
  device::Scheme scheme_of(std::size_t i) const;

  /// Rolling congestion: every `period`, the next contiguous window of
  /// ceil(fraction * N) UEs turns congested for `dwell` (a congestion
  /// wave sweeping the city's cells). Runs until the harness dies.
  void start_rolling_congestion(sim::Duration period, sim::Duration dwell,
                                double fraction);

  std::size_t healthy_count() const;
  std::size_t ue_count() const { return slots_.size(); }

  /// Attaches a chaos engine impairing SEED's own recovery path and arms,
  /// on every device, the hardening that copes with it: hardened retry
  /// policy, recovery watchdog, ack-guards on both collab directions. The
  /// engine's streams are seeded from the harness seed (sim::shard_seed),
  /// so a run is byte-reproducible per (seed, config).
  chaos::ChaosEngine& enable_chaos(const chaos::ChaosConfig& config);
  /// Null until enable_chaos() is called.
  chaos::ChaosEngine* chaos() { return chaos_.get(); }

  // accessors
  sim::Simulator& simulator() { return sim_; }
  sim::Rng& rng() { return rng_; }
  corenet::CoreNetwork& core() { return *core_; }
  corenet::SubscriberDb& db() { return db_; }
  core::NetRecord& learner() { return learner_; }
  device::Device& dev(std::size_t i) { return *slots_[i].dev; }
  ran::Gnb& gnb(std::size_t i) { return *slots_[i].gnb; }

  /// SUPI provisioned for fleet index `i`.
  static std::string supi_of(std::size_t i);

  /// Custom cause codes armed by the kCustomUnknown scenarios.
  static constexpr core::CustomCause kCustomCpCode = 0xC1;
  static constexpr core::CustomCause kCustomDpCode = 0xD7;

 protected:
  // ----- the one arming table both harnesses share: core faults,
  // subscriber flags and congestion-clear timers. Caller-specific extras
  // (support-desk fixes, config migrations, the trigger) stay with the
  // caller. Returns true only when a subscriber-flag row (kUnauthorized,
  // kExpiredPlan) flipped its flag, i.e. the subscriber was not already
  // in the failed state.
  bool arm(corenet::UeId ue, CpFailure f);
  /// The config rows (kOutdatedDnn/kUnknownDnn/kOutdatedSlice) arm
  /// nothing here: the storm reverts the device's copy, the scripted
  /// drivers migrate the network's.
  bool arm(corenet::UeId ue, DpFailure f);
  void arm(corenet::UeId ue, DeliveryFailure f);
  /// Marks `ue` congested and clears it after `dwell`.
  void congest(corenet::UeId ue, sim::Duration dwell);

 private:
  struct UeSlot {
    std::unique_ptr<ran::Gnb> gnb;
    std::unique_ptr<device::Device> dev;
  };

  void congestion_wave(sim::Duration period, sim::Duration dwell,
                       double fraction, std::size_t next_start);
  void schedule_policy_desk_fix(corenet::UeId ue);

  sim::Simulator sim_;
  sim::Rng rng_;
  corenet::SubscriberDb db_;
  core::NetRecord learner_;
  std::unique_ptr<corenet::CoreNetwork> core_;
  std::vector<UeSlot> slots_;
  MultiOptions opts_;
  std::uint64_t seed_;
  std::unique_ptr<chaos::ChaosEngine> chaos_;
};

/// Samples a (plane-tagged) failure scenario according to the empirical
/// Table 1 cause mix; used by the storm and the trace-replay benches.
struct SampledFailure {
  bool control_plane = true;
  CpFailure cp = CpFailure::kTransientStateMismatch;
  DpFailure dp = DpFailure::kOutdatedDnn;
};
SampledFailure sample_table1_failure(sim::Rng& rng);

}  // namespace seed::testbed

// Fleet harness: N complete devices (each with its own gNB link) attached
// to ONE core network on ONE simulator — the city-scale counterpart of
// Testbed. Where Testbed measures a single scripted failure to recovery,
// MultiTestbed sustains a *storm*: per-UE failures injected concurrently
// while every device's SEED/legacy recovery machinery runs autonomously.
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

#include "corenet/core_network.h"
#include "device/device.h"
#include "metrics/meters.h"
#include "ran/gnb.h"
#include "seed/online_learning.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "testbed/testbed.h"

namespace seed::testbed {

struct MultiOptions {
  std::size_t ue_count = 16;
  Scheme scheme = Scheme::kSeedU;
  /// Share one Fig. 8 result cache across the fleet (CoreNetwork::
  /// enable_diag_cache). Off mirrors the single-UE core exactly.
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
  metrics::CpuMeter cpu_;
  core::NetRecord learner_;
  std::unique_ptr<corenet::CoreNetwork> core_;
  std::vector<UeSlot> slots_;
  MultiOptions opts_;
  std::uint64_t seed_;
};

}  // namespace seed::testbed

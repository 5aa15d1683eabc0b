#include "testbed/multi_testbed.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/trace.h"
#include "simcore/fleet_runner.h"
#include "simcore/log.h"

namespace seed::testbed {

namespace {

// Gap between consecutive device power-ons at bring-up; staggering keeps
// the attach stampede from synchronizing every retry timer.
constexpr sim::Duration kPowerOnStagger = sim::ms(20);

// Probability that a sampled storm injection is a data-delivery failure
// (stale gateway state, erroneous traffic policy) instead of a Table-1
// NAS failure. Delivery failures produce no NAS reject: the device
// detects them and, on SEED-R UEs, reports them over the DIAG-DNN uplink.
constexpr double kDeliveryFailureProb = 0.15;

crypto::Key128 fleet_key(std::size_t i, std::uint8_t salt) {
  crypto::Key128 k{};
  for (std::size_t b = 0; b < 16; ++b) {
    k[b] = static_cast<std::uint8_t>((i * 131 + salt * 29 + b * 7 + 5) & 0xff);
  }
  return k;
}

}  // namespace

std::string MultiTestbed::supi_of(std::size_t i) {
  char msin[16];
  std::snprintf(msin, sizeof msin, "%010zu", i + 20000000);
  return std::string("310-260-") + msin;
}

MultiTestbed::MultiTestbed(std::uint64_t seed, const MultiOptions& opts)
    : rng_(seed), opts_(opts), seed_(seed) {
  obs::Tracer::instance().set_clock(&sim_.now_ref());
  // Per-UE and ground-truth attribution: the tracer reads the simulator's
  // context cell, which TagScope sets around every root action below (and
  // LabeledScenarioGen per injection) and schedule_at propagates through
  // the whole event cascade.
  obs::Tracer::instance().set_context_source(&sim_.context());

  slots_.resize(opts.ue_count);
  for (auto& slot : slots_) slot.gnb = std::make_unique<ran::Gnb>(sim_, rng_);
  core_ = std::make_unique<corenet::CoreNetwork>(sim_, rng_, db_);
  core_->enable_seed(opts.scheme != Scheme::kLegacy);
  core_->set_learner(&learner_);
  core_->enable_diag_cache(opts.diag_cache);

  for (std::size_t i = 0; i < opts.ue_count; ++i) {
    corenet::Subscriber sub;
    sub.supi = supi_of(i);
    sub.k = fleet_key(i, 1);
    // OPc derived from an operator OP, as a real UDM would provision it.
    sub.opc = crypto::Milenage(sub.k, fleet_key(i, 2)).opc();
    sub.seed_key = fleet_key(i, 3);
    // Outdated-config population (Table 1's dominant d-plane class): the
    // network-side subscription already moved to internet.v2, every
    // device's SIM copy still says "internet". Provisioned before add()
    // so the whole setup costs one mutation epoch, not N.
    sub.subscribed_dnns = opts.outdated_dnn_population
                              ? std::vector<std::string>{"internet.v2"}
                              : std::vector<std::string>{"internet"};
    db_.add(sub);
  }
  db_.register_known_dnn("internet.v2");

  // Devices are built only after the whole db: interleaving their
  // allocations with the db's map nodes would scatter every later SUPI
  // lookup across the fleet's heap, which slows 10k-UE storms.
  for (std::size_t i = 0; i < opts.ue_count; ++i) {
    const corenet::Subscriber& sub = *db_.find(supi_of(i));
    device::DeviceOptions dopts;
    dopts.scheme = scheme_of(i);
    dopts.profile.suci = nas::Suci{{310, 260}, sub.supi.substr(8)};
    dopts.profile.preferred_plmn = {310, 260};
    dopts.profile.dnn = "internet";
    dopts.k = sub.k;
    dopts.opc = sub.opc;
    dopts.seed_key = sub.seed_key;
    slots_[i].dev = std::make_unique<device::Device>(
        sim_, rng_, *slots_[i].gnb, *core_, dopts);
  }
}

MultiTestbed::~MultiTestbed() {
  // The tracer and the logger outlive this harness; never leave them a
  // dangling clock or context pointer.
  obs::Tracer::instance().set_clock(nullptr);
  obs::Tracer::instance().set_context_source(nullptr);
}

void MultiTestbed::bring_up_all() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // Tag the power-on (and its entire attach cascade) with the UE index.
    sim::Simulator::TagScope tag(sim_, static_cast<std::uint32_t>(i) + 1);
    device::Device* dev = slots_[i].dev.get();
    sim_.schedule_after(kPowerOnStagger * static_cast<int>(i),
                        [dev] { dev->power_on(); });
  }
  // Same answer as healthy_count() == size, without rescanning the fleet
  // each step: the check resumes at the UE found unhealthy last time and
  // wraps around, so it returns true only once every UE passes in one
  // sweep. UEs come up in power-on order, so most steps check one UE.
  std::size_t cursor = 0;
  const auto all_healthy = [this, &cursor] {
    for (std::size_t n = 0; n < slots_.size(); ++n) {
      if (!slots_[cursor].dev->traffic().path_healthy()) return false;
      cursor = (cursor + 1) % slots_.size();
    }
    return true;
  };
  if (!sim_.poll_until(all_healthy, sim::seconds(1),
                       sim_.now() + sim::minutes(30))) {
    throw std::runtime_error("MultiTestbed::bring_up_all: " +
                             std::to_string(slots_.size() - healthy_count()) +
                             " UE(s) failed to reach data-healthy");
  }
  sim_.run_for(sim::seconds(2));  // let retry timers and probes settle
}

std::size_t MultiTestbed::healthy_count() const {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot.dev->traffic().path_healthy()) ++n;
  }
  return n;
}

chaos::ChaosEngine& MultiTestbed::enable_chaos(
    const chaos::ChaosConfig& config) {
  // A distinct stream family from the harness RNG: impairment draws must
  // never perturb the scenario's own randomness.
  chaos_ = std::make_unique<chaos::ChaosEngine>(
      config, sim::shard_seed(seed_, 0x5eedc4a0));
  core_->set_chaos(chaos_.get());
  // The device arms the hardening that copes with the impairments (and
  // nothing else: an all-zero config still recovers through the ordinary
  // paths).
  for (auto& slot : slots_) slot.dev->set_chaos(chaos_.get());
  return *chaos_;
}

void MultiTestbed::congest(corenet::UeId ue, sim::Duration dwell) {
  core_->faults(ue).congested = true;
  sim_.schedule_after(dwell,
                      [this, ue] { core_->faults(ue).congested = false; });
}

bool MultiTestbed::arm(corenet::UeId ue, CpFailure f) {
  auto& faults = core_->faults(ue);
  switch (f) {
    case CpFailure::kIdentityDesync:
      faults.drop_guti_mapping = true;
      break;
    case CpFailure::kOutdatedPlmn:
      faults.plmn_rejected = true;
      // The cached GUTI belongs to the departed registration area.
      slots_[ue].dev->modem().clear_cached_identity();
      break;
    case CpFailure::kTransientStateMismatch:
      faults.transient_reject_count = 2;  // heals after two attempts
      break;
    case CpFailure::kQuickTransient:
      faults.transient_reject_count = 1;  // heals on the immediate retry
      break;
    case CpFailure::kUnauthorized: {
      corenet::Subscriber* sub = db_.find(supi_of(ue));
      if (sub == nullptr || !sub->authorized) return false;
      sub->authorized = false;
      db_.note_subscriber_mutation();
      return true;
    }
    case CpFailure::kCongestion:
      congest(ue, sim::secs_f(rng_.uniform(4.0, 9.0)));
      break;
    case CpFailure::kCustomUnknown:
      faults.custom_cause_cp = kCustomCpCode;
      break;
  }
  return false;
}

bool MultiTestbed::arm(corenet::UeId ue, DpFailure f) {
  auto& faults = core_->faults(ue);
  switch (f) {
    case DpFailure::kOutdatedDnn:
    case DpFailure::kUnknownDnn:
    case DpFailure::kOutdatedSlice:
      break;
    case DpFailure::kExpiredPlan: {
      corenet::Subscriber* sub = db_.find(supi_of(ue));
      if (sub == nullptr || !sub->plan_active) return false;
      sub->plan_active = false;
      db_.note_subscriber_mutation();
      return true;
    }
    case DpFailure::kCongestion:
      congest(ue, sim::secs_f(rng_.uniform(6.0, 14.0)));
      break;
    case DpFailure::kCustomUnknown:
      faults.custom_cause_dp = kCustomDpCode;
      faults.custom_dp_armed_reg_gen = core_->registration_generation(ue);
      break;
  }
  return false;
}

void MultiTestbed::arm(corenet::UeId ue, DeliveryFailure f) {
  corenet::TrafficPolicy p;
  switch (f) {
    case DeliveryFailure::kStaleSession:
      core_->make_sessions_stale(ue);
      break;
    case DeliveryFailure::kTcpBlock:
      p.tcp_blocked = true;
      core_->set_effective_policy(ue, p);
      break;
    case DeliveryFailure::kUdpBlock:
      p.udp_blocked = true;
      core_->set_effective_policy(ue, p);
      break;
    case DeliveryFailure::kDnsOutage:
      core_->set_dns_up(false);  // carrier-wide: one LDNS for every UE
      break;
  }
}

proto::FailureReport app_failure_report(DeliveryFailure f) {
  proto::FailureReport r;
  switch (f) {
    case DeliveryFailure::kUdpBlock:
      r.type = proto::FailureType::kUdp;
      r.port = 5004;
      break;
    case DeliveryFailure::kDnsOutage:
      r.type = proto::FailureType::kDns;
      r.domain = "edge.example.net";
      break;
    default:
      r.type = proto::FailureType::kTcp;
      r.port = 443;
      break;
  }
  r.direction = proto::TrafficDirection::kBoth;
  r.addr = nas::Ipv4{{203, 0, 113, 10}};
  return r;
}

void MultiTestbed::inject_cp(corenet::UeId ue, CpFailure f) {
  sim::Simulator::TagScope tag(sim_, ue + 1);
  if (arm(ue, f)) {
    // The operator's support desk eventually re-authorizes (the user
    // action of §3.1, compressed to simulation scale).
    const double fix_s = rng_.uniform(60.0, 180.0);
    sim_.schedule_after(sim::secs_f(fix_s), [this, ue] {
      if (corenet::Subscriber* s = db_.find(supi_of(ue))) {
        s->authorized = true;
        db_.note_subscriber_mutation();
      }
    });
  }
  obs::emit(obs::EventKind::kFailureInjected, obs::Origin::kTestbed);
  slots_[ue].dev->modem().trigger_reattach();
}

void MultiTestbed::inject_dp(corenet::UeId ue, DpFailure f) {
  sim::Simulator::TagScope tag(sim_, ue + 1);
  device::Device& dev = *slots_[ue].dev;
  corenet::Subscriber* sub = db_.find(supi_of(ue));

  if (arm(ue, f)) {
    // Expired plan: the support desk eventually reactivates it.
    const double fix_s = rng_.uniform(90.0, 240.0);
    sim_.schedule_after(sim::secs_f(fix_s), [this, ue] {
      if (corenet::Subscriber* s = db_.find(supi_of(ue))) {
        s->plan_active = true;
        db_.note_subscriber_mutation();
      }
    });
  }
  switch (f) {
    case DpFailure::kOutdatedDnn:
    case DpFailure::kUnknownDnn:
      // Device-side outdated copy: the modem reverts to the SIM profile
      // DNN (exactly what a profile reload after a reset does) while the
      // subscription stays on internet.v2 — #33 on the next request, and
      // no subscriber mutation, so the shared diagnosis cache keeps every
      // previously warmed entry.
      if (sub != nullptr && !sub->subscribed_dnns.empty() &&
          sub->subscribed_dnns.front() == "internet") {
        // Population provisioned without the migration: migrate this one
        // now (one epoch bump, first time only).
        sub->subscribed_dnns = {"internet.v2"};
        db_.note_subscriber_mutation();
      }
      dev.modem().dnn() = "internet";
      break;
    case DpFailure::kOutdatedSlice:
      if (sub != nullptr &&
          (sub->subscribed_slices.empty() ||
           sub->subscribed_slices.front() == nas::SNssai{1, std::nullopt})) {
        sub->subscribed_slices = {nas::SNssai{2, 0x0000a1}};
        db_.note_subscriber_mutation();
      }
      dev.modem().snssai() = nas::SNssai{1, std::nullopt};
      break;
    default:
      break;
  }

  obs::emit(obs::EventKind::kFailureInjected, obs::Origin::kTestbed,
            {.plane = 1});
  core_->drop_sessions(ue);
  dev.modem().restart_data_session();
}

void MultiTestbed::schedule_policy_desk_fix(corenet::UeId ue) {
  // A network-side erroneous policy is the one delivery class the device
  // cannot fix alone: SEED-R UEs get it corrected through the uplink
  // report (handle_diag_report rewrites the effective policy), SEED-U UEs
  // wait for the operator's support desk (§3.1 user action, compressed to
  // simulation scale). The desk restore is idempotent after a SEED-R fix.
  const double fix_s = rng_.uniform(180.0, 420.0);
  sim_.schedule_after(sim::secs_f(fix_s), [this, ue] {
    if (const corenet::Subscriber* s = db_.find(supi_of(ue))) {
      core_->set_effective_policy(ue, s->policy);
    }
  });
}

device::Scheme MultiTestbed::scheme_of(std::size_t i) const {
  if (opts_.scheme == Scheme::kSeedU && opts_.seed_r_every > 0 &&
      i % opts_.seed_r_every == 0) {
    return Scheme::kSeedR;
  }
  return opts_.scheme;
}

void MultiTestbed::inject_delivery(corenet::UeId ue, DeliveryFailure f) {
  // Carrier-wide (one LDNS for the whole city); a storm injecting it
  // per-UE would take every UE down at once. Not sampled here.
  if (f == DeliveryFailure::kDnsOutage) return;
  sim::Simulator::TagScope tag(sim_, ue + 1);
  arm(ue, f);
  if (f != DeliveryFailure::kStaleSession) schedule_policy_desk_fix(ue);
  obs::emit(obs::EventKind::kFailureInjected, obs::Origin::kTestbed,
            {.plane = 1});
  // An app daemon notices the dead flow and files a report through the
  // SEED report API (detection latency itself is Fig. 3's experiment).
  // SEED-U applets decide locally; SEED-R applets forward the report
  // over the DIAG-DNN uplink — the path diag_reports_rx counts.
  sim_.schedule_after(sim::ms(300), [this, ue, f] {
    sim::Simulator::TagScope report_tag(sim_, ue + 1);
    slots_[ue].dev->carrier_app().report_failure(app_failure_report(f));
  });
}

void MultiTestbed::inject_sampled(corenet::UeId ue) {
  if (rng_.chance(kDeliveryFailureProb)) {
    // Delivery-failure slice of the storm: stale gateway state dominates,
    // erroneous traffic policies split the rest (Table 1's operational
    // data-delivery classes).
    static const double w[] = {6.0, 1.0, 1.0};
    switch (rng_.weighted_index(w)) {
      case 0:
        inject_delivery(ue, DeliveryFailure::kStaleSession);
        return;
      case 1:
        inject_delivery(ue, DeliveryFailure::kTcpBlock);
        return;
      default:
        inject_delivery(ue, DeliveryFailure::kUdpBlock);
        return;
    }
  }
  const SampledFailure s = sample_table1_failure(rng_);
  if (s.control_plane) {
    inject_cp(ue, s.cp);
  } else {
    inject_dp(ue, s.dp);
  }
}

void MultiTestbed::start_rolling_congestion(sim::Duration period,
                                            sim::Duration dwell,
                                            double fraction) {
  congestion_wave(period, dwell, fraction, 0);
}

std::uint64_t MultiTestbed::run_storm(sim::Duration storm) {
  start_rolling_congestion(sim::seconds(30), sim::seconds(12), 0.05);
  const auto storm_end = sim_.now() + storm;
  // Mean one injection per UE per 2 simulated minutes: with 1k UEs that
  // is ~8 injections/s citywide, far denser than any real cell ever sees.
  const double mean_gap_s = 120.0;
  std::uint64_t injections = 0;
  while (sim_.now() < storm_end) {
    const auto ue = static_cast<corenet::UeId>(
        rng_.uniform_int(0, static_cast<int>(slots_.size()) - 1));
    inject_sampled(ue);
    ++injections;
    const double gap = rng_.uniform(
        0.0, 2.0 * mean_gap_s / static_cast<double>(slots_.size()));
    sim_.run_for(sim::secs_f(gap));
  }
  // Drain: give in-flight recoveries time to settle.
  sim_.run_for(sim::minutes(3));
  return injections;
}

void MultiTestbed::congestion_wave(sim::Duration period, sim::Duration dwell,
                                   double fraction, std::size_t next_start) {
  // Waves must not overlap on a UE (dwell <= period keeps disjoint
  // windows disjoint in time), or an earlier wave's clear would end a
  // later wave prematurely.
  const auto width = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(slots_.size())));
  for (std::size_t i = 0; i < width && i < slots_.size(); ++i) {
    const auto ue = static_cast<corenet::UeId>((next_start + i) %
                                               slots_.size());
    sim::Simulator::TagScope tag(sim_, ue + 1);
    congest(ue, dwell);
  }
  const std::size_t following =
      slots_.empty() ? 0 : (next_start + width) % slots_.size();
  sim_.schedule_after(period, [this, period, dwell, fraction, following] {
    congestion_wave(period, dwell, fraction, following);
  });
}

SampledFailure sample_table1_failure(sim::Rng& rng) {
  // Paper Table 1: control plane 56.2%, data plane 43.8% of failures,
  // with the listed top causes. The remainder of each plane's mass is
  // spread over congestion/transient/custom causes.
  SampledFailure out;
  out.control_plane = rng.chance(0.562);
  if (out.control_plane) {
    // Scenario weights within the control plane (percent of all
    // failures), mapping Table 1's causes onto recovery dynamics:
    // identity desync (#9 + part of #50) sticks until attempt exhaustion;
    // quick transients (#98 + fast cell reselection within #15) recover
    // on the immediate retry (<2 s, the 19% of Fig. 2); T3511-paced
    // transients (#50/#15 state resync) recover after one 10 s round;
    // outdated PLMN (#11) needs a full search or an A2 update.
    static const double w[] = {12.0, 7.0, 19.0, 11.0, 3.4, 2.0, 1.8};
    switch (rng.weighted_index(w)) {
      case 0: out.cp = CpFailure::kIdentityDesync; break;
      case 1: out.cp = CpFailure::kOutdatedPlmn; break;
      case 2: out.cp = CpFailure::kTransientStateMismatch; break;
      case 3: out.cp = CpFailure::kQuickTransient; break;
      case 4: out.cp = CpFailure::kUnauthorized; break;
      case 5: out.cp = CpFailure::kCongestion; break;
      default: out.cp = CpFailure::kCustomUnknown; break;
    }
  } else {
    // Data plane: not-subscribed 7.9, invalid-mandatory 5.9 (both
    // config-related), expired plans 2.0 (the ~4.5% of d-plane cases SEED
    // cannot handle, §7.1.1 — the rest of Table 1's #29 mass behaves as a
    // transient auth/resource glitch), unspecified 2.6 (custom),
    // congestion/resources 4.6, remainder spread over config-related
    // operational failures (outdated configs dominate).
    static const double w[] = {7.9 + 12.0, 5.9 + 8.8, 2.0, 2.6, 4.6};
    switch (rng.weighted_index(w)) {
      case 0: out.dp = DpFailure::kOutdatedDnn; break;
      case 1: out.dp = DpFailure::kUnknownDnn; break;
      case 2: out.dp = DpFailure::kExpiredPlan; break;
      case 3: out.dp = DpFailure::kCustomUnknown; break;
      default: out.dp = DpFailure::kCongestion; break;
    }
  }
  return out;
}

}  // namespace seed::testbed

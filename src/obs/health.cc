#include "obs/health.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ostream>

#include "metrics/stats.h"
#include "simcore/log.h"

namespace seed::obs {
namespace {

std::string fmt(double v) {
  std::array<char, 48> buf{};
  std::snprintf(buf.data(), buf.size(), "%.9g", v);
  return std::string(buf.data());
}

}  // namespace

std::string_view slo_signal_name(SloSignal s) {
  switch (s) {
    case SloSignal::kRecoveryLatency: return "recovery_latency";
    case SloSignal::kFailureRate: return "failure_rate";
    case SloSignal::kCollabRtt: return "collab_rtt";
    case SloSignal::kCacheHitRate: return "cache_hit_rate";
  }
  return "unknown";
}

std::string_view slo_stat_name(SloStat s) {
  switch (s) {
    case SloStat::kP50: return "p50";
    case SloStat::kP95: return "p95";
    case SloStat::kRatePerMin: return "rate_per_min";
    case SloStat::kMean: return "mean";
  }
  return "unknown";
}

std::string_view alert_state_name(AlertState s) {
  switch (s) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "unknown";
}

HealthConfig HealthConfig::defaults() {
  HealthConfig c;
  // Recovery-latency SLOs: per-observation bound in ms, tolerating a 10%
  // bad fraction. One all-tier objective plus one per reset tier (deeper
  // resets are allowed to take longer, Fig. 13).
  c.slos.push_back({"recovery_p95", SloSignal::kRecoveryLatency,
                    SloStat::kP95, 0, 0, 0, 5000.0, 0.1});
  c.slos.push_back({"recovery_hw_p95", SloSignal::kRecoveryLatency,
                    SloStat::kP95, 1, 0, 0, 8000.0, 0.1});
  c.slos.push_back({"recovery_cp_p95", SloSignal::kRecoveryLatency,
                    SloStat::kP95, 2, 0, 0, 5000.0, 0.1});
  c.slos.push_back({"recovery_dp_p95", SloSignal::kRecoveryLatency,
                    SloStat::kP95, 3, 0, 0, 3000.0, 0.1});
  // Failure-rate burn per plane: threshold is the budgeted arrival rate
  // (failures/minute); a city storm runs far past it, steady state far
  // under it, so the alert exercises the full lifecycle.
  c.slos.push_back({"cp_failure_rate", SloSignal::kFailureRate,
                    SloStat::kRatePerMin, 0, 0, 0, 60.0, 0.1});
  c.slos.push_back({"dp_failure_rate", SloSignal::kFailureRate,
                    SloStat::kRatePerMin, 0, 1, 0, 60.0, 0.1});
  // §4.5 collab transfers: prep+trans per message, bound per observation.
  c.slos.push_back({"collab_rtt_p95", SloSignal::kCollabRtt, SloStat::kP95,
                    0, 0, 0, 150.0, 0.1});
  // Fig. 8 cache: every miss spends budget; tolerate a 50% miss fraction
  // (the steady-state storm hit rate is ~72%, warm-up is miss-heavy).
  c.slos.push_back({"cache_hit_rate", SloSignal::kCacheHitRate,
                    SloStat::kMean, 0, 0, 0, 0.0, 0.5});
  return c;
}

HealthEngine::HealthEngine(HealthConfig config) : config_(std::move(config)) {
  next_boundary_us_ = config_.window_us;
  slos_.reserve(config_.slos.size());
  for (const SloSpec& spec : config_.slos) {
    SloState s;
    s.spec = spec;
    s.totals.id = spec.id;
    slos_.push_back(std::move(s));
  }
}

void HealthEngine::observe_value(SloState& s, double value, bool is_bad) {
  s.current.count += 1;
  s.current.bad += is_bad ? 1 : 0;
  s.current.sum += value;
  s.current.values.push_back(value);
  s.totals.observations += 1;
  s.totals.bad += is_bad ? 1 : 0;
}

std::uint64_t HealthEngine::life_key(const Event& e) {
  // UE tags survive the whole event cascade in multi-UE runs; span ids
  // there belong to whichever failure was injected most recently.
  return e.ue != 0 ? (1ULL << 32) + e.ue : e.span;
}

void HealthEngine::on_trace_event(const Event& e) {
  // The engine's own alert emission re-enters the tracer; those events
  // (and log lines) carry no SLO signal.
  if (e.kind == EventKind::kLog || e.kind == EventKind::kSloAlert) return;
  advance_to(e.at_us);
  switch (e.kind) {
    case EventKind::kFailureInjected:
      if (life_key(e) != 0) span_life_[life_key(e)] = SpanLife{e.at_us, 0};
      break;
    case EventKind::kResetIssued: {
      const auto it = span_life_.find(life_key(e));
      if (it != span_life_.end()) {
        const std::uint8_t tier =
            e.tier != 0 ? e.tier : tier_of_action(e.action);
        it->second.max_tier = std::max(it->second.max_tier, tier);
      }
      break;
    }
    case EventKind::kRecovered: {
      const auto it = span_life_.find(life_key(e));
      if (it == span_life_.end()) break;
      const double latency_ms =
          static_cast<double>(e.at_us - it->second.injected_us) / 1e3;
      for (SloState& s : slos_) {
        if (s.spec.signal != SloSignal::kRecoveryLatency) continue;
        if (s.spec.tier != 0 && s.spec.tier != it->second.max_tier) continue;
        observe_value(s, latency_ms, latency_ms > s.spec.threshold);
      }
      span_life_.erase(it);
      break;
    }
    case EventKind::kTerminalFailure:
      // The failure left the SEED path; its span will never recover, so
      // drop the pending context (bounds memory across a long storm).
      span_life_.erase(life_key(e));
      break;
    case EventKind::kFailureDetected:
      for (SloState& s : slos_) {
        if (s.spec.signal != SloSignal::kFailureRate) continue;
        if (s.spec.plane != e.plane) continue;
        if (s.spec.cause != 0 && s.spec.cause != e.cause) continue;
        observe_value(s, 1.0, true);
      }
      break;
    case EventKind::kCollabDownlink:
    case EventKind::kCollabUplink: {
      const double rtt_ms = e.prep_ms + e.trans_ms;
      for (SloState& s : slos_) {
        if (s.spec.signal != SloSignal::kCollabRtt) continue;
        observe_value(s, rtt_ms, rtt_ms > s.spec.threshold);
      }
      break;
    }
    case EventKind::kCacheLookup:
      for (SloState& s : slos_) {
        if (s.spec.signal != SloSignal::kCacheHitRate) continue;
        observe_value(s, e.ok ? 1.0 : 0.0, !e.ok);
      }
      break;
    default:
      break;
  }
}

void HealthEngine::ingest(const std::vector<Event>& events) {
  for (const Event& e : events) on_trace_event(e);
}

void HealthEngine::advance_to(std::int64_t at_us) {
  while (at_us >= next_boundary_us_) {
    evaluate_boundary(next_boundary_us_);
    next_boundary_us_ += config_.window_us;
  }
}

void HealthEngine::flush(std::int64_t up_to_us) {
  advance_to(up_to_us);
  // Judge the final partial window too, but only when it holds data —
  // that keeps a repeated flush at the same time a no-op.
  bool pending_data = false;
  for (const SloState& s : slos_) pending_data |= s.current.count != 0;
  if (pending_data) {
    evaluate_boundary(next_boundary_us_);
    next_boundary_us_ += config_.window_us;
  }
}

double HealthEngine::burn_of(const SloSpec& spec, const Bucket& agg,
                             std::int64_t span_us) {
  if (spec.signal == SloSignal::kFailureRate) {
    if (spec.threshold <= 0 || span_us <= 0) return 0.0;
    const double minutes = static_cast<double>(span_us) / 60e6;
    const double rate = static_cast<double>(agg.count) / minutes;
    return rate / spec.threshold;
  }
  if (agg.count == 0 || spec.budget <= 0) return 0.0;
  const double bad_fraction =
      static_cast<double>(agg.bad) / static_cast<double>(agg.count);
  return bad_fraction / spec.budget;
}

double HealthEngine::window_value(const SloState& s) const {
  // Reported stat over the long window (the ring, newest step included).
  switch (s.spec.stat) {
    case SloStat::kRatePerMin: {
      std::uint64_t count = 0;
      for (const Bucket& b : s.ring) count += b.count;
      const double minutes =
          static_cast<double>(s.ring.size()) *
          static_cast<double>(config_.window_us) / 60e6;
      return minutes > 0 ? static_cast<double>(count) / minutes : 0.0;
    }
    case SloStat::kMean: {
      std::uint64_t count = 0;
      double sum = 0.0;
      for (const Bucket& b : s.ring) {
        count += b.count;
        sum += b.sum;
      }
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    case SloStat::kP50:
    case SloStat::kP95: {
      window_values_.clear();
      for (const Bucket& b : s.ring) {
        window_values_.insert(window_values_.end(), b.values.begin(),
                              b.values.end());
      }
      if (window_values_.empty()) return 0.0;
      return metrics::select_percentile(
          window_values_, s.spec.stat == SloStat::kP50 ? 50 : 95);
    }
  }
  return 0.0;
}

void HealthEngine::evaluate_boundary(std::int64_t boundary_us) {
  for (SloState& s : slos_) {
    s.ring.push_back(std::move(s.current));
    s.current = Bucket{};
    while (s.ring.size() >
           static_cast<std::size_t>(std::max(1, config_.long_window_steps))) {
      s.ring.pop_front();
    }
    const double burn_short = burn_of(s.spec, s.ring.back(), config_.window_us);
    Bucket merged;
    for (const Bucket& b : s.ring) {
      merged.count += b.count;
      merged.bad += b.bad;
    }
    const double burn_long =
        burn_of(s.spec, merged,
                static_cast<std::int64_t>(s.ring.size()) * config_.window_us);
    const double value = window_value(s);
    s.totals.evals += 1;

    const bool burning = burn_short >= 1.0 && burn_long >= 1.0;
    switch (s.state) {
      case AlertState::kInactive:
        if (burning) {
          s.burning_evals = 1;
          transition(s, AlertState::kPending, boundary_us, value, burn_short,
                     burn_long);
          if (s.burning_evals >= config_.fire_after) {
            s.totals.fired += 1;
            transition(s, AlertState::kFiring, boundary_us, value, burn_short,
                       burn_long);
          }
        }
        break;
      case AlertState::kPending:
        if (burning) {
          s.burning_evals += 1;
          if (s.burning_evals >= config_.fire_after) {
            s.totals.fired += 1;
            transition(s, AlertState::kFiring, boundary_us, value, burn_short,
                       burn_long);
          }
        } else {
          // The burn stopped before confirmation: back to inactive.
          s.burning_evals = 0;
          transition(s, AlertState::kInactive, boundary_us, value, burn_short,
                     burn_long);
        }
        break;
      case AlertState::kFiring:
        if (burning) {
          s.clean_evals = 0;
        } else {
          s.clean_evals += 1;
          if (s.clean_evals >= config_.resolve_after) {
            s.totals.resolved += 1;
            s.clean_evals = 0;
            s.burning_evals = 0;
            transition(s, AlertState::kResolved, boundary_us, value,
                       burn_short, burn_long);
            s.state = AlertState::kInactive;  // kResolved is a record, not
                                              // a resting state
          }
        }
        break;
      case AlertState::kResolved:
        break;  // unreachable: resolution rests at kInactive
    }
  }
}

void HealthEngine::transition(SloState& s, AlertState to, std::int64_t at_us,
                              double value, double burn_short,
                              double burn_long) {
  s.state = to;
  alerts_.push_back(
      AlertRecord{at_us, s.spec.id, to, value, burn_short, burn_long});
  if (in_emit_) return;
  in_emit_ = true;
  std::array<char, 160> detail{};
  std::snprintf(detail.data(), detail.size(),
                "slo=%s state=%s value=%.6g burn=%.6g/%.6g",
                s.spec.id.c_str(), std::string(alert_state_name(to)).c_str(),
                value, burn_short, burn_long);
  emit(EventKind::kSloAlert, Origin::kTestbed,
       {.ok = to != AlertState::kFiring, .detail = detail.data()});
  if (config_.emit_slog) {
    SLOG(kInfo, "health") << detail.data();
  }
  in_emit_ = false;
}

std::vector<SloStatus> HealthEngine::status() const {
  std::vector<SloStatus> out;
  out.reserve(slos_.size());
  for (const SloState& s : slos_) {
    SloStatus st = s.totals;
    st.state = s.state;
    out.push_back(std::move(st));
  }
  return out;
}

void HealthEngine::dump_json(std::ostream& os) const {
  os << "{\"config\":{\"window_us\":" << config_.window_us
     << ",\"long_window_steps\":" << config_.long_window_steps
     << ",\"fire_after\":" << config_.fire_after
     << ",\"resolve_after\":" << config_.resolve_after << "},\"slos\":[";
  bool first = true;
  for (const SloState& s : slos_) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":\"" << s.spec.id << "\",\"signal\":\""
       << slo_signal_name(s.spec.signal) << "\",\"stat\":\""
       << slo_stat_name(s.spec.stat) << "\",\"threshold\":"
       << fmt(s.spec.threshold) << ",\"budget\":" << fmt(s.spec.budget)
       << ",\"state\":\"" << alert_state_name(s.state)
       << "\",\"observations\":" << s.totals.observations
       << ",\"bad\":" << s.totals.bad << ",\"evals\":" << s.totals.evals
       << ",\"fired\":" << s.totals.fired
       << ",\"resolved\":" << s.totals.resolved << "}";
  }
  os << "],\"alerts\":[";
  first = true;
  for (const AlertRecord& a : alerts_) {
    if (!first) os << ",";
    first = false;
    os << "{\"at_us\":" << a.at_us << ",\"slo\":\"" << a.slo
       << "\",\"state\":\"" << alert_state_name(a.state)
       << "\",\"value\":" << fmt(a.value)
       << ",\"burn_short\":" << fmt(a.burn_short)
       << ",\"burn_long\":" << fmt(a.burn_long) << "}";
  }
  os << "]}\n";
}

}  // namespace seed::obs

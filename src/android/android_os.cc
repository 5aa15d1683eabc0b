#include "android/android_os.h"

#include "common/params.h"
#include "simcore/log.h"

namespace seed::android {

AndroidOs::AndroidOs(sim::Simulator& sim, sim::Rng& rng,
                     transport::TrafficEngine& traffic, modem::Modem& modem)
    : sim_(sim), rng_(rng), traffic_(traffic), modem_(modem),
      retry_timer_(sim) {}

void AndroidOs::start() {
  if (probing_) return;
  probing_ = true;
  // Stagger the first probe so devices don't align.
  sim_.schedule_after(
      sim::secs_f(rng_.uniform(
          1.0, sim::to_seconds(params::kPortalProbePeriod))),
      [this] { evaluate(); });
}

void AndroidOs::evaluate() {
  if (!probing_) return;
  if (detection_enabled_) {
    // Captive-portal probe: HTTPS fetch of the check URL. The portal
    // host's address is cached, so a broken resolver does NOT fail the
    // probe — DNS failures are only caught by the consecutive-timeout
    // rule below, fed by (sparse, cache-missing) app lookups. This is
    // what makes Android's DNS/UDP detection minutes-slow (Fig. 3).
    traffic_.attempt_tcp(nas::Ipv4{{142, 250, 0, 1}}, 80,
                         [this](bool portal_ok) {
      const transport::TcpWindow tcp =
          traffic_.tcp_window(params::kTcpStatsWindow);
      const bool tcp_bad =
          tcp.fail_rate() >= params::kTcpFailRateThreshold &&
          tcp.outbound > 3;
      const bool tcp_quiet =
          tcp.outbound >= params::kTcpOutboundThreshold && tcp.inbound == 0;
      const bool dns_bad =
          traffic_.consecutive_dns_timeouts(params::kDnsWindow) >=
          params::kDnsTimeoutThreshold;
      const bool bad = !portal_ok || tcp_bad || tcp_quiet || dns_bad;
      if (bad) {
        // Two consecutive bad evaluations before declaring a stall —
        // Android's confirmation re-probe behaviour.
        if (++bad_evaluations_ >= 2 && !stall_active_) on_stall();
      } else {
        bad_evaluations_ = 0;
        stall_active_ = false;
      }
    });
  }
  sim_.schedule_after(
      sim::secs_f(sim::to_seconds(params::kPortalProbePeriod) / 2 *
                  rng_.uniform(0.9, 1.1)),
      [this] { evaluate(); });
}

void AndroidOs::on_stall() {
  stall_active_ = true;
  ++stats_.stalls_detected;
  last_stall_ = sim_.now();
  SLOG(kDebug, "android") << "data stall detected";
  if (stall_handler_) stall_handler_();
  if (retry_enabled_) run_retry_step(0);
}

void AndroidOs::run_retry_step(int step) {
  if (traffic_.path_healthy()) {
    stall_active_ = false;
    return;  // recovered; abort the escalation
  }
  sim::Duration wait{};
  if (timers_ == RetryTimers::kDefault) {
    wait = params::kAndroidDefaultActionInterval;
  } else {
    wait = step == 0   ? params::kAndroidRecommended1
           : step == 1 ? params::kAndroidRecommended2
                       : params::kAndroidRecommended3;
  }
  retry_timer_.arm(wait, [this, step] {
    if (traffic_.path_healthy()) {
      stall_active_ = false;
      return;
    }
    switch (step) {
      case 0:
        // Clean up and restart all TCP connections. Transport-level only:
        // cellular-stack failures are untouched (§3.3).
        ++stats_.retries_tcp_restart;
        SLOG(kDebug, "android") << "escalation step 1: restart TCP";
        run_retry_step(1);
        break;
      case 1:
        ++stats_.retries_reregister;
        SLOG(kDebug, "android") << "escalation step 2: re-register";
        modem_.trigger_reattach();
        run_retry_step(2);
        break;
      case 2:
        ++stats_.retries_modem_restart;
        SLOG(kDebug, "android") << "escalation step 3: modem restart";
        modem_.at_modem_reset([this](bool) {
          if (!traffic_.path_healthy()) {
            // Start over (Android loops the escalation).
            run_retry_step(0);
          } else {
            stall_active_ = false;
          }
        });
        break;
      default:
        break;
    }
  });
}

CarrierApp::CarrierApp(applet::SeedApplet& applet, bool device_rooted)
    : applet_(applet), rooted_(device_rooted) {
  // Runtime-API root detection -> notify the SIM to enable SEED-R (§6).
  applet_.on_root_status(rooted_);
}

}  // namespace seed::android

#include "device/device.h"

#include "obs/trace.h"
#include "simcore/log.h"

namespace seed::device {

namespace {
// Recovery watchdog (chaos hardening): first deadline, its growth per
// refire, and the refires before degrading to legacy retry.
constexpr sim::Duration kWatchdogDeadline = sim::seconds(45);
constexpr double kWatchdogFactor = 1.5;
constexpr int kWatchdogMaxRefires = 4;
}  // namespace

std::string_view scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kLegacy: return "Legacy";
    case Scheme::kSeedU: return "SEED-U";
    case Scheme::kSeedR: return "SEED-R";
  }
  return "?";
}

Device::Device(sim::Simulator& sim, sim::Rng& rng, ran::Gnb& gnb,
               corenet::CoreNetwork& core, const DeviceOptions& options)
    : sim_(sim), rng_(rng), options_(options) {
  applet_ = std::make_unique<applet::SeedApplet>(
      sim, rng, options.profile, options.k, options.opc, options.seed_key);
  applet_->enable_seed(options.scheme != Scheme::kLegacy);

  // Attach before building the modem so the uplink closure can carry our
  // UeId (UeIds follow attach order; a single-device testbed's is 0).
  ue_id_ = core.attach_device(
      options.profile.suci.to_string(), gnb,
      [this](BytesView wire) { modem_->on_downlink(wire); });
  modem_ = std::make_unique<modem::Modem>(
      sim, rng, *applet_, gnb,
      [&core, id = ue_id_](BytesView wire) { core.on_uplink(id, wire); });

  traffic_ = std::make_unique<transport::TrafficEngine>(sim, rng, *modem_,
                                                        core, ue_id_);
  android_ = std::make_unique<android::AndroidOs>(sim, rng, *traffic_,
                                                  *modem_);
  carrier_ = std::make_unique<android::CarrierApp>(
      *applet_, options.scheme == Scheme::kSeedR);

  applet_->set_modem_control(modem_.get());
  applet_->set_recovery_probe([this] { return traffic_->path_healthy(); });
  applet_->set_record_uploader(
      [core = &core,
       id = ue_id_](const std::vector<core::SimRecordStore::Entry>& e) {
        core->upload_sim_records(id, e);
      });
  applet_->set_user_notifier([this](std::string cause) {
    ++user_notifications_;
    SLOG(kDebug, "device") << "user notified: " << cause;
  });

  modem_->set_data_state_handler([this](bool up) {
    SLOG(kDebug, "device") << "data connectivity "
                           << (up ? "restored" : "lost");
    if (up) {
      if (data_loss_seen_) {
        // A restore after a loss (never the initial attach) closes the
        // failure's lifecycle from the device's vantage point; the
        // testbed-level kRecovered only exists in single-UE harnesses.
        data_loss_seen_ = false;
        obs::emit(obs::EventKind::kRecovered, obs::Origin::kOs);
      }
      applet_->notify_recovered();
      if (watchdog_) {
        watchdog_->cancel();
        watchdog_refires_ = 0;
      }
    } else {
      data_loss_seen_ = true;
      arm_watchdog();
    }
  });

  android_->set_retry_timers(options.retry_timers);
  if (options.scheme == Scheme::kLegacy) {
    android_->set_sequential_retry_enabled(true);
  } else {
    // SEED replaces the level-by-level retry; Android's detector still
    // feeds the carrier app -> applet (the OS report path of Fig. 4).
    android_->set_sequential_retry_enabled(false);
    android_->set_stall_handler([this] {
      // OS-level detection (captive-portal / TCP / DNS heuristics): the
      // data-plane failure becomes visible to the SEED report path here.
      obs::emit(obs::EventKind::kFailureDetected, obs::Origin::kOs,
                {.plane = 1});
      arm_watchdog();
      carrier_->on_data_stall();
    });
  }
}

void Device::power_on() {
  modem_->power_on();
  android_->start();
}

void Device::set_chaos(chaos::ChaosEngine* chaos) {
  modem_->set_chaos(chaos);
  applet_->set_chaos(chaos);
  if (!watchdog_) watchdog_ = std::make_unique<sim::Timer>(sim_);
}

void Device::arm_watchdog() {
  if (!watchdog_ || degraded_ || watchdog_->armed()) return;
  watchdog_->arm(kWatchdogDeadline, [this] { on_watchdog(); });
}

void Device::on_watchdog() {
  if (traffic_->path_healthy()) {
    watchdog_refires_ = 0;
    return;
  }
  SLOG(kWarn, "device") << "recovery watchdog fired (refire "
                        << watchdog_refires_ << ")";
  obs::emit(obs::EventKind::kWatchdogFired, obs::Origin::kOs,
            {.cause = static_cast<std::uint8_t>(watchdog_refires_)});
  if (watchdog_refires_ >= kWatchdogMaxRefires) {
    // The SEED path is unusable: degrade to Android's legacy sequential
    // retry and, since the path is still broken, restart the recovery
    // under it now instead of waiting for the next detection pass.
    degraded_ = true;
    SLOG(kWarn, "device") << "SEED path unusable, degrading to legacy "
                             "sequential retry";
    obs::emit(obs::EventKind::kTerminalFailure, obs::Origin::kOs,
              {.detail = "watchdog exhausted"});
    obs::emit(obs::EventKind::kDegraded, obs::Origin::kOs);
    android_->set_sequential_retry_enabled(true);
    android_->force_stall();
    return;
  }
  ++watchdog_refires_;
  // Re-announce the stall: the SEED report path gets another shot with
  // whatever state the applet has now (fresh config, escalated tier...).
  carrier_->on_data_stall();
  auto deadline = kWatchdogDeadline;
  for (int i = 0; i < watchdog_refires_; ++i) {
    deadline = sim::secs_f(sim::to_seconds(deadline) * kWatchdogFactor);
  }
  watchdog_->arm(deadline, [this] { on_watchdog(); });
}

apps::App& Device::add_app(const apps::AppSpec& spec) {
  apps_.push_back(std::make_unique<apps::App>(sim_, rng_, *traffic_, spec));
  apps::App& app = *apps_.back();
  if (options_.scheme != Scheme::kLegacy) {
    app.set_report_sink([this](const proto::FailureReport& r) {
      carrier_->report_failure(r);
    });
  }
  app.start();
  return app;
}

}  // namespace seed::device

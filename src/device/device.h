// A complete simulated 5G handset: SEED SIM applet + modem + Android OS
// + carrier app + transport engine + apps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "android/android_os.h"
#include "apps/app_model.h"
#include "corenet/core_network.h"
#include "modem/modem.h"
#include "ran/gnb.h"
#include "simapplet/applet.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "transport/traffic.h"

namespace seed::device {

/// Failure-handling scheme under test (paper Table 4/5 columns).
enum class Scheme : std::uint8_t { kLegacy, kSeedU, kSeedR };

std::string_view scheme_name(Scheme s);

struct DeviceOptions {
  Scheme scheme = Scheme::kSeedU;
  modem::SimProfile profile;
  crypto::Key128 k{};
  crypto::Key128 opc{};
  crypto::Key128 seed_key{};
  android::RetryTimers retry_timers = android::RetryTimers::kRecommended;
};

class Device {
 public:
  Device(sim::Simulator& sim, sim::Rng& rng, ran::Gnb& gnb,
         corenet::CoreNetwork& core, const DeviceOptions& options);

  /// Boots the modem and starts OS-level monitoring.
  void power_on();

  // component access
  applet::SeedApplet& applet() { return *applet_; }
  modem::Modem& modem() { return *modem_; }
  android::AndroidOs& os() { return *android_; }
  android::CarrierApp& carrier_app() { return *carrier_; }
  transport::TrafficEngine& traffic() { return *traffic_; }

  /// Adds and starts an app; SEED schemes wire its report sink to the
  /// carrier app automatically.
  apps::App& add_app(const apps::AppSpec& spec);
  const std::vector<std::unique_ptr<apps::App>>& app_list() const {
    return apps_;
  }

  Scheme scheme() const { return options_.scheme; }
  /// This device's index on the core it attached to.
  corenet::UeId ue_id() const { return ue_id_; }
  std::uint64_t user_notifications() const { return user_notifications_; }

  /// Attaches a chaos engine to the modem and the applet and turns on the
  /// hardening that copes with it: the applet's retry ladder and the
  /// recovery watchdog. The watchdog re-announces a handled failure to
  /// the SIM when service is not healthy by its deadline (45 s, growing
  /// 1.5x per refire); after 4 refires the device degrades to Android's
  /// legacy sequential retry, so an impaired SEED path can never leave
  /// the device wedged.
  void set_chaos(chaos::ChaosEngine* chaos);
  bool degraded_to_legacy() const { return degraded_; }
  int watchdog_refires() const { return watchdog_refires_; }

 private:
  void arm_watchdog();
  void on_watchdog();

  sim::Simulator& sim_;
  sim::Rng& rng_;
  DeviceOptions options_;
  corenet::UeId ue_id_ = 0;
  std::unique_ptr<applet::SeedApplet> applet_;
  std::unique_ptr<modem::Modem> modem_;
  std::unique_ptr<transport::TrafficEngine> traffic_;
  std::unique_ptr<android::AndroidOs> android_;
  std::unique_ptr<android::CarrierApp> carrier_;
  std::vector<std::unique_ptr<apps::App>> apps_;
  std::uint64_t user_notifications_ = 0;
  // Recovery watchdog (only allocated/armed under chaos, so unhardened
  // devices keep the event loop untouched).
  std::unique_ptr<sim::Timer> watchdog_;
  int watchdog_refires_ = 0;
  bool degraded_ = false;
  bool data_loss_seen_ = false;
};

}  // namespace seed::device

// Calibration constants for the simulated testbed.
//
// Every constant is annotated with the paper number it targets or the
// 3GPP default it mirrors. Benches sweep some of these for ablations.
// The *shape* of results (ordering, rough factors, crossovers) is the
// reproduced quantity; absolute values are the paper's testbed's.
#pragma once

#include <cstdint>

#include "simcore/time.h"

namespace seed::params {

using sim::Duration;
using sim::minutes;
using sim::ms;
using sim::seconds;

// ----------------------------------------------------------- 3GPP timers

/// Registration retry timer (TS 24.501; paper §2: "10s by default").
inline constexpr Duration kT3511 = seconds(10);
/// Long retry timer after 5 failed attempts (paper §2: "12mins").
inline constexpr Duration kT3502 = minutes(12);
/// Registration attempts before falling back to T3502.
inline constexpr int kMaxRegistrationAttempts = 5;
/// PDU session establishment retry timer (TS 24.501 T3580).
inline constexpr Duration kT3580 = seconds(16);
/// PDU session establishment attempts before giving up until reattach.
inline constexpr int kMaxPduAttempts = 5;
/// Periodic registration update (T3512), unused by failures but realistic.
inline constexpr Duration kT3512 = seconds(3240);

// ----------------------------------------------------- signaling latency

/// One-way UE <-> gNB signaling latency (RRC/NAS hop).
inline constexpr Duration kUeGnbLatency = ms(8);
/// One-way gNB <-> core latency.
inline constexpr Duration kGnbCoreLatency = ms(6);
/// Core-side processing per NAS message.
inline constexpr Duration kCoreProcessing = ms(4);
/// Modem-side processing per NAS message.
inline constexpr Duration kModemProcessing = ms(3);
/// RRC connection setup (random access + RRC setup + complete).
inline constexpr Duration kRrcSetup = ms(120);

// ------------------------------------------------------- procedure costs

/// Cell search + PLMN selection when attaching from idle (median; the
/// lognormal sigma below gives the heavy tail seen in Fig. 2).
inline constexpr Duration kCellSearchMedian = ms(1800);
inline constexpr double kCellSearchSigma = 0.45;
/// Extended (full-band) PLMN search after hard failures / outdated PLMN
/// lists — this is what A2 config updates avoid ("reduce excessive search
/// time", §4.4.1).
inline constexpr Duration kFullPlmnSearchMedian = seconds(28);
inline constexpr double kFullPlmnSearchSigma = 0.5;
/// Modem full reboot (SEED-R B1 via AT+CFUN; paper Fig. 13: 3.3 s total
/// including the follow-up cell search + attach).
inline constexpr Duration kModemRebootTime = ms(1200);
/// AT+CGATT detach/attach cycle processing (SEED-R B2; Fig. 13: 2.6 s
/// total including the re-registration signaling).
inline constexpr Duration kAtReattachLatency = ms(2150);
/// SIM profile reload latency (REFRESH proactive command + modem re-read;
/// part of the 5.9 s SEED-U hardware reset in Fig. 13).
inline constexpr Duration kProfileReloadTime = ms(3400);
/// Carrier-app config update (UICC-privilege APN change + DcTracker
/// restart; paper Fig. 13 A3: 0.88 s).
inline constexpr Duration kCarrierConfigUpdateTime = ms(820);
/// Fast data-plane reset via DIAG session (Fig. 6 / Fig. 13 B3: 0.42 s).
inline constexpr Duration kFastDplaneResetOverhead = ms(230);

// --------------------------------------------------------- SEED timers

/// Wait before triggering hardware/c-plane reset (paper §4.4.2: 2 s; ~20%
/// of c-plane failures self-recover within 2 s).
inline constexpr Duration kSeedCplaneWait = seconds(2);
/// Conflict-suppression window after a cause-based handling (§4.4.2: 5 s).
inline constexpr Duration kSeedConflictWindow = seconds(5);
/// Rate limit: min interval between identical reset actions (§4.4.2).
inline constexpr Duration kSeedActionRateLimit = seconds(30);
/// Chaos hardening: ack-guard on a collab fragment (either direction)
/// before the sender retransmits it, and how often before abandoning the
/// transfer. Only active on impaired (chaos) testbeds.
inline constexpr Duration kDiagFragAckGuard = seconds(2);
inline constexpr int kDiagFragMaxRetries = 5;

// --------------------------------------------------- Android detection

/// Captive-portal probe period (connectivity check).
inline constexpr Duration kPortalProbePeriod = seconds(60);
/// DNS query timeout.
inline constexpr Duration kDnsTimeout = seconds(5);
/// Consecutive DNS timeouts within kDnsWindow to flag a stall (paper §2).
inline constexpr int kDnsTimeoutThreshold = 5;
inline constexpr Duration kDnsWindow = minutes(30);
/// TCP stats window and thresholds (paper §2: 80% fail or 10-out/0-in
/// during the last minute).
inline constexpr Duration kTcpStatsWindow = minutes(1);
inline constexpr double kTcpFailRateThreshold = 0.8;
inline constexpr int kTcpOutboundThreshold = 10;
/// Android default interval between sequential-retry actions (paper §2:
/// three minutes; observed 3.5 min average in §3.3).
inline constexpr Duration kAndroidDefaultActionInterval = seconds(210);
/// Recommended shorter intervals from [35], used by the paper's baseline:
/// 21 s / 6 s / 16 s between the four actions.
inline constexpr Duration kAndroidRecommended1 = seconds(21);
inline constexpr Duration kAndroidRecommended2 = seconds(6);
inline constexpr Duration kAndroidRecommended3 = seconds(16);

// ------------------------------------------------------ energy & CPU

/// Abstract battery capacity (mJ). Calibrated so the baseline phone burns
/// ~5.4% in 30 min (Fig. 11b) with the idle+screen draw below.
inline constexpr double kBatteryCapacityMj = 50'000'000.0 / 9.0;
/// Baseline platform draw (screen on, radio idle), mW.
inline constexpr double kBaselineDrawMw = 166.7;
/// SIM diagnosis energy per event, mJ (SIM core is tiny; paper: +1.2% per
/// 30 min at 1 diagnosis/s stress).
inline constexpr double kSimDiagnosisEnergyMj = 37.0;
/// MobileInsight per-message decode energy, mJ (paper: +8.5% per 30 min;
/// diag port emits ~25 msg/s under the same stress).
inline constexpr double kMobileInsightMsgEnergyMj = 10.5;
inline constexpr double kMobileInsightMsgRateHz = 25.0;

/// Core server cores (paper testbed: i7-9700K, 8 cores).
inline constexpr int kCoreServerCores = 8;
/// Core CPU cost per normal attach/detach procedure (core-seconds).
inline constexpr double kCoreCostPerProcedure = 0.0066;
/// Extra core CPU per SEED diagnosis (decision tree + assistance
/// compose + crypto). Calibrated to +4.7% at 100 failures/s (Fig. 11a).
inline constexpr double kCoreCostPerDiagnosis = 0.0037;
/// Core CPU cost handling a failure event without SEED (reject path).
inline constexpr double kCoreCostPerFailure = 0.008;

// ----------------------------------------------- collaboration latency

/// Downlink prep: metric collection + DiagInfo encode + EEA2/EIA2
/// (paper Fig. 12: 12.8 ms average).
inline constexpr Duration kDownlinkPrepMedian = ms(12);
inline constexpr double kPrepSigma = 0.25;
/// Uplink prep: report collection via APDU + SIM encode (Fig. 12:
/// 35.9 ms average — SIM CPU is slow).
inline constexpr Duration kUplinkPrepMedian = ms(34);

// --------------------------------------------------------- SIM hardware

/// Javacard eSIM budgets (paper §7: 180 KB EEPROM, 8 KB RAM).
inline constexpr std::size_t kSimEepromBytes = 180 * 1024;
inline constexpr std::size_t kSimRamBytes = 8 * 1024;
/// APDU exchange latency between modem and SIM.
inline constexpr Duration kApduLatency = ms(9);

}  // namespace seed::params

// Flow-level data-delivery model over the simulated UPF/gNB path.
//
// Apps attempt DNS lookups and TCP/UDP exchanges; each attempt succeeds
// iff the device has an active (non-stale) PDU session, the radio is up,
// the UPF policy admits the flow, and — for DNS — the configured resolver
// answers. Outcome events feed the Android data-stall detector's
// documented thresholds (TCP failure rate, outbound-without-inbound,
// consecutive DNS timeouts).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "corenet/core_network.h"
#include "modem/modem.h"
#include "nas/ie.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::transport {

/// TCP exchanges in a trailing window: every one sent packets out, and the
/// `inbound` ones got an answer back.
struct TcpWindow {
  int outbound = 0;
  int inbound = 0;
  double fail_rate() const {
    return outbound == 0
               ? 0.0
               : static_cast<double>(outbound - inbound) / outbound;
  }
};

class TrafficEngine {
 public:
  /// `ue` selects which attached UE's sessions/policy the flows ride.
  TrafficEngine(sim::Simulator& sim, sim::Rng& rng, modem::Modem& modem,
                corenet::CoreNetwork& core, corenet::UeId ue);

  /// DNS lookup against the modem's configured resolver. Success answers
  /// in ~tens of ms; failure burns the full DNS timeout.
  void attempt_dns(std::function<void(bool)> done);

  /// TCP exchange (connect + request/response) to addr:port.
  void attempt_tcp(const nas::Ipv4& addr, std::uint16_t port,
                   std::function<void(bool)> done);

  /// UDP exchange (e.g. RTP/QUIC/STUN) to addr:port.
  void attempt_udp(const nas::Ipv4& addr, std::uint16_t port,
                   std::function<void(bool)> done);

  /// Instantaneous end-to-end health check (the SEED applet's recovery
  /// probe; equivalent to a fast ping through the current session).
  bool path_healthy() const;
  /// Same, for a specific protocol/port (delivery-failure scoped).
  bool path_allows(nas::IpProtocol proto, std::uint16_t port) const;
  bool dns_healthy() const;

  // ----- detector queries (windowed stats)
  /// TCP exchanges completed in the last params::kTcpStatsWindow.
  TcpWindow tcp_window() const;
  int consecutive_dns_timeouts(sim::Duration window) const;

  std::uint64_t attempts_total() const { return attempts_; }
  /// path_healthy() evaluations so far (a cost counter: pins how often
  /// waits and probes poll this UE).
  std::uint64_t health_checks() const { return health_checks_; }

 private:
  bool session_up() const;
  /// The LDNS answers and the UPF passes UDP 53 (session not checked).
  bool dns_reachable() const;
  void record_tcp(bool ok);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  modem::Modem& modem_;
  corenet::CoreNetwork& core_;
  corenet::UeId ue_ = 0;
  /// TCP outcomes inside the stats window, oldest first: pruned from
  /// the front as each one is recorded, and at most kMaxTcpOutcomes.
  struct TcpOutcome {
    sim::TimePoint at;
    bool ok = false;
  };
  std::vector<TcpOutcome> tcp_outcomes_;
  int dns_consecutive_timeouts_ = 0;
  sim::TimePoint last_dns_event_{};
  std::uint64_t attempts_ = 0;
  mutable std::uint64_t health_checks_ = 0;
};

}  // namespace seed::transport

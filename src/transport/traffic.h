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
#include <deque>
#include <functional>

#include "corenet/core_network.h"
#include "modem/modem.h"
#include "nas/ie.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::transport {

struct FlowEvent {
  sim::TimePoint at;
  nas::IpProtocol proto = nas::IpProtocol::kTcp;
  bool ok = false;
  bool outbound_only = false;  // packets left but nothing came back
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
  double tcp_fail_rate(sim::Duration window) const;
  int tcp_outbound(sim::Duration window) const;
  int tcp_inbound(sim::Duration window) const;
  int consecutive_dns_timeouts(sim::Duration window) const;

  std::uint64_t attempts_total() const { return attempts_; }

 private:
  bool session_up() const;
  void record(nas::IpProtocol proto, bool ok);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  modem::Modem& modem_;
  corenet::CoreNetwork& core_;
  corenet::UeId ue_ = 0;
  std::deque<FlowEvent> events_;
  int dns_consecutive_timeouts_ = 0;
  sim::TimePoint last_dns_event_{};
  std::uint64_t attempts_ = 0;
};

}  // namespace seed::transport

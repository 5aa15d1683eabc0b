#include "transport/traffic.h"

#include "common/params.h"

namespace seed::transport {

namespace {
constexpr std::size_t kMaxEvents = 4096;
}

TrafficEngine::TrafficEngine(sim::Simulator& sim, sim::Rng& rng,
                             modem::Modem& modem, corenet::CoreNetwork& core,
                             corenet::UeId ue)
    : sim_(sim), rng_(rng), modem_(modem), core_(core), ue_(ue) {}

bool TrafficEngine::session_up() const {
  return modem_.data_connected() &&
         core_.session_active(ue_, modem::Modem::kDataPsi);
}

bool TrafficEngine::dns_reachable() const {
  return core_.dns_resolves(ue_, modem_.dns_addr()) &&
         core_.upf_allows(ue_, nas::IpProtocol::kUdp, 53);
}

bool TrafficEngine::dns_healthy() const {
  return session_up() && dns_reachable();
}

bool TrafficEngine::path_allows(nas::IpProtocol proto,
                                std::uint16_t port) const {
  return session_up() && core_.upf_allows(ue_, proto, port);
}

bool TrafficEngine::path_healthy() const {
  ++health_checks_;
  // path_allows(TCP 443) && dns_healthy(), with the session looked up once.
  return path_allows(nas::IpProtocol::kTcp, 443) && dns_reachable();
}

void TrafficEngine::record(nas::IpProtocol proto, bool ok) {
  FlowEvent e;
  e.at = sim_.now();
  e.proto = proto;
  e.ok = ok;
  events_.push_back(e);
  while (events_.size() > kMaxEvents) events_.pop_front();
}

void TrafficEngine::attempt_dns(std::function<void(bool)> done) {
  ++attempts_;
  const bool ok = dns_healthy();
  const auto latency =
      ok ? sim::ms(static_cast<std::int64_t>(rng_.uniform(25, 70)))
         : params::kDnsTimeout;
  sim_.schedule_after(latency, [this, ok, done] {
    if (ok) {
      dns_consecutive_timeouts_ = 0;
    } else {
      ++dns_consecutive_timeouts_;
    }
    last_dns_event_ = sim_.now();
    record(nas::IpProtocol::kUdp, ok);
    if (done) done(ok);
  });
}

void TrafficEngine::attempt_tcp(const nas::Ipv4& /*addr*/, std::uint16_t port,
                                std::function<void(bool)> done) {
  ++attempts_;
  const bool ok = path_allows(nas::IpProtocol::kTcp, port);
  const auto latency =
      ok ? sim::ms(static_cast<std::int64_t>(rng_.uniform(40, 120)))
         : sim::seconds(2);  // SYN retrans before giving up
  sim_.schedule_after(latency, [this, ok, done] {
    record(nas::IpProtocol::kTcp, ok);
    if (done) done(ok);
  });
}

void TrafficEngine::attempt_udp(const nas::Ipv4& /*addr*/, std::uint16_t port,
                                std::function<void(bool)> done) {
  ++attempts_;
  const bool ok = path_allows(nas::IpProtocol::kUdp, port);
  const auto latency =
      ok ? sim::ms(static_cast<std::int64_t>(rng_.uniform(20, 60)))
         : sim::ms(500);  // app-level response timeout
  sim_.schedule_after(latency, [this, ok, done] {
    record(nas::IpProtocol::kUdp, ok);
    if (done) done(ok);
  });
}

TcpWindow TrafficEngine::tcp_window(sim::Duration window) const {
  TcpWindow w;
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (sim_.now() - it->at > window) break;
    if (it->proto != nas::IpProtocol::kTcp) continue;
    ++w.outbound;
    if (it->ok) ++w.inbound;
  }
  return w;
}

int TrafficEngine::consecutive_dns_timeouts(sim::Duration window) const {
  if (sim_.now() - last_dns_event_ > window) return 0;
  return dns_consecutive_timeouts_;
}

}  // namespace seed::transport

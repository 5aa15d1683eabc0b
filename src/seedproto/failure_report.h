// Uplink failure report (SIM -> infrastructure) and its transport inside
// the DNN field of PDU Session Establishment Requests (paper §4.3.2 for
// the report API, §4.5 / Fig. 7b for the channel).
//
// Report fields mirror the app-facing API: (failure type, traffic
// direction, address), where address is IP+port for TCP/UDP and a domain
// name for DNS. The protected frame (SecurityContext) is packed into DNN
// labels: label 0 is "DIAG" plus a fragment header, remaining labels carry
// payload bytes. One DNN is capped at 100 wire bytes (paper: "The 100B DNN
// size is sufficient"); longer reports fragment across multiple
// consecutive requests, exactly as the paper's experiments validated.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "nas/ie.h"
#include "seedproto/reassembly.h"

namespace seed::proto {

enum class FailureType : std::uint8_t {
  kDns = 1,
  kTcp = 2,
  kUdp = 3,
  kNoConnection = 4,  // Android "data stall" style report
};

std::string_view failure_type_name(FailureType t);

enum class TrafficDirection : std::uint8_t {
  kUplink = 1,
  kDownlink = 2,
  kBoth = 3,
};

struct FailureReport {
  FailureType type = FailureType::kDns;
  TrafficDirection direction = TrafficDirection::kBoth;
  std::optional<nas::Ipv4> addr;      // TCP/UDP
  std::optional<std::uint16_t> port;  // TCP/UDP
  std::string domain;                 // DNS
  bool operator==(const FailureReport&) const = default;

  Bytes encode() const;
  /// Appends the encoding to `w` (arena/scratch-backed Writers make the
  /// hot path allocation-free).
  void encode_into(Writer& w) const;
  static std::optional<FailureReport> decode(BytesView data);
};

/// Packs/unpacks protected frames into diagnosis DNNs.
class DiagDnnCodec {
 public:
  /// True when the DNN is a SEED diagnosis DNN (first label "DIAG"-headed).
  static bool is_diag(const nas::Dnn& dnn);

  /// Splits `frame` into one or more DNNs, each <= Dnn::kMaxWireSize.
  /// Throws std::length_error when more than 15 DNNs would be needed.
  static std::vector<nas::Dnn> pack(BytesView frame);

  /// Streaming reassembly across consecutive requests.
  class Reassembler : public Reassembly {
   public:
    /// Returns the full frame when the final fragment arrives.
    std::optional<Bytes> feed(const nas::Dnn& dnn) {
      return copy(feed_view(dnn));
    }
    /// Zero-copy variant: the returned view aliases the reassembler's
    /// internal buffer and stays valid until the next feed()/feed_view()/
    /// reset() call.
    std::optional<BytesView> feed_view(const nas::Dnn& dnn);
  };
};

}  // namespace seed::proto

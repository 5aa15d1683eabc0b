// NAS information elements used by the message codecs and by SEED's
// config-update payloads (Appendix A: suggested DNN, S-NSSAI, TFT, 5QI...).
//
// Wire formats follow the 3GPP shapes (DNN label encoding per TS 23.003,
// TFT packet-filter components per TS 24.008 §10.5.6.12) at the fidelity
// the simulation needs; see DESIGN.md for the substitution rationale.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"

namespace seed::nas {

// ------------------------------------------------------------- identities

struct PlmnId {
  std::uint16_t mcc = 0;  // 3 decimal digits
  std::uint16_t mnc = 0;  // 2-3 decimal digits
  auto operator<=>(const PlmnId&) const = default;

  void encode(Writer& w) const;
  static std::optional<PlmnId> decode(Reader& r);
  std::string to_string() const;
};

/// Tracking area identity.
struct Tai {
  PlmnId plmn;
  std::uint32_t tac = 0;  // 24-bit tracking area code
  auto operator<=>(const Tai&) const = default;

  void encode(Writer& w) const;
  static std::optional<Tai> decode(Reader& r);
};

/// 5G-GUTI: temporary identity assigned by the AMF.
struct Guti {
  PlmnId plmn;
  std::uint8_t amf_region = 0;
  std::uint16_t amf_set = 0;   // 10 bits used
  std::uint32_t tmsi = 0;
  auto operator<=>(const Guti&) const = default;

  void encode(Writer& w) const;
  static std::optional<Guti> decode(Reader& r);
};

/// SUCI (concealed SUPI); the simulation carries the MSIN digits opaquely.
struct Suci {
  PlmnId plmn;
  std::string msin;  // decimal digits
  auto operator<=>(const Suci&) const = default;

  void encode(Writer& w) const;
  static std::optional<Suci> decode(Reader& r);
  std::string to_string() const;
};

/// Mobile identity choice carried in Registration Request.
struct MobileIdentity {
  enum class Kind : std::uint8_t { kNone = 0, kSuci = 1, kGuti = 2 };
  Kind kind = Kind::kNone;
  Suci suci;
  Guti guti;
  bool operator==(const MobileIdentity&) const = default;

  void encode(Writer& w) const;
  static std::optional<MobileIdentity> decode(Reader& r);
};

// ----------------------------------------------------------- slice / DNN

/// Single network slice selection assistance info.
struct SNssai {
  std::uint8_t sst = 1;                   // slice/service type
  std::optional<std::uint32_t> sd;        // 24-bit slice differentiator
  auto operator<=>(const SNssai&) const = default;

  void encode(Writer& w) const;
  static std::optional<SNssai> decode(Reader& r);
  std::string to_string() const;
};

/// Data Network Name, encoded as length-prefixed labels (TS 23.003 §9.1).
/// SEED's uplink channel hides encrypted diagnosis bytes in DNN labels
/// ("DIAG"-prefixed, §4.5); Dnn therefore allows arbitrary octets in
/// labels while round-tripping exactly.
class Dnn {
 public:
  Dnn() = default;
  /// From dotted text ("internet", "ims.carrier.com").
  explicit Dnn(std::string_view dotted);
  /// From raw labels (may contain non-ASCII payload bytes).
  static Dnn from_labels(std::vector<Bytes> labels);

  const std::vector<Bytes>& labels() const { return labels_; }
  /// Dotted representation; payload bytes are hex-escaped for display only.
  std::string to_string() const;
  bool empty() const { return labels_.empty(); }
  /// Total wire size (1 length byte per label + label bytes).
  std::size_t wire_size() const;

  bool operator==(const Dnn&) const = default;

  void encode(Writer& w) const;  // lv8 of the label sequence
  static std::optional<Dnn> decode(Reader& r);

  /// Max wire size accepted by the network (paper: "100B DNN size").
  static constexpr std::size_t kMaxWireSize = 100;

 private:
  std::vector<Bytes> labels_;
};

// --------------------------------------------------------------- sessions

enum class PduSessionType : std::uint8_t {
  kIpv4 = 1,
  kIpv6 = 2,
  kIpv4v6 = 3,
  kUnstructured = 4,
  kEthernet = 5,
};

enum class SscMode : std::uint8_t { kMode1 = 1, kMode2 = 2, kMode3 = 3 };

struct Ipv4 {
  std::array<std::uint8_t, 4> octets{};
  auto operator<=>(const Ipv4&) const = default;

  void encode(Writer& w) const;  // the four octets
  static std::optional<Ipv4> decode(Reader& r);
  std::string to_string() const;
  static Ipv4 from_string(std::string_view dotted);  // throws on bad input
};

// --------------------------------------------------------------- TFT / QoS

enum class IpProtocol : std::uint8_t { kAny = 0, kTcp = 6, kUdp = 17 };

/// One packet filter of a Traffic Flow Template.
struct PacketFilter {
  enum class Direction : std::uint8_t {
    kDownlink = 1,
    kUplink = 2,
    kBidirectional = 3
  };
  std::uint8_t id = 0;            // 4-bit filter id
  Direction direction = Direction::kBidirectional;
  std::uint8_t precedence = 0;
  IpProtocol protocol = IpProtocol::kAny;
  std::optional<Ipv4> remote_addr;
  std::optional<std::uint16_t> remote_port_lo;
  std::optional<std::uint16_t> remote_port_hi;  // range end (inclusive)
  auto operator<=>(const PacketFilter&) const = default;

  void encode(Writer& w) const;
  static std::optional<PacketFilter> decode(Reader& r);

  /// True when a packet (proto, remote ip, remote port, direction) matches.
  bool matches(IpProtocol proto, const Ipv4& addr, std::uint16_t port,
               Direction dir) const;
};

/// Traffic Flow Template: an operation plus packet filters.
struct Tft {
  enum class Operation : std::uint8_t {
    kCreateNew = 1,
    kDeleteExisting = 2,
    kAddFilters = 3,
    kReplaceFilters = 4,
    kDeleteFilters = 5,
  };
  Operation op = Operation::kCreateNew;
  std::vector<PacketFilter> filters;
  bool operator==(const Tft&) const = default;

  void encode(Writer& w) const;
  static std::optional<Tft> decode(Reader& r);

  /// Semantic validation (TS 24.008-style): duplicate filter ids or
  /// create/replace with no filters are semantic errors.
  bool semantically_valid() const;
};

/// Minimal QoS rule: 5QI plus optional bitrates.
struct QosRule {
  std::uint8_t fiveqi = 9;  // default non-GBR
  std::uint32_t mbr_ul_kbps = 0;
  std::uint32_t mbr_dl_kbps = 0;
  auto operator<=>(const QosRule&) const = default;

  void encode(Writer& w) const;
  static std::optional<QosRule> decode(Reader& r);
};

/// 5QIs a simulated gNB/UPF supports (standardized subset).
bool is_standard_5qi(std::uint8_t v);

}  // namespace seed::nas

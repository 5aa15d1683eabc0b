#include "nas/ie.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace seed::nas {

// ------------------------------------------------------------- identities

void PlmnId::encode(Writer& w) const {
  w.u16(mcc);
  w.u16(mnc);
}

std::optional<PlmnId> PlmnId::decode(Reader& r) {
  PlmnId p;
  p.mcc = r.u16();
  p.mnc = r.u16();
  if (!r.ok() || p.mcc > 999 || p.mnc > 999) {
    r.fail();
    return std::nullopt;
  }
  return p;
}

std::string PlmnId::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%03u-%02u", mcc, mnc);
  return buf;
}

void Tai::encode(Writer& w) const {
  plmn.encode(w);
  w.u24(tac & 0xffffff);
}

std::optional<Tai> Tai::decode(Reader& r) {
  Tai t;
  const auto p = PlmnId::decode(r);
  if (!p) return std::nullopt;
  t.plmn = *p;
  t.tac = r.u24();
  if (!r.ok()) return std::nullopt;
  return t;
}

void Guti::encode(Writer& w) const {
  plmn.encode(w);
  w.u8(amf_region);
  w.u16(amf_set & 0x03ff);
  w.u32(tmsi);
}

std::optional<Guti> Guti::decode(Reader& r) {
  Guti g;
  const auto p = PlmnId::decode(r);
  if (!p) return std::nullopt;
  g.plmn = *p;
  g.amf_region = r.u8();
  g.amf_set = r.u16();
  g.tmsi = r.u32();
  if (!r.ok() || g.amf_set > 0x03ff) {
    r.fail();
    return std::nullopt;
  }
  return g;
}

void Suci::encode(Writer& w) const {
  plmn.encode(w);
  w.lv8(to_bytes(msin));
}

std::optional<Suci> Suci::decode(Reader& r) {
  Suci s;
  const auto p = PlmnId::decode(r);
  if (!p) return std::nullopt;
  s.plmn = *p;
  s.msin = seed::to_string(r.lv8());
  if (!r.ok()) return std::nullopt;
  for (char c : s.msin) {
    if (c < '0' || c > '9') {
      r.fail();
      return std::nullopt;
    }
  }
  return s;
}

std::string Suci::to_string() const {
  return plmn.to_string() + "-" + msin;
}

void MobileIdentity::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  switch (kind) {
    case Kind::kNone:
      break;
    case Kind::kSuci:
      suci.encode(w);
      break;
    case Kind::kGuti:
      guti.encode(w);
      break;
  }
}

std::optional<MobileIdentity> MobileIdentity::decode(Reader& r) {
  MobileIdentity id;
  const std::uint8_t k = r.u8();
  if (!r.ok()) return std::nullopt;
  switch (k) {
    case 0:
      id.kind = Kind::kNone;
      return id;
    case 1: {
      id.kind = Kind::kSuci;
      const auto s = Suci::decode(r);
      if (!s) return std::nullopt;
      id.suci = *s;
      return id;
    }
    case 2: {
      id.kind = Kind::kGuti;
      const auto g = Guti::decode(r);
      if (!g) return std::nullopt;
      id.guti = *g;
      return id;
    }
    default:
      r.fail();
      return std::nullopt;
  }
}

// ----------------------------------------------------------- slice / DNN

void SNssai::encode(Writer& w) const {
  if (sd) {
    w.u8(4);  // length: sst + 3-byte sd
    w.u8(sst);
    w.u24(*sd & 0xffffff);
  } else {
    w.u8(1);
    w.u8(sst);
  }
}

std::optional<SNssai> SNssai::decode(Reader& r) {
  SNssai s;
  const std::uint8_t len = r.u8();
  if (len == 1) {
    s.sst = r.u8();
  } else if (len == 4) {
    s.sst = r.u8();
    s.sd = r.u24();
  } else {
    r.fail();
    return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return s;
}

std::string SNssai::to_string() const {
  char buf[32];
  if (sd) {
    std::snprintf(buf, sizeof(buf), "sst=%u sd=%06x", sst, *sd);
  } else {
    std::snprintf(buf, sizeof(buf), "sst=%u", sst);
  }
  return buf;
}

Dnn::Dnn(std::string_view dotted) {
  std::size_t start = 0;
  while (start <= dotted.size()) {
    const std::size_t dot = dotted.find('.', start);
    const std::string_view label =
        dotted.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                           : dot - start);
    if (!label.empty()) labels_.push_back(to_bytes(label));
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
}

Dnn Dnn::from_labels(std::vector<Bytes> labels) {
  Dnn d;
  d.labels_ = std::move(labels);
  return d;
}

std::string Dnn::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (i) out.push_back('.');
    bool printable = true;
    for (std::uint8_t b : labels_[i]) {
      if (b < 0x20 || b > 0x7e || b == '.') {
        printable = false;
        break;
      }
    }
    if (printable) {
      out += seed::to_string(labels_[i]);
    } else {
      out += "0x" + to_hex(labels_[i]);
    }
  }
  return out;
}

std::size_t Dnn::wire_size() const {
  std::size_t n = 0;
  for (const auto& l : labels_) n += 1 + l.size();
  return n;
}

void Dnn::encode(Writer& w) const {
  const std::size_t body = w.lv8_begin();
  for (const auto& l : labels_) w.lv8(l);
  w.lv8_end(body);
}

std::optional<Dnn> Dnn::decode(Reader& r) {
  const BytesView body = r.lv8();
  if (!r.ok()) return std::nullopt;
  // The outer lv8 admits up to 255 bytes but a DNN is capped at
  // kMaxWireSize on the encode side; accepting more here would let a
  // forged IE smuggle oversized label sets past every later bound.
  if (body.size() > kMaxWireSize) {
    r.fail();
    return std::nullopt;
  }
  Reader inner(body);
  std::vector<Bytes> labels;
  while (inner.remaining() > 0) {
    const BytesView label = inner.lv8();
    if (!inner.ok() || label.empty()) {
      r.fail();
      return std::nullopt;
    }
    labels.emplace_back(label.begin(), label.end());
  }
  return from_labels(std::move(labels));
}

// --------------------------------------------------------------- sessions

void Ipv4::encode(Writer& w) const {
  w.raw(BytesView(octets.data(), octets.size()));
}

std::optional<Ipv4> Ipv4::decode(Reader& r) {
  const BytesView a = r.raw(4);
  if (!r.ok()) return std::nullopt;
  Ipv4 ip;
  std::copy(a.begin(), a.end(), ip.octets.begin());
  return ip;
}

std::string Ipv4::to_string() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", octets[0], octets[1],
                octets[2], octets[3]);
  return buf;
}

Ipv4 Ipv4::from_string(std::string_view dotted) {
  Ipv4 out;
  std::size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t dot = dotted.find('.', start);
    const bool last = (i == 3);
    if (last != (dot == std::string_view::npos)) {
      throw std::invalid_argument("Ipv4: malformed address");
    }
    const std::string_view part = dotted.substr(
        start, last ? std::string_view::npos : dot - start);
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), value);
    if (ec != std::errc() || ptr != part.data() + part.size() || value > 255) {
      throw std::invalid_argument("Ipv4: malformed octet");
    }
    out.octets[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value);
    start = dot + 1;
  }
  return out;
}

// --------------------------------------------------------------- TFT / QoS

namespace {
// Component type ids (TS 24.008-inspired).
constexpr std::uint8_t kCompProtocol = 0x30;
constexpr std::uint8_t kCompRemoteAddr = 0x10;
constexpr std::uint8_t kCompPortRange = 0x41;
}  // namespace

void PacketFilter::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>((id & 0x0f) |
                                 (static_cast<std::uint8_t>(direction) << 4)));
  w.u8(precedence);
  const std::size_t comps = w.lv8_begin();
  if (protocol != IpProtocol::kAny) {
    w.u8(kCompProtocol);
    w.u8(static_cast<std::uint8_t>(protocol));
  }
  if (remote_addr) {
    w.u8(kCompRemoteAddr);
    remote_addr->encode(w);
  }
  if (remote_port_lo) {
    w.u8(kCompPortRange);
    w.u16(*remote_port_lo);
    w.u16(remote_port_hi.value_or(*remote_port_lo));
  }
  w.lv8_end(comps);
}

std::optional<PacketFilter> PacketFilter::decode(Reader& r) {
  PacketFilter f;
  const std::uint8_t head = r.u8();
  f.id = head & 0x0f;
  const std::uint8_t dir = head >> 4;
  if (dir < 1 || dir > 3) {
    r.fail();
    return std::nullopt;
  }
  f.direction = static_cast<Direction>(dir);
  f.precedence = r.u8();
  const BytesView comps = r.lv8();
  if (!r.ok()) return std::nullopt;
  // A repeated component is decoded and ignored: the first occurrence
  // wins, as for a repeated IE (TS 24.501 clause 7.6.3). A wire protocol
  // is never kAny, so kAny means "not seen yet".
  Reader cr(comps);
  while (cr.remaining() > 0) {
    const std::uint8_t type = cr.u8();
    switch (type) {
      case kCompProtocol: {
        const std::uint8_t proto = cr.u8();
        if (proto != 6 && proto != 17) {
          r.fail();
          return std::nullopt;
        }
        if (f.protocol == IpProtocol::kAny) {
          f.protocol = static_cast<IpProtocol>(proto);
        }
        break;
      }
      case kCompRemoteAddr: {
        const std::optional<Ipv4> addr = Ipv4::decode(cr);
        if (!addr) {
          r.fail();
          return std::nullopt;
        }
        if (!f.remote_addr) f.remote_addr = addr;
        break;
      }
      case kCompPortRange: {
        const std::uint16_t lo = cr.u16();
        const std::uint16_t hi = cr.u16();
        if (!f.remote_port_lo) {
          f.remote_port_lo = lo;
          f.remote_port_hi = hi;
        }
        break;
      }
      default:
        r.fail();
        return std::nullopt;
    }
    if (!cr.ok()) {
      r.fail();
      return std::nullopt;
    }
  }
  if (f.remote_port_lo && *f.remote_port_hi < *f.remote_port_lo) {
    r.fail();
    return std::nullopt;
  }
  return f;
}

bool PacketFilter::matches(IpProtocol proto, const Ipv4& addr,
                           std::uint16_t port, Direction dir) const {
  if (direction != Direction::kBidirectional && dir != direction) return false;
  if (protocol != IpProtocol::kAny && proto != protocol) return false;
  if (remote_addr && !(addr == *remote_addr)) return false;
  if (remote_port_lo) {
    const std::uint16_t hi = remote_port_hi.value_or(*remote_port_lo);
    if (port < *remote_port_lo || port > hi) return false;
  }
  return true;
}

void Tft::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(static_cast<std::uint8_t>(filters.size()));
  for (const auto& f : filters) f.encode(w);
}

std::optional<Tft> Tft::decode(Reader& r) {
  Tft t;
  const std::uint8_t op = r.u8();
  if (op < 1 || op > 5) {
    r.fail();
    return std::nullopt;
  }
  t.op = static_cast<Operation>(op);
  const std::uint8_t n = r.u8();
  for (std::uint8_t i = 0; i < n; ++i) {
    const auto f = PacketFilter::decode(r);
    if (!f) return std::nullopt;
    t.filters.push_back(*f);
  }
  if (!r.ok()) return std::nullopt;
  return t;
}

bool Tft::semantically_valid() const {
  if ((op == Operation::kCreateNew || op == Operation::kReplaceFilters ||
       op == Operation::kAddFilters) &&
      filters.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < filters.size(); ++i) {
    for (std::size_t j = i + 1; j < filters.size(); ++j) {
      if (filters[i].id == filters[j].id) return false;
    }
  }
  return true;
}

void QosRule::encode(Writer& w) const {
  w.u8(fiveqi);
  w.u32(mbr_ul_kbps);
  w.u32(mbr_dl_kbps);
}

std::optional<QosRule> QosRule::decode(Reader& r) {
  QosRule q;
  q.fiveqi = r.u8();
  q.mbr_ul_kbps = r.u32();
  q.mbr_dl_kbps = r.u32();
  if (!r.ok()) return std::nullopt;
  return q;
}

bool is_standard_5qi(std::uint8_t v) {
  // Standardized 5QI values from TS 23.501 Table 5.7.4-1 (subset).
  switch (v) {
    case 1: case 2: case 3: case 4: case 5: case 6: case 7: case 8: case 9:
    case 65: case 66: case 67: case 69: case 70: case 75: case 79: case 80:
    case 82: case 83: case 84: case 85: case 86:
      return true;
    default:
      return false;
  }
}

}  // namespace seed::nas

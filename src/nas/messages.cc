#include "nas/messages.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "obs/prof.h"

namespace seed::nas {

namespace {

// Optional-IE tags (shared across messages; values are local to this
// simulation's TLV scheme).
constexpr std::uint8_t kIeiLastVisitedTai = 0x52;
constexpr std::uint8_t kIeiT3502 = 0x16;
constexpr std::uint8_t kIeiAuts = 0x30;
constexpr std::uint8_t kIeiGuti = 0x77;
constexpr std::uint8_t kIeiSnssai = 0x22;
constexpr std::uint8_t kIeiTft = 0x59;
constexpr std::uint8_t kIeiQos = 0x79;
constexpr std::uint8_t kIeiDns = 0x39;
constexpr std::uint8_t kIeiBackoff = 0x37;

/// One optional IE of a message's TLV tail.
template <typename T>
struct Tlv {
  std::uint8_t tag;
  std::optional<T>& value;
};

// ------------------------------------------------------------ field lists
//
// Each body is stated once, as a walk over its fields that the Encoder
// and the Decoder below both run:
//   u8(v, lo, hi)   one octet (bool, enum or integer), valid in [lo, hi]
//   field(v)        an IE, a u32 or a fixed byte array
//   list(v)         a u8 count, then that many IEs
//   lv8(b, lo, hi)  a u8 length in [lo, hi], then that many octets
//   tail(Tlv{tag, opt}...)  the optional IEs as (tag, lv8) TLVs

template <typename Io>
void fields(Io& io, RegistrationRequest& m) {
  io.field(m.identity);
  io.u8(m.follow_on_request, 0, 1);
  io.list(m.requested_nssai);
  io.tail(Tlv{kIeiLastVisitedTai, m.last_visited_tai});
}

template <typename Io>
void fields(Io& io, RegistrationAccept& m) {
  io.field(m.guti);
  io.list(m.tai_list);
  io.list(m.allowed_nssai);
  io.field(m.t3512_seconds);
}

template <typename Io>
void fields(Io& io, RegistrationReject& m) {
  io.u8(m.cause);
  io.tail(Tlv{kIeiT3502, m.t3502_seconds});
}

template <typename Io>
void fields(Io& io, DeregistrationRequest& m) {
  io.u8(m.switch_off, 0, 1);
}

template <typename Io>
void fields(Io& io, ServiceRequest& m) {
  io.u8(m.service_type, 0, 1);
}

template <typename Io>
void fields(Io& io, ServiceReject& m) {
  io.u8(m.cause);
}

template <typename Io>
void fields(Io& io, AuthenticationRequest& m) {
  io.u8(m.ngksi, 0, 7);
  io.field(m.rand);
  io.field(m.autn);
}

template <typename Io>
void fields(Io& io, AuthenticationResponse& m) {
  io.lv8(m.res, 4, 16);
}

template <typename Io>
void fields(Io& io, AuthenticationFailure& m) {
  io.u8(m.cause);
  io.tail(Tlv{kIeiAuts, m.auts});
}

template <typename Io>
void fields(Io& io, SecurityModeCommand& m) {
  io.u8(m.ea, 0, 3);
  io.u8(m.ia, 0, 3);
}

template <typename Io>
void fields(Io& io, ConfigurationUpdateCommand& m) {
  io.list(m.tai_list);
  io.tail(Tlv{kIeiGuti, m.guti});
}

template <typename Io>
void fields(Io& io, PduSessionEstablishmentRequest& m) {
  io.u8(m.type, 1, 5);
  io.u8(m.ssc, 1, 3);
  io.field(m.dnn);
  io.tail(Tlv{kIeiSnssai, m.snssai});
}

template <typename Io>
void fields(Io& io, PduSessionEstablishmentAccept& m) {
  io.u8(m.type, 1, 5);
  io.field(m.ue_addr);
  io.field(m.dns_addr);
  io.field(m.qos);
  io.tail(Tlv{kIeiTft, m.tft});
}

template <typename Io>
void fields(Io& io, PduSessionEstablishmentReject& m) {
  io.u8(m.cause);
  io.tail(Tlv{kIeiBackoff, m.backoff_seconds});
}

template <typename Io>
void fields(Io& io, PduSessionModificationRequest& m) {
  io.tail(Tlv{kIeiTft, m.tft}, Tlv{kIeiQos, m.qos});
}

template <typename Io>
void fields(Io& io, PduSessionModificationReject& m) {
  io.u8(m.cause);
}

template <typename Io>
void fields(Io& io, PduSessionModificationCommand& m) {
  io.tail(Tlv{kIeiTft, m.tft}, Tlv{kIeiQos, m.qos}, Tlv{kIeiDns, m.dns_addr});
}

template <typename Io>
void fields(Io& io, PduSessionReleaseCommand& m) {
  io.u8(m.cause);
}

// Bodies with no fields: anything after the header is trailing garbage.
template <typename Io> void fields(Io&, ServiceAccept&) {}
template <typename Io> void fields(Io&, AuthenticationReject&) {}
template <typename Io> void fields(Io&, SecurityModeComplete&) {}
template <typename Io> void fields(Io&, PduSessionReleaseRequest&) {}
template <typename Io> void fields(Io&, PduSessionReleaseComplete&) {}

// ---------------------------------------------------------------- walkers

template <typename T>
inline constexpr bool kByteArray = false;
template <std::size_t N>
inline constexpr bool kByteArray<std::array<std::uint8_t, N>> = true;

template <typename T>
void put(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (kByteArray<T>) {
    w.raw(BytesView(v.data(), v.size()));
  } else {
    v.encode(w);
  }
}

// Reads one value into `v`. On failure the reader is failed: as truncated
// when the input ran out, explicitly when a value was invalid.
template <typename T>
bool get(Reader& r, T& v) {
  if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (kByteArray<T>) {
    const BytesView b = r.raw(v.size());
    std::copy(b.begin(), b.end(), v.begin());
  } else if (auto d = T::decode(r)) {
    v = std::move(*d);
  } else {
    r.fail();
  }
  return r.ok();
}

class Encoder {
 public:
  explicit Encoder(Writer& w) : w_(w) {}

  template <typename T>
  void u8(T v, std::uint8_t = 0, std::uint8_t = 0xff) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  template <typename T>
  void field(const T& v) {
    put(w_, v);
  }
  template <typename T>
  void list(const std::vector<T>& v) {
    w_.u8(static_cast<std::uint8_t>(v.size()));
    for (const T& x : v) put(w_, x);
  }
  void lv8(const Bytes& b, std::uint8_t, std::uint8_t) { w_.lv8(b); }
  template <typename... T>
  void tail(Tlv<T>... ies) {
    (put_tlv(ies), ...);
  }

 private:
  template <typename T>
  void put_tlv(const Tlv<T>& ie) {
    if (!ie.value) return;
    const std::size_t value = w_.tlv8_begin(ie.tag);
    put(w_, *ie.value);
    w_.lv8_end(value);
  }

  Writer& w_;
};

// Every read goes through one Reader, whose first failure is sticky: a
// field found out of range fails it explicitly on the spot, so the first
// problem in wire order decides between truncated and bad-field-value.
class Decoder {
 public:
  explicit Decoder(Reader& r) : r_(r) {}

  template <typename T>
  void u8(T& v, std::uint8_t lo = 0, std::uint8_t hi = 0xff) {
    const std::uint8_t b = r_.u8();
    if (b < lo || b > hi) r_.fail();
    v = static_cast<T>(b);
  }
  template <typename T>
  void field(T& v) {
    get(r_, v);
  }
  template <typename T>
  void list(std::vector<T>& v) {
    const std::uint8_t n = r_.u8();
    for (std::uint8_t i = 0; i < n && r_.ok(); ++i) get(r_, v.emplace_back());
  }
  void lv8(Bytes& b, std::uint8_t lo, std::uint8_t hi) {
    const std::uint8_t n = r_.u8();
    if (n < lo || n > hi) r_.fail();
    const BytesView v = r_.raw(n);
    b.assign(v.begin(), v.end());
  }
  // Tags may come in any order. A repeated tag is decoded and ignored:
  // the first occurrence wins (TS 24.501 clause 7.6.3). An unknown tag,
  // or a value not decoded exactly, is invalid.
  template <typename... T>
  void tail(Tlv<T>... ies) {
    while (r_.ok() && r_.remaining() > 0) {
      const std::uint8_t tag = r_.u8();
      if (!(get_tlv(tag, ies) || ...)) r_.fail();
    }
  }

 private:
  template <typename T>
  bool get_tlv(std::uint8_t tag, const Tlv<T>& ie) {
    if (tag != ie.tag) return false;
    Reader vr(r_.lv8());
    if (!r_.ok()) return true;
    T v{};
    if (get(vr, v) && vr.done()) {
      if (!ie.value) ie.value = std::move(v);
    } else {
      r_.fail();
    }
    return true;
  }

  Reader& r_;
};

// ---------------------------------------------------------------- headers

/// 5GSM messages are the ones with an SmHeader.
template <typename M>
concept SmMessage = requires(const M& m) { m.hdr; };

template <typename M>
constexpr std::uint8_t kEpdOf = SmMessage<M> ? kEpd5gsm : kEpd5gmm;

void encode_to_writer(Writer& w, const NasMessage& msg) {
  std::visit(
      [&w](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        w.u8(kEpdOf<M>);
        if constexpr (SmMessage<M>) {
          w.u8(m.hdr.pdu_session_id);
          w.u8(m.hdr.pti);
        } else {
          w.u8(0);  // plain security header
        }
        w.u8(static_cast<std::uint8_t>(M::kType));
        // The encoder only reads the message.
        Encoder enc(w);
        fields(enc, const_cast<M&>(m));
      },
      msg);
}

// Decodes the body into alternative I when (epd, type) names it.
template <std::size_t I>
bool decode_as(std::uint8_t epd, std::uint8_t type, const SmHeader& hdr,
               Reader& r, std::optional<NasMessage>& out) {
  using M = std::variant_alternative_t<I, NasMessage>;
  if (epd != kEpdOf<M> || type != static_cast<std::uint8_t>(M::kType)) {
    return false;
  }
  M& m = std::get<I>(out.emplace(std::in_place_index<I>));
  if constexpr (SmMessage<M>) m.hdr = hdr;
  Decoder dec(r);
  fields(dec, m);
  return true;
}

template <std::size_t... I>
bool decode_body(std::uint8_t epd, std::uint8_t type, const SmHeader& hdr,
                 Reader& r, std::optional<NasMessage>& out,
                 std::index_sequence<I...>) {
  return (decode_as<I>(epd, type, hdr, r, out) || ...);
}

}  // namespace

std::string_view msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kRegistrationRequest: return "Registration Request";
    case MsgType::kRegistrationAccept: return "Registration Accept";
    case MsgType::kRegistrationReject: return "Registration Reject";
    case MsgType::kDeregistrationRequest: return "Deregistration Request";
    case MsgType::kServiceRequest: return "Service Request";
    case MsgType::kServiceReject: return "Service Reject";
    case MsgType::kServiceAccept: return "Service Accept";
    case MsgType::kConfigurationUpdateCommand:
      return "Configuration Update Command";
    case MsgType::kAuthenticationRequest: return "Authentication Request";
    case MsgType::kAuthenticationResponse: return "Authentication Response";
    case MsgType::kAuthenticationReject: return "Authentication Reject";
    case MsgType::kAuthenticationFailure: return "Authentication Failure";
    case MsgType::kSecurityModeCommand: return "Security Mode Command";
    case MsgType::kSecurityModeComplete: return "Security Mode Complete";
    case MsgType::kPduSessionEstablishmentRequest:
      return "PDU Session Establishment Request";
    case MsgType::kPduSessionEstablishmentAccept:
      return "PDU Session Establishment Accept";
    case MsgType::kPduSessionEstablishmentReject:
      return "PDU Session Establishment Reject";
    case MsgType::kPduSessionModificationRequest:
      return "PDU Session Modification Request";
    case MsgType::kPduSessionModificationReject:
      return "PDU Session Modification Reject";
    case MsgType::kPduSessionModificationCommand:
      return "PDU Session Modification Command";
    case MsgType::kPduSessionReleaseRequest:
      return "PDU Session Release Request";
    case MsgType::kPduSessionReleaseCommand:
      return "PDU Session Release Command";
    case MsgType::kPduSessionReleaseComplete:
      return "PDU Session Release Complete";
  }
  return "Unknown";
}

Bytes encode_message(const NasMessage& msg) {
  PROF_ZONE("nas.encode");
  Writer w;
  encode_to_writer(w, msg);
  Bytes wire = std::move(w).take();
  PROF_BYTES(wire.size());
  PROF_ALLOC(wire.size());
  return wire;
}

BytesView encode_message_into(const NasMessage& msg, Bytes& scratch) {
  PROF_ZONE("nas.encode");
  const std::size_t warm_capacity = scratch.capacity();
  Writer w(std::move(scratch));
  encode_to_writer(w, msg);
  scratch = std::move(w).take();
  PROF_BYTES(scratch.size());
  // A real allocation happened only if the scratch outgrew its warmed-up
  // capacity; steady state (pooled buffers) records zero allocs. Counted
  // by message size, not capacity, so the profile stays platform-exact.
  if (scratch.capacity() > warm_capacity) PROF_ALLOC(scratch.size());
  return scratch;
}

std::string_view decode_error_name(DecodeError e) {
  switch (e) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadProtocol: return "bad-protocol";
    case DecodeError::kBadSecurityHeader: return "bad-security-header";
    case DecodeError::kUnknownType: return "unknown-type";
    case DecodeError::kBadFieldValue: return "bad-field-value";
    case DecodeError::kTrailingBytes: return "trailing-bytes";
  }
  return "invalid";
}

std::optional<NasMessage> decode_message(BytesView data, DecodeError* err) {
  PROF_ZONE("nas.decode");
  PROF_BYTES(data.size());
  DecodeError unused;
  DecodeError& e = err ? *err : unused;
  e = DecodeError::kNone;
  std::optional<NasMessage> out;
  // The header is read whole before any of it is checked.
  Reader r(data);
  const std::uint8_t epd = r.u8();
  if (r.ok() && epd != kEpd5gmm && epd != kEpd5gsm) {
    e = DecodeError::kBadProtocol;
    return out;
  }
  SmHeader hdr;
  std::uint8_t sec = 0;
  if (epd == kEpd5gsm) {
    hdr.pdu_session_id = r.u8();
    hdr.pti = r.u8();
  } else {
    sec = r.u8();
  }
  const std::uint8_t type = r.u8();
  if (!r.ok()) {
    e = DecodeError::kTruncated;
  } else if (sec != 0) {
    e = DecodeError::kBadSecurityHeader;
  } else if (!decode_body(epd, type, hdr, r, out,
                          std::make_index_sequence<
                              std::variant_size_v<NasMessage>>{})) {
    e = DecodeError::kUnknownType;
  } else if (!r.ok()) {
    e = r.truncated() ? DecodeError::kTruncated : DecodeError::kBadFieldValue;
  } else if (r.remaining() > 0) {
    e = DecodeError::kTrailingBytes;
  }
  if (e != DecodeError::kNone) out.reset();
  return out;
}

MsgType message_type(const NasMessage& msg) {
  return std::visit(
      [](const auto& m) { return std::decay_t<decltype(m)>::kType; }, msg);
}

std::optional<std::pair<Plane, std::uint8_t>> extract_cause(
    const NasMessage& msg) {
  using Result = std::optional<std::pair<Plane, std::uint8_t>>;
  return std::visit(
      [](const auto& m) -> Result {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RegistrationReject> ||
                      std::is_same_v<T, ServiceReject> ||
                      std::is_same_v<T, AuthenticationFailure>) {
          return std::make_pair(Plane::kControl, m.cause);
        } else if constexpr (std::is_same_v<T, PduSessionEstablishmentReject> ||
                             std::is_same_v<T, PduSessionModificationReject> ||
                             std::is_same_v<T, PduSessionReleaseCommand>) {
          return std::make_pair(Plane::kData, m.cause);
        } else {
          return std::nullopt;
        }
      },
      msg);
}

}  // namespace seed::nas

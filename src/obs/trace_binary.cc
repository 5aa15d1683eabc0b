#include "obs/trace_binary.h"

#include <bit>
#include <map>
#include <ostream>

namespace seed::obs {
namespace {

// Event flag bits (see the layout comment in the header).
constexpr std::uint8_t kFlagOk = 0x01;
constexpr std::uint8_t kFlagSpan = 0x02;
constexpr std::uint8_t kFlagSeq = 0x04;
constexpr std::uint8_t kFlagParent = 0x08;
constexpr std::uint8_t kFlagUe = 0x10;
constexpr std::uint8_t kFlagLabel = 0x20;
constexpr std::uint8_t kFlagTiming = 0x40;
constexpr std::uint8_t kFlagDetail = 0x80;

constexpr std::uint8_t kRecStr = 0x01;
constexpr std::uint8_t kRecEvent = 0x02;
constexpr std::uint8_t kRecEnd = 0xFF;

// NDN-style varint (the ccache TLV length encoding): one byte up to 252,
// then a flag byte selecting a big-endian 2/4/8-byte value.
constexpr std::uint8_t kVar2ByteFlag = 0xFD;
constexpr std::uint8_t kVar4ByteFlag = 0xFE;
constexpr std::uint8_t kVar8ByteFlag = 0xFF;
constexpr std::size_t kMaxVarint = 9;

constexpr std::size_t varint_size(std::uint64_t v) {
  return v < kVar2ByteFlag ? 1 : v <= 0xFFFF ? 3 : v <= 0xFFFFFFFF ? 5 : 9;
}

/// Writes `v` at `p` and returns the byte after it.
std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  std::size_t n = varint_size(v);
  if (n > 1) {
    *p++ = n == 3 ? kVar2ByteFlag : n == 5 ? kVar4ByteFlag : kVar8ByteFlag;
    --n;
  }
  while (n-- > 0) *p++ = static_cast<std::uint8_t>(v >> (8 * n));
  return p;
}

std::uint8_t* put_f64(std::uint8_t* p, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(bits >> (8 * i));
  return p;
}

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Hands each record of the capture of `events` to `sink(type, payload)`
/// in capture order: a STR record the first time a detail appears, then
/// the event's EVT record. The one walk behind encode_binary and
/// record_bytes; its intern table holds views into `events`.
template <class Sink>
void walk_records(const std::vector<Event>& events, Sink&& sink) {
  std::map<std::string_view, std::uint32_t> intern;
  EventPayload payload;
  for (const Event& e : events) {
    std::uint32_t detail_id = 0;
    if (!e.detail.empty()) {
      std::string_view d = e.detail;
      if (d.size() > kTraceMaxDetailLen) d = d.substr(0, kTraceMaxDetailLen);
      const auto next = static_cast<std::uint32_t>(intern.size() + 1);
      const auto [it, fresh] = intern.try_emplace(d, next);
      if (fresh) {
        sink(kRecStr, std::span(reinterpret_cast<const std::uint8_t*>(d.data()),
                                d.size()));
      }
      detail_id = it->second;
    }
    const std::size_t n = write_event_payload(e, detail_id, payload);
    sink(kRecEvent, std::span<const std::uint8_t>(payload.data(), n));
  }
}

// ----- decode

struct Cursor {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;

  std::size_t left() const { return n - off; }
  std::uint8_t u8() { return p[off++]; }
};

bool read_varint(Cursor& c, std::uint64_t& out) {
  if (c.left() < 1) return false;
  out = c.u8();
  if (out < kVar2ByteFlag) return true;
  const std::size_t bytes =
      out == kVar2ByteFlag ? 2 : out == kVar4ByteFlag ? 4 : 8;
  if (c.left() < bytes) return false;
  out = 0;
  for (std::size_t i = 0; i < bytes; ++i) out = (out << 8) | c.u8();
  return true;
}

/// A varint that must fit 32 bits (ue, label, a string id).
bool read_u32(Cursor& c, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!read_varint(c, v) || v > 0xFFFFFFFF) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool read_f64(Cursor& c, double& out) {
  if (c.left() < 8) return false;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(c.u8()) << (8 * i);
  }
  out = std::bit_cast<double>(bits);
  return true;
}

}  // namespace

std::string_view binary_error_name(BinaryError e) {
  switch (e) {
    case BinaryError::kNone: return "ok";
    case BinaryError::kBadMagic: return "bad_magic";
    case BinaryError::kBadVersion: return "bad_version";
    case BinaryError::kTruncated: return "truncated";
    case BinaryError::kOverLength: return "over_length";
    case BinaryError::kMalformed: return "malformed";
  }
  return "unknown";
}

bool looks_binary(std::string_view bytes) {
  return bytes.size() >= kTraceMagic.size() &&
         bytes.substr(0, kTraceMagic.size()) == kTraceMagic;
}

std::size_t write_event_payload(const Event& e, std::uint32_t detail_id,
                                EventPayload& out) {
  std::uint8_t flags = 0;
  if (e.ok) flags |= kFlagOk;
  if (e.span != 0) flags |= kFlagSpan;
  if (e.seq != 0) flags |= kFlagSeq;
  if (e.parent != 0) flags |= kFlagParent;
  if (e.ue != 0) flags |= kFlagUe;
  if (e.label != 0) flags |= kFlagLabel;
  // Bits, not values: a -0.0 timing is written, so it decodes as -0.0.
  if ((std::bit_cast<std::uint64_t>(e.prep_ms) |
       std::bit_cast<std::uint64_t>(e.trans_ms)) != 0) {
    flags |= kFlagTiming;
  }
  if (detail_id != 0) flags |= kFlagDetail;

  std::uint8_t* p = out.data();
  *p++ = static_cast<std::uint8_t>(e.kind);
  *p++ = static_cast<std::uint8_t>(e.origin);
  *p++ = e.plane;
  *p++ = e.cause;
  *p++ = e.action;
  *p++ = e.tier;
  *p++ = flags;
  p = put_varint(p, zigzag(e.at_us));
  if (flags & kFlagSpan) p = put_varint(p, e.span);
  if (flags & kFlagSeq) p = put_varint(p, e.seq);
  if (flags & kFlagParent) p = put_varint(p, e.parent);
  if (flags & kFlagUe) p = put_varint(p, e.ue);
  if (flags & kFlagLabel) p = put_varint(p, e.label);
  if (flags & kFlagTiming) {
    p = put_f64(p, e.prep_ms);
    p = put_f64(p, e.trans_ms);
  }
  if (flags & kFlagDetail) p = put_varint(p, detail_id);
  return static_cast<std::size_t>(p - out.data());
}

bool read_event_payload(std::span<const std::uint8_t> payload, Event& e,
                        std::uint32_t& detail_id) {
  Cursor c{payload.data(), payload.size()};
  if (c.left() < 7) return false;
  const std::uint8_t kind = c.u8();
  const std::uint8_t origin = c.u8();
  // Reject values our name tables don't know — the binary twin of
  // import_jsonl treating an unknown kind name as malformed.
  if (event_kind_name(static_cast<EventKind>(kind)) == "unknown") {
    return false;
  }
  if (origin_name(static_cast<Origin>(origin)) == "unknown") return false;
  e.kind = static_cast<EventKind>(kind);
  e.origin = static_cast<Origin>(origin);
  e.plane = c.u8();
  e.cause = c.u8();
  e.action = c.u8();
  e.tier = c.u8();
  const std::uint8_t flags = c.u8();
  e.ok = (flags & kFlagOk) != 0;

  std::uint64_t v = 0;
  if (!read_varint(c, v)) return false;
  e.at_us = unzigzag(v);
  if ((flags & kFlagSpan) && !read_varint(c, e.span)) return false;
  if ((flags & kFlagSeq) && !read_varint(c, e.seq)) return false;
  if ((flags & kFlagParent) && !read_varint(c, e.parent)) return false;
  if ((flags & kFlagUe) && !read_u32(c, e.ue)) return false;
  if ((flags & kFlagLabel) && !read_u32(c, e.label)) return false;
  if ((flags & kFlagTiming) &&
      !(read_f64(c, e.prep_ms) && read_f64(c, e.trans_ms))) {
    return false;
  }
  detail_id = 0;
  if ((flags & kFlagDetail) && !(read_u32(c, detail_id) && detail_id != 0)) {
    return false;
  }
  return c.left() == 0;  // payload exactly consumed
}

std::string encode_binary(const std::vector<Event>& events) {
  std::string out;
  // ~28 bytes/event is the storms' record cost; over-reserving a little
  // beats reallocating a metro-scale capture.
  out.reserve(kTraceHeaderSize + 2 + events.size() * 28);
  out.append(kTraceMagic);
  out.push_back(static_cast<char>(kTraceBinaryVersion));
  walk_records(events, [&out](std::uint8_t type,
                              std::span<const std::uint8_t> payload) {
    std::array<std::uint8_t, 1 + kMaxVarint> head{type};
    const std::uint8_t* end = put_varint(head.data() + 1, payload.size());
    out.append(reinterpret_cast<const char*>(head.data()),
               static_cast<std::size_t>(end - head.data()));
    out.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  });
  out.push_back(static_cast<char>(kRecEnd));
  out.push_back('\0');  // end trailer length
  return out;
}

void export_binary(std::ostream& os, const std::vector<Event>& events) {
  const std::string bytes = encode_binary(events);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t record_bytes(const std::vector<Event>& events) {
  std::uint64_t n = 0;
  walk_records(events, [&n](std::uint8_t,
                            std::span<const std::uint8_t> payload) {
    n += 1 + varint_size(payload.size()) + payload.size();
  });
  return n;
}

std::vector<Event> TraceReader::decode(std::string_view bytes,
                                       BinaryStats* stats) {
  BinaryStats local;
  BinaryStats& st = stats != nullptr ? *stats : local;
  st = BinaryStats{};
  std::vector<Event> out;

  const auto fail = [&st](BinaryError err, std::size_t off) {
    st.error = err;
    st.error_offset = off;
  };
  if (!looks_binary(bytes)) {
    fail(BinaryError::kBadMagic, 0);
    return out;
  }
  if (bytes.size() < kTraceHeaderSize ||
      static_cast<std::uint8_t>(bytes[kTraceMagic.size()]) !=
          kTraceBinaryVersion) {
    fail(BinaryError::kBadVersion, kTraceMagic.size());
    return out;
  }

  Cursor c{reinterpret_cast<const unsigned char*>(bytes.data()),
           bytes.size(), kTraceHeaderSize};
  std::vector<std::string> strings;
  bool saw_end = false;
  while (c.left() > 0) {
    const std::size_t rec_off = c.off;
    const std::uint8_t type = c.u8();
    std::uint64_t len = 0;
    if (!read_varint(c, len)) {
      fail(BinaryError::kTruncated, rec_off);
      return out;
    }
    if (len > kTraceMaxRecordLen) {
      fail(BinaryError::kOverLength, rec_off);
      return out;
    }
    if (len > c.left()) {
      fail(BinaryError::kTruncated, rec_off);
      return out;
    }
    const std::span<const std::uint8_t> payload(
        c.p + c.off, static_cast<std::size_t>(len));
    c.off += payload.size();
    switch (type) {
      case kRecStr:
        strings.emplace_back(reinterpret_cast<const char*>(payload.data()),
                             payload.size());
        ++st.strings;
        break;
      case kRecEvent: {
        Event e;
        std::uint32_t detail_id = 0;
        // A string id must name a STR record already read.
        if (!read_event_payload(payload, e, detail_id) ||
            detail_id > strings.size()) {
          fail(BinaryError::kMalformed, rec_off);
          return out;
        }
        if (detail_id != 0) e.detail = strings[detail_id - 1];
        out.push_back(std::move(e));
        ++st.records;
        break;
      }
      case kRecEnd:
        if (len != 0) {
          fail(BinaryError::kMalformed, rec_off);
          return out;
        }
        saw_end = true;
        break;
      default:
        ++st.skipped;  // unknown record type: forward-compat skip
        break;
    }
    if (saw_end) break;
  }
  if (!saw_end) fail(BinaryError::kTruncated, c.off);
  return out;
}

}  // namespace seed::obs

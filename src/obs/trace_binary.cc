#include "obs/trace_binary.h"

#include <cstring>
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

void append_be(std::string& out, std::uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void append_varint(std::string& out, std::uint64_t v) {
  if (v < kVar2ByteFlag) {
    out.push_back(static_cast<char>(v));
  } else if (v <= 0xFFFF) {
    out.push_back(static_cast<char>(kVar2ByteFlag));
    append_be(out, v, 2);
  } else if (v <= 0xFFFFFFFF) {
    out.push_back(static_cast<char>(kVar4ByteFlag));
    append_be(out, v, 4);
  } else {
    out.push_back(static_cast<char>(kVar8ByteFlag));
    append_be(out, v, 8);
  }
}

void append_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

using Intern = std::map<std::string, std::uint32_t, std::less<>>;

std::string_view capped_detail(const Event& e) {
  std::string_view d = e.detail;
  return d.size() > kTraceMaxDetailLen ? d.substr(0, kTraceMaxDetailLen) : d;
}

/// Appends the record(s) for one event: a STR record when its detail is
/// new to the capture, then the EVT record. This single function is the
/// source of truth for both encode_binary and TlvSizer.
void append_event_records(std::string& out, const Event& e, Intern& intern,
                          std::uint32_t& next_string) {
  std::uint32_t detail_id = 0;
  if (!e.detail.empty()) {
    const std::string_view d = capped_detail(e);
    const auto it = intern.find(d);
    if (it != intern.end()) {
      detail_id = it->second;
    } else {
      detail_id = next_string++;
      intern.emplace(std::string(d), detail_id);
      out.push_back(static_cast<char>(kRecStr));
      append_varint(out, d.size());
      out.append(d);
    }
  }

  std::uint8_t flags = 0;
  if (e.ok) flags |= kFlagOk;
  if (e.span != 0) flags |= kFlagSpan;
  if (e.seq != 0) flags |= kFlagSeq;
  if (e.parent != 0) flags |= kFlagParent;
  if (e.ue != 0) flags |= kFlagUe;
  if (e.label != 0) flags |= kFlagLabel;
  if (e.prep_ms != 0.0 || e.trans_ms != 0.0) flags |= kFlagTiming;
  if (detail_id != 0) flags |= kFlagDetail;

  std::string payload;
  payload.reserve(40);
  payload.push_back(static_cast<char>(e.kind));
  payload.push_back(static_cast<char>(e.origin));
  payload.push_back(static_cast<char>(e.plane));
  payload.push_back(static_cast<char>(e.cause));
  payload.push_back(static_cast<char>(e.action));
  payload.push_back(static_cast<char>(e.tier));
  payload.push_back(static_cast<char>(flags));
  append_varint(payload, zigzag(e.at_us));
  if (flags & kFlagSpan) append_varint(payload, e.span);
  if (flags & kFlagSeq) append_varint(payload, e.seq);
  if (flags & kFlagParent) append_varint(payload, e.parent);
  if (flags & kFlagUe) append_varint(payload, e.ue);
  if (flags & kFlagLabel) append_varint(payload, e.label);
  if (flags & kFlagTiming) {
    append_f64(payload, e.prep_ms);
    append_f64(payload, e.trans_ms);
  }
  if (flags & kFlagDetail) append_varint(payload, detail_id);

  out.push_back(static_cast<char>(kRecEvent));
  append_varint(out, payload.size());
  out.append(payload);
}

// ----- decode

struct Cursor {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;

  std::size_t left() const { return n - off; }
  std::uint8_t u8() { return p[off++]; }
};

bool read_be(Cursor& c, int bytes, std::uint64_t& out) {
  if (c.left() < static_cast<std::size_t>(bytes)) return false;
  out = 0;
  for (int i = 0; i < bytes; ++i) out = (out << 8) | c.u8();
  return true;
}

bool read_varint(Cursor& c, std::uint64_t& out) {
  if (c.left() < 1) return false;
  const std::uint8_t b = c.u8();
  if (b < kVar2ByteFlag) {
    out = b;
    return true;
  }
  const int bytes = b == kVar2ByteFlag ? 2 : b == kVar4ByteFlag ? 4 : 8;
  return read_be(c, bytes, out);
}

bool read_f64(Cursor& c, double& out) {
  if (c.left() < 8) return false;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(c.u8()) << (8 * i);
  }
  std::memcpy(&out, &bits, sizeof(out));
  return true;
}

/// Decodes one EVT payload; false on any validation failure (the record
/// then counts as malformed, never partially applied).
bool decode_event(Cursor c, const std::vector<std::string>& strings,
                  Event& e) {
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
  if (flags & kFlagSpan) {
    if (!read_varint(c, v)) return false;
    e.span = v;
  }
  if (flags & kFlagSeq) {
    if (!read_varint(c, v)) return false;
    e.seq = v;
  }
  if (flags & kFlagParent) {
    if (!read_varint(c, v)) return false;
    e.parent = v;
  }
  if (flags & kFlagUe) {
    if (!read_varint(c, v)) return false;
    e.ue = static_cast<std::uint32_t>(v);
  }
  if (flags & kFlagLabel) {
    if (!read_varint(c, v)) return false;
    e.label = static_cast<std::uint32_t>(v);
  }
  if (flags & kFlagTiming) {
    if (!read_f64(c, e.prep_ms)) return false;
    if (!read_f64(c, e.trans_ms)) return false;
  }
  if (flags & kFlagDetail) {
    if (!read_varint(c, v)) return false;
    if (v == 0 || v > strings.size()) return false;  // unresolved id
    e.detail = strings[v - 1];
  }
  return c.left() == 0;  // payload exactly consumed
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

std::string encode_binary(const std::vector<Event>& events) {
  std::string out;
  // ~24 bytes/event is the steady-state record cost; over-reserving a
  // little beats reallocating a metro-scale capture.
  out.reserve(kTraceHeaderSize + 2 + events.size() * 28);
  out.append(kTraceMagic);
  out.push_back(static_cast<char>(kTraceBinaryVersion));
  Intern intern;
  std::uint32_t next_string = 1;
  for (const Event& e : events) {
    append_event_records(out, e, intern, next_string);
  }
  out.push_back(static_cast<char>(kRecEnd));
  out.push_back('\0');  // end trailer length
  return out;
}

void export_binary(std::ostream& os, const std::vector<Event>& events) {
  const std::string bytes = encode_binary(events);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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
    const Cursor payload{c.p, c.off + static_cast<std::size_t>(len), c.off};
    c.off += static_cast<std::size_t>(len);
    switch (type) {
      case kRecStr:
        strings.emplace_back(
            reinterpret_cast<const char*>(payload.p) + payload.off,
            static_cast<std::size_t>(len));
        ++st.strings;
        break;
      case kRecEvent: {
        Event e;
        if (!decode_event(payload, strings, e)) {
          fail(BinaryError::kMalformed, rec_off);
          return out;
        }
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

std::size_t TlvSizer::add(const Event& e) {
  scratch_.clear();
  append_event_records(scratch_, e, intern_, next_string_);
  bytes_ += scratch_.size();
  return scratch_.size();
}

void TlvSizer::reset() {
  intern_.clear();
  next_string_ = 1;
  bytes_ = 0;
  scratch_.clear();
  scratch_.shrink_to_fit();
}

}  // namespace seed::obs

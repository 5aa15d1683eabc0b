// Binary TLV trace encoding (the scalable half of the trace plane).
//
// JSONL is the debuggable interchange format, but at metro scale it
// costs ~150 bytes per event; this codec stores the same Event stream in
// a compact TLV capture (~27-30 bytes/event on the storms) that
// round-trips *exactly*: decode(encode(events)) == events, field for
// field and bit for bit, including arbitrary bytes in `detail`.
//
// Capture layout (all multi-byte lengths/ids use the NDN-style varint of
// the ccache socket-backend TLV protocol; f64 fields are IEEE-754
// little-endian):
//
//   header   := "SEEDTRC" version:u8            (8 bytes, version = 1)
//   capture  := header record* end
//   record   := type:u8 length:varint payload[length]
//   end      := 0xFF 0x00                       (explicit trailer: its
//                                                absence means truncation)
//
// Record types:
//   0x01 STR  payload = raw bytes of an interned string. Ids are
//             implicit: the Nth STR record in the capture defines id N
//             (1-based). Every distinct `detail` value is written once
//             and referenced by id — the per-capture string-intern table.
//   0x02 EVT  payload = one Event (layout below).
//   others    skipped and counted (forward compatibility).
//
// EVT payload:
//   kind:u8 origin:u8 plane:u8 cause:u8 action:u8 tier:u8 flags:u8
//   at_us:varint (zigzag)
//   [span:varint]    flags & 0x02      [seq:varint]     flags & 0x04
//   [parent:varint]  flags & 0x08      [ue:varint]      flags & 0x10
//   [label:varint]   flags & 0x20
//   [prep_ms:f64 trans_ms:f64]         flags & 0x40
//   [detail string id:varint]          flags & 0x80
//   flags & 0x01 = ok. Optional groups mirror export_jsonl's
//   emit-only-when-set rule, so the common event costs no dead bytes;
//   the timing pair is written unless both values are +0.0, so -0.0
//   survives. `ue`, `label` and the detail id are u32 values: a wider
//   varint there is a malformed record.
//
// The EVT payload is also the tracer's in-memory record: a tail-retention
// ring stores each buffered event as a length byte and its payload (see
// Tracer::set_retention), written and read by the same
// write_event_payload/read_event_payload pair as a capture.
//
// Version/compat rules: the version byte bumps on any layout change that
// an old reader would misparse (new flag bits, field width changes);
// appending new record types or new EventKind/Origin values does NOT
// bump it — unknown record types are skipped, but an unknown kind/origin
// *value* inside an EVT is a malformed record, exactly as an unknown
// kind name is malformed JSONL.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace seed::obs {

inline constexpr std::string_view kTraceMagic = "SEEDTRC";
inline constexpr std::uint8_t kTraceBinaryVersion = 1;
inline constexpr std::size_t kTraceHeaderSize = 8;

/// Longest EVT payload: 7 fixed bytes, at_us/span/seq/parent as 9-byte
/// varints, ue/label/detail id as 5-byte varints and two f64 timings.
inline constexpr std::size_t kTraceMaxEventPayload = 7 + 4 * 9 + 3 * 5 + 16;
/// Sanity cap on a single record's declared length. A length above this
/// is a corrupt length field (kOverLength), not a big record: the
/// longest legal record is an EVT (a payload of at most
/// kTraceMaxEventPayload = 74 bytes) or a max-length STR.
inline constexpr std::size_t kTraceMaxRecordLen = 1u << 20;
/// Longest encodable `detail` string. Real details are short (log lines,
/// verdict tokens); the encoder truncates beyond this, so round-trip
/// exactness is guaranteed for details up to the cap.
inline constexpr std::size_t kTraceMaxDetailLen = 65535;

enum class BinaryError : std::uint8_t {
  kNone = 0,
  kBadMagic,    // missing "SEEDTRC" prefix, or capture shorter than it
  kBadVersion,  // magic ok, version byte unknown to this reader
  kTruncated,   // stream ended mid-record, or the end trailer is missing
  kOverLength,  // a record declares a length beyond kTraceMaxRecordLen
  kMalformed,   // an EVT payload failed validation (bad kind/origin,
                // unresolved string id, length/payload mismatch)
};

std::string_view binary_error_name(BinaryError e);

/// Decode bookkeeping (the binary counterpart of ImportStats). On error,
/// `error_offset` is the byte offset of the record that failed and the
/// returned events are the valid prefix.
struct BinaryStats {
  std::size_t records = 0;  // EVT records decoded
  std::size_t strings = 0;  // STR records interned
  std::size_t skipped = 0;  // unknown record types skipped
  BinaryError error = BinaryError::kNone;
  std::size_t error_offset = 0;
};

/// True when `bytes` starts with the capture magic — the format
/// auto-detection used by trace_summary (a bad *version* still looks
/// binary, so it is diagnosed as kBadVersion rather than parsed as
/// JSONL).
bool looks_binary(std::string_view bytes);

/// One EVT payload buffer, large enough for any event.
using EventPayload = std::array<std::uint8_t, kTraceMaxEventPayload>;

/// Writes `e`'s EVT payload to `out`, with `detail_id` standing for its
/// detail (0 = none), and returns the payload's length.
std::size_t write_event_payload(const Event& e, std::uint32_t detail_id,
                                EventPayload& out);
/// Reads one EVT payload into every field of `e` but `detail`, whose
/// string id (0 = none) goes to `detail_id` for the caller to resolve.
/// False when the payload fails validation: an unknown kind or origin, a
/// u32 field wider than 32 bits, or bytes left over or missing.
bool read_event_payload(std::span<const std::uint8_t> payload, Event& e,
                        std::uint32_t& detail_id);

/// Encodes `events` as one capture (header + records + end trailer).
std::string encode_binary(const std::vector<Event>& events);
void export_binary(std::ostream& os, const std::vector<Event>& events);
/// The record bytes encode_binary(events) writes: the capture without its
/// header and end trailer, so per-shard totals sum. Counted with the
/// encoder's own record walk, without building the capture.
std::uint64_t record_bytes(const std::vector<Event>& events);

/// Decodes a capture back to the Event stream Tracer recorded. Stops at
/// the first structural error, reporting it through `stats` and
/// returning every event decoded before it.
class TraceReader {
 public:
  static std::vector<Event> decode(std::string_view bytes,
                                   BinaryStats* stats = nullptr);
};

}  // namespace seed::obs

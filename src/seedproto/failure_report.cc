#include "seedproto/failure_report.h"

#include <stdexcept>

#include "common/codec.h"
#include "obs/prof.h"

namespace seed::proto {

namespace {
constexpr std::size_t kMaxLabel = 63;  // DNS-style label limit
// Payload capacity per DNN fragment (one 63-byte + one 29-byte label);
// pack() never exceeds it and feed_view() rejects anything larger.
constexpr std::size_t kPerDnnPayload = 92;
const Bytes kDiagTag = {'D', 'I', 'A', 'G'};
}  // namespace

std::string_view failure_type_name(FailureType t) {
  switch (t) {
    case FailureType::kDns: return "DNS";
    case FailureType::kTcp: return "TCP";
    case FailureType::kUdp: return "UDP";
    case FailureType::kNoConnection: return "NO-CONNECTION";
  }
  return "invalid";
}

Bytes FailureReport::encode() const {
  Writer w;
  encode_into(w);
  return std::move(w).take();
}

void FailureReport::encode_into(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>(direction));
  std::uint8_t flags = 0;
  if (addr) flags |= 0x01;
  if (port) flags |= 0x02;
  if (!domain.empty()) flags |= 0x04;
  w.u8(flags);
  if (addr) addr->encode(w);
  if (port) w.u16(*port);
  if (!domain.empty()) {
    const std::size_t body = w.lv8_begin();
    w.str(domain);
    w.lv8_end(body);
  }
}

std::optional<FailureReport> FailureReport::decode(BytesView data) {
  Reader r(data);
  FailureReport f;
  const std::uint8_t type = r.u8();
  if (type < 1 || type > 4) return std::nullopt;
  f.type = static_cast<FailureType>(type);
  const std::uint8_t dir = r.u8();
  if (dir < 1 || dir > 3) return std::nullopt;
  f.direction = static_cast<TrafficDirection>(dir);
  const std::uint8_t flags = r.u8();
  if (flags & ~0x07) return std::nullopt;
  if (flags & 0x01) {
    f.addr = nas::Ipv4::decode(r);
    if (!f.addr) return std::nullopt;
  }
  if (flags & 0x02) f.port = r.u16();
  if (flags & 0x04) {
    f.domain = to_string(r.lv8());
    if (f.domain.empty()) return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return f;
}

bool DiagDnnCodec::is_diag(const nas::Dnn& dnn) {
  if (dnn.labels().empty()) return false;
  const Bytes& first = dnn.labels()[0];
  if (first.size() < kDiagTag.size()) return false;
  return std::equal(kDiagTag.begin(), kDiagTag.end(), first.begin());
}

// DNN fragment layout:
//   label 0: "DIAG" + 1 header byte (seq << 4 | total)
//   labels 1..: payload slices, each <= 63 bytes.
// Per-DNN payload budget: kMaxWireSize(100) - (1 + 5 label0) = 94 bytes of
// label space; each payload label costs 1 length byte.
std::vector<nas::Dnn> DiagDnnCodec::pack(BytesView frame) {
  PROF_ZONE("seedproto.fragment");
  PROF_BYTES(frame.size());
  // Payload capacity per DNN: remaining wire budget minus per-label length
  // bytes. With 94 bytes of wire left we fit one 63-byte label (64 wire)
  // and one 29-byte label (30 wire) = 92 payload bytes... keep it simple:
  // two labels max, capacity = 63 + 29 = 92 (kPerDnnPayload).
  const std::size_t total =
      frame.empty() ? 1 : (frame.size() + kPerDnnPayload - 1) / kPerDnnPayload;
  if (total > 15) {
    throw std::length_error("DiagDnnCodec: report too large (15 DNN max)");
  }
  std::vector<nas::Dnn> out;
  std::size_t pos = 0;
  for (std::size_t seq = 0; seq < total; ++seq) {
    Bytes head = kDiagTag;
    head.push_back(static_cast<std::uint8_t>((seq << 4) | total));
    std::vector<Bytes> labels = {head};
    std::size_t budget = std::min(kPerDnnPayload, frame.size() - pos);
    while (budget > 0) {
      const std::size_t n = std::min(budget, kMaxLabel);
      labels.emplace_back(frame.begin() + static_cast<std::ptrdiff_t>(pos),
                          frame.begin() + static_cast<std::ptrdiff_t>(pos + n));
      pos += n;
      budget -= n;
    }
    nas::Dnn dnn = nas::Dnn::from_labels(std::move(labels));
    if (dnn.wire_size() > nas::Dnn::kMaxWireSize) {
      throw std::logic_error("DiagDnnCodec: exceeded DNN wire budget");
    }
    out.push_back(std::move(dnn));
  }
  return out;
}

std::optional<BytesView> DiagDnnCodec::Reassembler::feed_view(
    const nas::Dnn& dnn) {
  PROF_ZONE("seedproto.reassemble");
  PROF_BYTES(dnn.wire_size());
  last_rejected_ = false;
  if (!is_diag(dnn) || dnn.labels()[0].size() != kDiagTag.size() + 1) {
    return reject();
  }
  const std::uint8_t header = dnn.labels()[0][kDiagTag.size()];
  const std::uint8_t seq = header >> 4;
  const std::uint8_t total = header & 0x0f;
  // A multi-fragment frame always carries payload labels; a bare header
  // mid-stream is a truncated fragment — drop the transfer rather than
  // mis-assemble (the sender re-requests on the next ACK round).
  if (total > 1 && dnn.labels().size() < 2) return reject();
  const Admit admitted = admit(seq, total);
  if (admitted == Admit::kReject) return reject();
  if (admitted == Admit::kDuplicate) return std::nullopt;
  // Audit hardening: pack() emits at most kPerDnnPayload (92) payload
  // bytes per DNN in labels of <= kMaxLabel bytes. Without the bound a
  // forged fragment could grow the frame far past any packed report and
  // feed downstream decoders attacker-sized input.
  std::size_t payload = 0;
  for (std::size_t i = 1; i < dnn.labels().size(); ++i) {
    const Bytes& l = dnn.labels()[i];
    if (l.size() > kMaxLabel) return reject();
    payload += l.size();
  }
  if (payload > kPerDnnPayload) return reject();
  for (std::size_t i = 1; i < dnn.labels().size(); ++i) {
    const Bytes& l = dnn.labels()[i];
    buffer_.insert(buffer_.end(), l.begin(), l.end());
  }
  if (!complete()) return std::nullopt;
  return BytesView(buffer_.data(), buffer_.size());
}

}  // namespace seed::proto

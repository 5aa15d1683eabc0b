// Property-style sweeps across the protocol surfaces: randomized message
// round-trips, reassembler interleavings, CMAC/CTR length sweeps,
// cause-code exhaustive encodes, SUCI identity resolution, tail-based
// trace retention and the health engine's window percentile.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "corenet/subscriber.h"
#include "crypto/cmac.h"
#include "crypto/ctr.h"
#include "crypto/security_context.h"
#include "metrics/stats.h"
#include "nas/messages.h"
#include "obs/trace.h"
#include "obs/trace_binary.h"
#include "seedproto/diag_payload.h"
#include "seedproto/failure_report.h"
#include "simcore/rng.h"
#include "simcore/time.h"

#ifndef SEED_GOLDEN_DIR
#error "SEED_GOLDEN_DIR must point at tests/golden"
#endif

namespace seed {
namespace {

bool g_update_golden = false;

crypto::Key128 k0() {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) k[i] = static_cast<std::uint8_t>(i);
  return k;
}

// ------------------------------------------------------------- crypto

class CmacLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CmacLengthSweep, TagChangesWithAnySingleBitFlip) {
  sim::Rng rng(GetParam() * 31 + 1);
  Bytes m(GetParam());
  for (auto& b : m) b = static_cast<std::uint8_t>(rng.next());
  const auto tag = crypto::aes_cmac(k0(), m);
  if (m.empty()) return;
  // Flip one random bit: the tag must change (128-bit CMAC collision on a
  // 1-bit flip would be a real bug, not bad luck).
  Bytes mutated = m;
  const auto pos = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(m.size()) - 1));
  mutated[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
  EXPECT_NE(crypto::aes_cmac(k0(), mutated), tag) << "len " << GetParam();
}


INSTANTIATE_TEST_SUITE_P(Lengths, CmacLengthSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 63,
                                           64, 65, 100, 255, 256, 1000));

class CtrLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CtrLengthSweep, DecryptInvertsEncrypt) {
  sim::Rng rng(GetParam() * 17 + 3);
  Bytes pt(GetParam());
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
  const Bytes ct = crypto::eea2_crypt(k0(), 42, 7, 1, pt);
  EXPECT_EQ(crypto::eea2_crypt(k0(), 42, 7, 1, ct), pt);
  if (!pt.empty()) {
    // Keystream must differ across counter values (no reuse).
    EXPECT_NE(crypto::eea2_crypt(k0(), 43, 7, 1, pt), ct);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CtrLengthSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 32, 100, 1024));

// Batched CTR vs the retained scalar reference: every length 0..256
// (covering non-block-multiple tails and whole batches) and in-place
// operation must be byte-identical.
TEST(CtrBatchedProperty, MatchesScalarReferenceForAllLengths) {
  const crypto::Aes128 aes(k0());
  sim::Rng rng(101);
  for (std::size_t len = 0; len <= 256; ++len) {
    Bytes in(len);
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
    crypto::Block ctr{};
    for (auto& b : ctr) b = static_cast<std::uint8_t>(rng.next());
    const Bytes scalar = crypto::aes_ctr_ref(k0(), ctr, in);
    ASSERT_EQ(crypto::aes_ctr(k0(), ctr, in), scalar) << "len " << len;
    // In-place XOR (out aliases in) must produce the same bytes.
    Bytes inplace = in;
    crypto::aes_ctr_xor(aes, ctr, inplace, inplace.data());
    ASSERT_EQ(inplace, scalar) << "len " << len;
  }
}

TEST(CtrBatchedProperty, CounterWrapBoundariesMatchScalarReference) {
  sim::Rng rng(202);
  Bytes in(16 * 17 + 5);  // spans multiple batches plus a partial tail
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
  // Initial counters whose low 1..16 bytes are all 0xff: the increment
  // wraps through progressively wider carry chains mid-stream.
  for (std::size_t ff = 1; ff <= 16; ++ff) {
    crypto::Block ctr{};
    for (auto& b : ctr) b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t i = 16 - ff; i < 16; ++i) ctr[i] = 0xff;
    EXPECT_EQ(crypto::aes_ctr(k0(), ctr, in),
              crypto::aes_ctr_ref(k0(), ctr, in))
        << "ff-tail " << ff;
  }
}

TEST(CtrIncrement, WrapsBigEndianCarries) {
  crypto::Block c{};
  c.fill(0xff);
  crypto::ctr_increment_be(c);
  const crypto::Block zero{};
  EXPECT_EQ(c, zero);  // full 128-bit wrap
  crypto::Block d{};
  d[15] = 0xff;
  crypto::ctr_increment_be(d);
  crypto::Block expect{};
  expect[14] = 0x01;
  EXPECT_EQ(d, expect);  // single-byte carry
}

// AES backends on random keys and blocks. Aes128 (whichever backend the
// CPU check picked) must match the portable reference everywhere; the
// AES-NI pair is also held to it directly, key schedule and ciphertext.
constexpr int kAesPairs = 10000;

void random_pair(sim::Rng& rng, crypto::Key128& key, crypto::Block& block) {
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
}

TEST(AesBackendProperty, Aes128MatchesPortableReference) {
  sim::Rng rng(197);
  for (int i = 0; i < kAesPairs; ++i) {
    crypto::Key128 key{};
    crypto::Block block{};
    random_pair(rng, key, block);
    crypto::RoundKeys ref{};
    crypto::detail::expand_key_portable(key, ref);
    const crypto::Block got = crypto::Aes128(key).encrypt(block);
    crypto::detail::encrypt_block_portable(ref, block);
    ASSERT_EQ(got, block) << "pair " << i;
  }
}

TEST(AesBackendProperty, HardwareMatchesPortable) {
  if (!crypto::detail::hardware_aes()) {
    GTEST_SKIP() << "CPU has no AES instructions";
  }
  sim::Rng rng(198);
  for (int i = 0; i < kAesPairs; ++i) {
    crypto::Key128 key{};
    crypto::Block block{};
    random_pair(rng, key, block);
    crypto::RoundKeys ref{}, hw{};
    crypto::detail::expand_key_portable(key, ref);
    crypto::detail::expand_key_hw(key, hw);
    ASSERT_EQ(hw, ref) << "pair " << i;
    crypto::Block want = block;
    crypto::detail::encrypt_block_portable(ref, want);
    crypto::detail::encrypt_block_hw(hw, block);
    ASSERT_EQ(block, want) << "pair " << i;
  }
}

TEST(SecurityContextProperty, ManyMessagesSurviveInOrderDelivery) {
  crypto::SecurityContext tx(k0(), 7), rx(k0(), 7);
  sim::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    Bytes msg(static_cast<std::size_t>(rng.uniform_int(0, 80)));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    const auto got =
        rx.unprotect(tx.protect(msg, crypto::Direction::kUplink),
                     crypto::Direction::kUplink);
    ASSERT_TRUE(got.has_value()) << "message " << i;
    EXPECT_EQ(*got, msg);
  }
}

// -------------------------------------------------------- NAS messages

// One kind per NAS message type. Kinds 6.. set each optional IE at random.
constexpr int kNasMessageKinds = 23;

std::uint8_t random_u8(sim::Rng& rng, int lo = 0, int hi = 255) {
  return static_cast<std::uint8_t>(rng.uniform_int(lo, hi));
}

nas::PlmnId random_plmn(sim::Rng& rng) {
  return {static_cast<std::uint16_t>(rng.uniform_int(1, 999)),
          static_cast<std::uint16_t>(rng.uniform_int(0, 999))};
}

nas::Tai random_tai(sim::Rng& rng) {
  const nas::PlmnId plmn = random_plmn(rng);
  return {plmn, static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffff))};
}

nas::Guti random_guti(sim::Rng& rng) {
  nas::Guti g;
  g.plmn = random_plmn(rng);
  g.amf_region = random_u8(rng);
  g.amf_set = static_cast<std::uint16_t>(rng.uniform_int(0, 0x3ff));
  g.tmsi = static_cast<std::uint32_t>(rng.next());
  return g;
}

nas::SNssai random_snssai(sim::Rng& rng) {
  nas::SNssai s;
  s.sst = random_u8(rng, 1, 4);
  if (rng.chance(0.5)) {
    s.sd = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffff));
  }
  return s;
}

nas::Ipv4 random_ipv4(sim::Rng& rng) {
  nas::Ipv4 ip;
  for (auto& o : ip.octets) o = random_u8(rng);
  return ip;
}

nas::QosRule random_qos(sim::Rng& rng) {
  nas::QosRule q;
  q.fiveqi = random_u8(rng);
  q.mbr_ul_kbps = static_cast<std::uint32_t>(rng.next());
  q.mbr_dl_kbps = static_cast<std::uint32_t>(rng.next());
  return q;
}

nas::Tft random_tft(sim::Rng& rng) {
  nas::Tft t;
  t.op = static_cast<nas::Tft::Operation>(rng.uniform_int(1, 5));
  for (int i = 0; i < rng.uniform_int(0, 2); ++i) {
    nas::PacketFilter f;
    f.id = random_u8(rng, 0, 15);
    f.direction =
        static_cast<nas::PacketFilter::Direction>(rng.uniform_int(1, 3));
    f.precedence = random_u8(rng);
    if (rng.chance(0.5)) {
      f.protocol = rng.chance(0.5) ? nas::IpProtocol::kTcp
                                   : nas::IpProtocol::kUdp;
    }
    if (rng.chance(0.5)) f.remote_addr = random_ipv4(rng);
    if (rng.chance(0.5)) {
      f.remote_port_lo = static_cast<std::uint16_t>(rng.uniform_int(0, 1000));
      f.remote_port_hi = static_cast<std::uint16_t>(
          *f.remote_port_lo + rng.uniform_int(0, 1000));
    }
    t.filters.push_back(f);
  }
  return t;
}

nas::SmHeader random_sm_header(sim::Rng& rng) {
  return {random_u8(rng, 1, 15), random_u8(rng, 1, 254)};
}

nas::NasMessage random_message_of(sim::Rng& rng, std::int64_t kind) {
  switch (kind) {
    case 0: {
      nas::RegistrationRequest m;
      m.identity.kind = nas::MobileIdentity::Kind::kSuci;
      m.identity.suci = {{static_cast<std::uint16_t>(rng.uniform_int(1, 999)),
                          static_cast<std::uint16_t>(rng.uniform_int(0, 999))},
                         std::to_string(rng.uniform_int(0, 999999999))};
      for (int i = 0; i < rng.uniform_int(0, 3); ++i) {
        m.requested_nssai.push_back(nas::SNssai{
            static_cast<std::uint8_t>(rng.uniform_int(1, 4)),
            rng.chance(0.5) ? std::optional<std::uint32_t>(
                                  static_cast<std::uint32_t>(
                                      rng.uniform_int(0, 0xffffff)))
                            : std::nullopt});
      }
      return m;
    }
    case 1: {
      nas::RegistrationReject m;
      m.cause = static_cast<std::uint8_t>(rng.uniform_int(1, 120));
      if (rng.chance(0.5)) {
        m.t3502_seconds = static_cast<std::uint32_t>(rng.uniform_int(0, 7200));
      }
      return m;
    }
    case 2: {
      nas::AuthenticationRequest m;
      m.ngksi = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
      for (auto& b : m.rand) b = static_cast<std::uint8_t>(rng.next());
      for (auto& b : m.autn) b = static_cast<std::uint8_t>(rng.next());
      return m;
    }
    case 3: {
      nas::PduSessionEstablishmentRequest m;
      m.hdr = {static_cast<std::uint8_t>(rng.uniform_int(1, 15)),
               static_cast<std::uint8_t>(rng.uniform_int(1, 254))};
      m.type = static_cast<nas::PduSessionType>(rng.uniform_int(1, 5));
      m.ssc = static_cast<nas::SscMode>(rng.uniform_int(1, 3));
      m.dnn = nas::Dnn(rng.chance(0.5) ? "internet" : "ims.carrier.net");
      return m;
    }
    case 4: {
      nas::PduSessionEstablishmentReject m;
      m.hdr = {static_cast<std::uint8_t>(rng.uniform_int(1, 15)),
               static_cast<std::uint8_t>(rng.uniform_int(1, 254))};
      m.cause = static_cast<std::uint8_t>(rng.uniform_int(1, 120));
      return m;
    }
    case 5: {
      nas::PduSessionModificationCommand m;
      m.hdr = {static_cast<std::uint8_t>(rng.uniform_int(1, 15)), 0};
      if (rng.chance(0.5)) {
        m.dns_addr = nas::Ipv4{{9, 9, 9, 9}};
      }
      return m;
    }
    case 6: {
      nas::RegistrationAccept m;
      m.guti = random_guti(rng);
      for (int i = 0; i < rng.uniform_int(0, 2); ++i) {
        m.tai_list.push_back(random_tai(rng));
      }
      for (int i = 0; i < rng.uniform_int(0, 2); ++i) {
        m.allowed_nssai.push_back(random_snssai(rng));
      }
      m.t3512_seconds = static_cast<std::uint32_t>(rng.next());
      return m;
    }
    case 7: return nas::DeregistrationRequest{rng.chance(0.5)};
    case 8: return nas::ServiceRequest{random_u8(rng, 0, 1)};
    case 9: return nas::ServiceAccept{};
    case 10: return nas::ServiceReject{random_u8(rng)};
    case 11: {
      nas::AuthenticationResponse m;
      m.res.resize(static_cast<std::size_t>(rng.uniform_int(4, 16)));
      for (auto& b : m.res) b = random_u8(rng);
      return m;
    }
    case 12: return nas::AuthenticationReject{};
    case 13: {
      nas::AuthenticationFailure m;
      m.cause = random_u8(rng, 20, 21);
      if (rng.chance(0.5)) {
        std::array<std::uint8_t, 14> auts{};
        for (auto& b : auts) b = random_u8(rng);
        m.auts = auts;
      }
      return m;
    }
    case 14: return nas::SecurityModeCommand{random_u8(rng, 0, 3),
                                             random_u8(rng, 0, 3)};
    case 15: return nas::SecurityModeComplete{};
    case 16: {
      nas::ConfigurationUpdateCommand m;
      if (rng.chance(0.5)) m.guti = random_guti(rng);
      for (int i = 0; i < rng.uniform_int(0, 2); ++i) {
        m.tai_list.push_back(random_tai(rng));
      }
      return m;
    }
    case 17: {
      nas::PduSessionEstablishmentAccept m;
      m.hdr = random_sm_header(rng);
      m.type = static_cast<nas::PduSessionType>(rng.uniform_int(1, 5));
      m.ue_addr = random_ipv4(rng);
      m.dns_addr = random_ipv4(rng);
      m.qos = random_qos(rng);
      if (rng.chance(0.5)) m.tft = random_tft(rng);
      return m;
    }
    case 18: {
      nas::PduSessionModificationRequest m;
      m.hdr = random_sm_header(rng);
      if (rng.chance(0.5)) m.tft = random_tft(rng);
      if (rng.chance(0.5)) m.qos = random_qos(rng);
      return m;
    }
    case 19: return nas::PduSessionModificationReject{random_sm_header(rng),
                                                      random_u8(rng)};
    case 20: return nas::PduSessionReleaseRequest{random_sm_header(rng)};
    case 21: return nas::PduSessionReleaseCommand{random_sm_header(rng),
                                                  random_u8(rng)};
    default: return nas::PduSessionReleaseComplete{random_sm_header(rng)};
  }
}

nas::NasMessage random_message(sim::Rng& rng) {
  return random_message_of(rng, rng.uniform_int(0, kNasMessageKinds - 1));
}

// The decode fixed point decode(encode(decode(w))) == decode(w), checked
// on the re-encoding: an accepted wire's decode re-encodes to bytes that
// decode and re-encode to themselves. The re-encoding may differ from
// the wire itself where the decoder ignored a repeated IE or filter
// component (TS 24.501 clause 7.6.3: the first occurrence wins).
::testing::AssertionResult decode_fixed_point(const nas::NasMessage& decoded) {
  const Bytes canon = nas::encode_message(decoded);
  const auto again = nas::decode_message(canon);
  if (!again) return ::testing::AssertionFailure() << "re-encoding rejected";
  if (nas::encode_message(*again) != canon) {
    return ::testing::AssertionFailure() << "re-encoding is not a fixed point";
  }
  return ::testing::AssertionSuccess();
}

TEST(NasProperty, RandomMessagesRoundTripCanonically) {
  sim::Rng rng(1234);
  for (int i = 0; i < 3000; ++i) {
    const nas::NasMessage msg = random_message(rng);
    const Bytes wire = nas::encode_message(msg);
    const auto decoded = nas::decode_message(wire);
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    // Canonical form: re-encoding the decode reproduces the wire bytes.
    EXPECT_EQ(nas::encode_message(*decoded), wire) << "iteration " << i;
    EXPECT_EQ(nas::message_type(*decoded), nas::message_type(msg));
  }
}

TEST(NasProperty, EncodeIntoMatchesEncodeAndReusesScratch) {
  sim::Rng rng(555);
  Bytes scratch;
  scratch.reserve(512);
  const std::uint8_t* storage = scratch.data();
  for (int i = 0; i < 2000; ++i) {
    const nas::NasMessage msg = random_message(rng);
    const Bytes wire = nas::encode_message(msg);
    const BytesView view = nas::encode_message_into(msg, scratch);
    ASSERT_EQ(Bytes(view.begin(), view.end()), wire) << "iteration " << i;
    // A warmed-up scratch never reallocates.
    EXPECT_EQ(scratch.data(), storage) << "iteration " << i;
  }
}

TEST(NasProperty, RandomBytesNeverCrashDecoder) {
  sim::Rng rng(4321);
  for (int i = 0; i < 5000; ++i) {
    Bytes junk(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    const auto decoded = nas::decode_message(junk);
    if (decoded) {
      EXPECT_TRUE(decode_fixed_point(*decoded));
    }
  }
}

// ------------------------------------- bit-flip fuzz (chaos hardening)

// Applies 1-4 random bit flips, sometimes followed by a truncation, to a
// valid wire buffer — the corruption model of the chaos layer's impaired
// collaboration channel.
Bytes mutate(sim::Rng& rng, Bytes wire) {
  if (wire.empty()) return wire;
  const int flips = static_cast<int>(rng.uniform_int(1, 4));
  for (int f = 0; f < flips; ++f) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
    wire[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
  }
  if (rng.chance(0.2)) {
    wire.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))));
  }
  return wire;
}

// >= 10k mutated buffers per NAS message type: the decoder must neither
// crash nor over-read (the ASan/UBSan CI job gives this teeth), and
// anything it accepts must be a decode fixed point.
TEST(NasProperty, BitFlippedWireNeverCrashesDecoderPerType) {
  for (int kind = 0; kind < kNasMessageKinds; ++kind) {
    sim::Rng rng(7001 + kind * 131);
    for (int i = 0; i < 10000; ++i) {
      const Bytes wire =
          mutate(rng, nas::encode_message(random_message_of(rng, kind)));
      const auto decoded = nas::decode_message(wire);
      if (decoded) {
        ASSERT_TRUE(decode_fixed_point(*decoded))
            << "kind " << kind << " iteration " << i;
      }
    }
  }
}

TEST(DiagInfoProperty, BitFlippedBuffersNeverCrashDecoder) {
  sim::Rng rng(7777);
  for (int i = 0; i < 10000; ++i) {
    proto::DiagInfo d;
    d.kind = static_cast<proto::AssistKind>(rng.uniform_int(1, 6));
    d.plane = rng.chance(0.5) ? nas::Plane::kControl : nas::Plane::kData;
    d.cause = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (rng.chance(0.4)) {
      Bytes v(static_cast<std::size_t>(rng.uniform_int(0, 20)));
      for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
      d.config = proto::ConfigPayload{
          static_cast<nas::ConfigKind>(rng.uniform_int(1, 9)), v};
    }
    const auto out = proto::DiagInfo::decode(mutate(rng, d.encode()));
    if (out) {
      // Accepted mutants must still round-trip through their own encode.
      ASSERT_TRUE(proto::DiagInfo::decode(out->encode()).has_value())
          << "iteration " << i;
    }
  }
}

TEST(FailureReportProperty, BitFlippedBuffersNeverCrashDecoder) {
  sim::Rng rng(8888);
  for (int i = 0; i < 10000; ++i) {
    proto::FailureReport f;
    f.type = static_cast<proto::FailureType>(rng.uniform_int(1, 4));
    f.direction =
        static_cast<proto::TrafficDirection>(rng.uniform_int(1, 3));
    if (rng.chance(0.5)) {
      f.port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    }
    if (rng.chance(0.4)) {
      f.domain.assign(static_cast<std::size_t>(rng.uniform_int(1, 60)), 'x');
    }
    const auto out = proto::FailureReport::decode(mutate(rng, f.encode()));
    if (out) {
      ASSERT_TRUE(proto::FailureReport::decode(out->encode()).has_value())
          << "iteration " << i;
    }
  }
}

// Bit-flipped AUTN fragments and DIAG-DNN fragments through the
// reassemblers: never crash, and a clean transfer still succeeds after
// arbitrary corrupted interleavings (reset on the AUTN side).
TEST(ReassemblerProperty, BitFlippedFragmentsNeverCrash) {
  sim::Rng rng(9999);
  Bytes frame(180);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
  const auto autn_frags = proto::AutnCodec::fragment(frame);
  const auto dnn_frags = proto::DiagDnnCodec::pack(frame);
  for (int i = 0; i < 10000; ++i) {
    proto::AutnCodec::Reassembler are;
    auto corrupted = autn_frags[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(autn_frags.size()) - 1))];
    corrupted[rng.uniform_int(0, 15)] ^=
        static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    (void)are.feed(corrupted);
    are.reset();
    std::optional<Bytes> out;
    for (const auto& f : autn_frags) out = are.feed(f);
    ASSERT_TRUE(out.has_value()) << "iteration " << i;
    ASSERT_EQ(*out, frame);

    proto::DiagDnnCodec::Reassembler dre;
    const auto& pick = dnn_frags[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(dnn_frags.size()) - 1))];
    std::vector<Bytes> labels = pick.labels();
    Bytes& lab = labels[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(labels.size()) - 1))];
    if (!lab.empty()) {
      lab[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(lab.size()) - 1))] ^=
          static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    }
    (void)dre.feed(nas::Dnn::from_labels(labels));
  }
}

// ---------------------------------- semantic (field-aware) mutation fuzz

// Every SemanticMutation shape against the AUTN reassembler's zero-copy
// path, injected at a random point of an otherwise clean transfer: no
// crash, and after a reset a clean transfer must still complete. The
// mutated feed must never complete with wrong bytes.
TEST(SemanticFuzz, MutatedAutnFragmentsNeverCrashReassembler) {
  sim::Rng rng(24001);
  proto::AutnCodec::Reassembler re;
  std::vector<std::array<std::uint8_t, 16>> frags;
  for (int i = 0; i < 10000; ++i) {
    Bytes frame(static_cast<std::size_t>(rng.uniform_int(1, 224)));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
    proto::AutnCodec::fragment_into(frame, frags);
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(frags.size()) - 1));
    const auto m = static_cast<chaos::SemanticMutation>(rng.uniform_int(
        0, static_cast<std::int64_t>(chaos::SemanticMutation::kCount) - 1));
    // Clean prefix, then the mutated fragment where the clean one was due.
    for (std::size_t f = 0; f < pick; ++f) (void)re.feed_view(frags[f]);
    auto mutated = frags[pick];
    chaos::apply_semantic_autn(m, mutated.data(), mutated.size());
    const auto out = re.feed_view(mutated);
    if (out) {
      // A length mutation on a non-first fragment lands in payload bytes
      // the reassembler cannot vet (the integrity check downstream does),
      // so completion is legal — but it must never *inflate* the frame.
      ASSERT_LE(out->size(), frame.size())
          << "iteration " << i << " mutation "
          << chaos::semantic_mutation_name(m);
    }
    re.reset();
    std::optional<BytesView> clean;
    for (const auto& f : frags) clean = re.feed_view(f);
    ASSERT_TRUE(clean.has_value()) << "iteration " << i;
    ASSERT_EQ(Bytes(clean->begin(), clean->end()), frame);
  }
}

TEST(SemanticFuzz, MutatedDnnFragmentsNeverCrashReassembler) {
  sim::Rng rng(24002);
  proto::DiagDnnCodec::Reassembler re;
  for (int i = 0; i < 10000; ++i) {
    Bytes frame(static_cast<std::size_t>(rng.uniform_int(1, 400)));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
    const auto dnns = proto::DiagDnnCodec::pack(frame);
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(dnns.size()) - 1));
    const auto m = static_cast<chaos::SemanticMutation>(rng.uniform_int(
        0, static_cast<std::int64_t>(chaos::SemanticMutation::kCount) - 1));
    for (std::size_t f = 0; f < pick; ++f) (void)re.feed_view(dnns[f]);
    std::vector<Bytes> labels = dnns[pick].labels();
    chaos::apply_semantic_dnn(m, labels);
    const auto out = re.feed_view(nas::Dnn::from_labels(labels));
    if (out) {
      // kTruncatedLength drops a trailing payload label, which only the
      // integrity check can catch; the completion must then be a strict
      // prefix of the real frame, never inflated or reordered.
      ASSERT_LE(out->size(), frame.size())
          << "iteration " << i << " mutation "
          << chaos::semantic_mutation_name(m);
      ASSERT_TRUE(std::equal(out->begin(), out->end(), frame.begin()))
          << "iteration " << i << " mutation "
          << chaos::semantic_mutation_name(m);
    }
    re.reset();
    std::optional<BytesView> clean;
    for (const auto& d : dnns) clean = re.feed_view(d);
    ASSERT_TRUE(clean.has_value()) << "iteration " << i;
    ASSERT_EQ(Bytes(clean->begin(), clean->end()), frame);
  }
}

// Decoding with and without an error sink must agree on every mutated
// wire, and the sink must read kNone exactly when the decode succeeds.
TEST(NasProperty, DecodeErrorOverloadConsistentOnMutatedWires) {
  for (int kind = 0; kind < kNasMessageKinds; ++kind) {
    sim::Rng rng(24100 + kind * 17);
    for (int i = 0; i < 10000; ++i) {
      const Bytes wire =
          mutate(rng, nas::encode_message(random_message_of(rng, kind)));
      const auto legacy = nas::decode_message(wire);
      nas::DecodeError err = nas::DecodeError::kBadFieldValue;
      const auto traced = nas::decode_message(wire, &err);
      ASSERT_EQ(legacy.has_value(), traced.has_value())
          << "kind " << kind << " iteration " << i;
      ASSERT_EQ(err == nas::DecodeError::kNone, traced.has_value())
          << "kind " << kind << " iteration " << i << " reason "
          << nas::decode_error_name(err);
    }
  }
}

// ------------------------------------------- NAS decode corpus (golden)

// One minimal instance (no optional IE, empty lists) and one full
// instance (every optional IE set, lists of two) of each message type,
// in NasMessage alternative order.
std::vector<nas::NasMessage> nas_corpus_bases() {
  using namespace nas;
  const PlmnId plmn{310, 260};
  const Tai tai{plmn, 0x00abcd};
  const Tai tai2{{1, 1}, 0xffffff};
  const Guti guti{plmn, 7, 0x3ff, 0xdeadbeef};
  const SNssai s1{1, std::nullopt};
  const SNssai s2{2, 0x0102ab};
  MobileIdentity suci;
  suci.kind = MobileIdentity::Kind::kSuci;
  suci.suci = {plmn, "0000000001"};
  MobileIdentity by_guti;
  by_guti.kind = MobileIdentity::Kind::kGuti;
  by_guti.guti = guti;
  PacketFilter f1;
  f1.id = 1;
  f1.direction = PacketFilter::Direction::kUplink;
  f1.precedence = 10;
  f1.protocol = IpProtocol::kTcp;
  f1.remote_addr = Ipv4{{203, 0, 113, 10}};
  f1.remote_port_lo = 443;
  f1.remote_port_hi = 8443;
  PacketFilter f2;
  f2.id = 2;
  f2.protocol = IpProtocol::kUdp;
  f2.remote_port_lo = 53;
  f2.remote_port_hi = 53;
  const Tft tft{Tft::Operation::kCreateNew, {f1, f2}};
  const QosRule qos{5, 1000, 2000};
  const SmHeader hdr{5, 9};
  const Ipv4 ue{{10, 45, 0, 9}};
  const Ipv4 dns{{10, 45, 0, 1}};
  std::array<std::uint8_t, 16> ones{};
  ones.fill(0xff);
  std::array<std::uint8_t, 16> ramp{};
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::uint8_t>(i * 17);
  }
  std::array<std::uint8_t, 14> auts{};
  auts.fill(0x5e);

  return {
      RegistrationRequest{suci, false, {}, std::nullopt},
      RegistrationRequest{by_guti, true, {s1, s2}, tai},
      RegistrationAccept{guti, {}, {}, 0},
      RegistrationAccept{guti, {tai, tai2}, {s1, s2}, 3240},
      RegistrationReject{3, std::nullopt},
      RegistrationReject{22, 1800},
      DeregistrationRequest{false},
      DeregistrationRequest{true},
      ServiceRequest{0},
      ServiceRequest{1},
      ServiceAccept{},
      ServiceAccept{},
      ServiceReject{9},
      ServiceReject{22},
      AuthenticationRequest{0, {}, {}},
      AuthenticationRequest{7, ones, ramp},
      AuthenticationResponse{Bytes(4, 0xa5)},
      AuthenticationResponse{Bytes(16, 0x5a)},
      AuthenticationReject{},
      AuthenticationReject{},
      AuthenticationFailure{20, std::nullopt},
      AuthenticationFailure{21, auts},
      SecurityModeCommand{0, 0},
      SecurityModeCommand{2, 2},
      SecurityModeComplete{},
      SecurityModeComplete{},
      ConfigurationUpdateCommand{std::nullopt, {}},
      ConfigurationUpdateCommand{guti, {tai, tai2}},
      PduSessionEstablishmentRequest{hdr, PduSessionType::kIpv4,
                                     SscMode::kMode1, Dnn(), std::nullopt},
      PduSessionEstablishmentRequest{hdr, PduSessionType::kIpv4v6,
                                     SscMode::kMode3, Dnn("ims.carrier.net"),
                                     s2},
      PduSessionEstablishmentAccept{hdr, PduSessionType::kIpv4, ue, dns, qos,
                                    std::nullopt},
      PduSessionEstablishmentAccept{hdr, PduSessionType::kEthernet, ue, dns,
                                    qos, tft},
      PduSessionEstablishmentReject{hdr, 27, std::nullopt},
      PduSessionEstablishmentReject{hdr, 26, 60},
      PduSessionModificationRequest{hdr, std::nullopt, std::nullopt},
      PduSessionModificationRequest{hdr, tft, qos},
      PduSessionModificationReject{hdr, 43},
      PduSessionModificationReject{hdr, 31},
      PduSessionModificationCommand{hdr, std::nullopt, std::nullopt,
                                    std::nullopt},
      PduSessionModificationCommand{hdr, tft, qos, dns},
      PduSessionReleaseRequest{hdr},
      PduSessionReleaseRequest{{15, 254}},
      PduSessionReleaseCommand{hdr, 36},
      PduSessionReleaseCommand{{15, 254}, 39},
      PduSessionReleaseComplete{hdr},
      PduSessionReleaseComplete{{15, 254}},
  };
}

// Every prefix truncation, every single-octet substitution from a fixed
// set, one appended 0x00 and one appended T3502-tagged TLV.
std::vector<Bytes> nas_corpus_mutations(const Bytes& base) {
  std::vector<Bytes> out;
  for (std::size_t n = 0; n < base.size(); ++n) {
    out.emplace_back(base.begin(), base.begin() + static_cast<long>(n));
  }
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (const std::uint8_t v :
         {0x00, 0x01, 0x02, 0x05, 0x07, 0x10, 0x7f, 0x80, 0xff}) {
      out.push_back(base);
      out.back()[pos] = v;
    }
  }
  out.push_back(base);
  out.back().push_back(0x00);
  out.push_back(base);
  for (const std::uint8_t b : {0x16, 0x04, 0x00, 0x00, 0x00, 0x01}) {
    out.back().push_back(b);
  }
  return out;
}

void fnv1a(std::uint64_t& h, BytesView data) {
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
}

void fnv1a_framed(std::uint64_t& h, BytesView data) {
  const std::uint32_t n = static_cast<std::uint32_t>(data.size());
  const std::uint8_t len[4] = {static_cast<std::uint8_t>(n >> 24),
                               static_cast<std::uint8_t>(n >> 16),
                               static_cast<std::uint8_t>(n >> 8),
                               static_cast<std::uint8_t>(n)};
  fnv1a(h, BytesView(len, 4));
  fnv1a(h, data);
}

// Decodes each base wire and its mutations. One line per message type
// counts the accepted inputs and the inputs rejected for each reason; the
// digest covers every input, whether it was accepted, and the re-encoding
// of each accepted decode.
std::string nas_decode_corpus_report() {
  constexpr nas::DecodeError kReasons[] = {
      nas::DecodeError::kTruncated,     nas::DecodeError::kBadProtocol,
      nas::DecodeError::kBadSecurityHeader, nas::DecodeError::kUnknownType,
      nas::DecodeError::kBadFieldValue, nas::DecodeError::kTrailingBytes};
  const std::vector<nas::NasMessage> bases = nas_corpus_bases();
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::ostringstream os;
  for (std::size_t i = 0; i < bases.size(); i += 2) {
    std::map<nas::DecodeError, std::size_t> counts;
    std::size_t inputs = 0;
    for (std::size_t j = i; j < i + 2; ++j) {
      const Bytes base = nas::encode_message(bases[j]);
      EXPECT_TRUE(nas::decode_message(base).has_value()) << "base " << j;
      std::vector<Bytes> wires = nas_corpus_mutations(base);
      wires.insert(wires.begin(), base);
      for (const Bytes& wire : wires) {
        nas::DecodeError err = nas::DecodeError::kNone;
        const auto decoded = nas::decode_message(wire, &err);
        ++inputs;
        ++counts[err];
        fnv1a_framed(digest, wire);
        const std::uint8_t accepted = decoded.has_value() ? 1 : 0;
        fnv1a(digest, BytesView(&accepted, 1));
        if (decoded) {
          EXPECT_TRUE(decode_fixed_point(*decoded)) << "base " << j;
          fnv1a_framed(digest, nas::encode_message(*decoded));
        }
      }
    }
    char type[8];
    std::snprintf(type, sizeof(type), "0x%02x",
                  static_cast<unsigned>(nas::message_type(bases[i])));
    os << "type=" << type << " inputs=" << inputs
       << " accepted=" << counts[nas::DecodeError::kNone];
    for (const nas::DecodeError e : kReasons) {
      os << ' ' << nas::decode_error_name(e) << '=' << counts[e];
    }
    os << '\n';
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  os << "accept_digest=" << hex << '\n';
  return os.str();
}

// Pins what the decoder accepts, how it re-encodes, and why it rejects,
// over a fixed corpus of mutated wires of all 23 message types.
// Regenerate after an intentional codec change:
//   ./build/tests/property_test --update-golden
TEST(NasProperty, DecodeCorpusMatchesGolden) {
  const std::string path =
      std::string(SEED_GOLDEN_DIR) + "/nas_decode_corpus.txt";
  const std::string got = nas_decode_corpus_report();
  if (g_update_golden) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "updated golden " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run ./build/tests/property_test "
                            "--update-golden";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got);
}

// An accepted corpus wire re-encodes to itself unless the decoder
// ignored a repeat, which only drops bytes. Four wires do: a T3502 TLV
// repeated after a Registration Reject's own, and three TFTs (0xc2,
// 0xc9, 0xcc) whose port-range tag became a second remote address.
TEST(NasProperty, CorpusReencodingDiffersOnlyByDroppedRepeats) {
  std::size_t differs = 0;
  for (const nas::NasMessage& base : nas_corpus_bases()) {
    for (const Bytes& wire :
         nas_corpus_mutations(nas::encode_message(base))) {
      const auto decoded = nas::decode_message(wire);
      if (!decoded) continue;
      const Bytes again = nas::encode_message(*decoded);
      if (again == wire) continue;
      ++differs;
      EXPECT_LT(again.size(), wire.size());
    }
  }
  EXPECT_EQ(differs, 4u);
}

// --------------------------------------------------------- reassemblers

TEST(ReassemblerProperty, RestartAfterAnyGarbageSequence) {
  sim::Rng rng(9);
  proto::AutnCodec::Reassembler re;
  Bytes frame(100);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
  const auto frags = proto::AutnCodec::fragment(frame);
  for (int trial = 0; trial < 200; ++trial) {
    // Feed a random number of garbage/partial fragments...
    const int junk = static_cast<int>(rng.uniform_int(0, 4));
    for (int j = 0; j < junk; ++j) {
      std::array<std::uint8_t, 16> garbage{};
      for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
      (void)re.feed(garbage);
    }
    re.reset();
    // ...then a clean transfer must still succeed.
    std::optional<Bytes> out;
    for (const auto& f : frags) out = re.feed(f);
    ASSERT_TRUE(out.has_value()) << "trial " << trial;
    EXPECT_EQ(*out, frame);
  }
}

// feed_view / fragment_into equivalence: the zero-copy variants must
// reproduce the allocating API exactly, and the reused output vector /
// internal buffer must survive back-to-back transfers.
TEST(ReassemblerProperty, FeedViewMatchesFeedAcrossReusedTransfers) {
  sim::Rng rng(666);
  proto::AutnCodec::Reassembler re;
  std::vector<std::array<std::uint8_t, 16>> frags;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes frame(static_cast<std::size_t>(rng.uniform_int(1, 224)));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
    proto::AutnCodec::fragment_into(frame, frags);
    ASSERT_EQ(frags, proto::AutnCodec::fragment(frame));
    std::optional<BytesView> out;
    for (const auto& f : frags) out = re.feed_view(f);
    ASSERT_TRUE(out.has_value()) << "trial " << trial;
    ASSERT_EQ(Bytes(out->begin(), out->end()), frame) << "trial " << trial;
  }
}

TEST(ReassemblerProperty, DnnFeedViewMatchesFeedAcrossReusedTransfers) {
  sim::Rng rng(888);
  proto::DiagDnnCodec::Reassembler re;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes frame(static_cast<std::size_t>(rng.uniform_int(1, 400)));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
    const auto dnns = proto::DiagDnnCodec::pack(frame);
    std::optional<BytesView> out;
    for (const auto& d : dnns) out = re.feed_view(d);
    ASSERT_TRUE(out.has_value()) << "trial " << trial;
    ASSERT_EQ(Bytes(out->begin(), out->end()), frame) << "trial " << trial;
  }
}

TEST(ReassemblerProperty, DnnInterleavedTransfersDoNotCorrupt) {
  sim::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes a(static_cast<std::size_t>(rng.uniform_int(100, 400)));
    for (auto& b : a) b = static_cast<std::uint8_t>(rng.next());
    const auto dnns = proto::DiagDnnCodec::pack(a);
    proto::DiagDnnCodec::Reassembler re;
    // Interrupt mid-transfer with a non-diag DNN (resets), then redo.
    (void)re.feed(dnns[0]);
    (void)re.feed(nas::Dnn("internet"));
    std::optional<Bytes> out;
    for (const auto& d : dnns) out = re.feed(d);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, a);
  }
}

TEST(DiagInfoProperty, RandomizedRoundTrip) {
  sim::Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    proto::DiagInfo d;
    d.kind = static_cast<proto::AssistKind>(rng.uniform_int(1, 6));
    d.plane = rng.chance(0.5) ? nas::Plane::kControl : nas::Plane::kData;
    d.cause = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (rng.chance(0.4)) {
      Bytes v(static_cast<std::size_t>(rng.uniform_int(0, 20)));
      for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
      d.config = proto::ConfigPayload{
          static_cast<nas::ConfigKind>(rng.uniform_int(1, 9)), v};
    }
    if (rng.chance(0.3)) {
      d.suggested = static_cast<proto::ResetAction>(rng.uniform_int(0, 7));
    }
    if (rng.chance(0.3)) {
      d.congestion_wait_s =
          static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    }
    const auto out = proto::DiagInfo::decode(d.encode());
    ASSERT_TRUE(out.has_value()) << "iteration " << i;
    EXPECT_EQ(*out, d);
  }
}

TEST(FailureReportProperty, RandomizedRoundTrip) {
  sim::Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    proto::FailureReport f;
    f.type = static_cast<proto::FailureType>(rng.uniform_int(1, 4));
    f.direction =
        static_cast<proto::TrafficDirection>(rng.uniform_int(1, 3));
    if (rng.chance(0.5)) {
      nas::Ipv4 ip;
      for (auto& o : ip.octets) o = static_cast<std::uint8_t>(rng.next());
      f.addr = ip;
    }
    if (rng.chance(0.5)) {
      f.port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    }
    if (rng.chance(0.4)) {
      f.domain.assign(static_cast<std::size_t>(rng.uniform_int(1, 60)), 'x');
    }
    const auto out = proto::FailureReport::decode(f.encode());
    ASSERT_TRUE(out.has_value()) << "iteration " << i;
    EXPECT_EQ(*out, f);
  }
}

// ------------------------------------------------- identity resolution

std::string random_digits(sim::Rng& rng, std::int64_t max_len) {
  std::string d(static_cast<std::size_t>(rng.uniform_int(0, max_len)), '0');
  for (auto& c : d) c = static_cast<char>('0' + rng.uniform_int(0, 9));
  return d;
}

// SUCI resolution through the MSIN index must equal an exact-compare scan
// of every record in SUPI order (a SUPI's MSIN is its digits after the
// last '-'). Probes include empty strings, proper suffixes and extensions
// of real MSINs, and MSINs that two PLMNs share. Re-provisioning existing
// SUPIs between probes keeps the index's pointers and key views honest
// under the sanitizers.
TEST(IdentityProperty, MsinIndexMatchesExactScan) {
  sim::Rng rng(26001);
  const std::vector<std::string> prefixes = {"310-260-", "311-480-", ""};
  for (int round = 0; round < 60; ++round) {
    corenet::SubscriberDb db;
    std::set<std::string> supis;
    std::vector<std::string> msins;
    const auto n = rng.uniform_int(0, 48);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::string msin = rng.chance(0.2) && !msins.empty()
                                   ? rng.pick(msins)
                                   : random_digits(rng, 10);
      corenet::Subscriber s;
      s.supi = rng.pick(prefixes) + msin;
      db.add(s);
      supis.insert(s.supi);
      msins.push_back(msin);
    }
    for (int q = 0; q < 200; ++q) {
      if (!supis.empty() && rng.chance(0.1)) {
        corenet::Subscriber again;
        again.supi = *std::next(supis.begin(),
                                rng.uniform_int(0, static_cast<std::int64_t>(
                                                       supis.size()) - 1));
        db.add(again);
      }
      std::string probe;
      switch (msins.empty() ? 0 : rng.uniform_int(0, 3)) {
        case 0:
          probe = random_digits(rng, 11);
          break;
        case 1: {
          const std::string& m = rng.pick(msins);
          probe = m.substr(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(m.size()))));
          break;
        }
        case 2:
          probe = rng.pick(msins);
          break;
        default:
          probe = random_digits(rng, 2) + rng.pick(msins);
          break;
      }
      const corenet::Subscriber* want = nullptr;
      for (const std::string& supi : supis) {
        if (supi.substr(supi.rfind('-') + 1) == probe) {
          want = db.find(supi);
          break;
        }
      }
      ASSERT_EQ(db.find_by_msin(probe), want)
          << "round " << round << " probe '" << probe << "'";
    }
  }
}

// ------------------------------------------------- tail-based retention

// Tracer's tail retention as it was kept before its dense per-UE slots:
// rings in a std::map keyed by UE and promoted UEs in a std::set. The
// oracle for RetentionProperty: the tracer must route every stream into
// the same capture and budget.
class MapRetentionOracle {
 public:
  explicit MapRetentionOracle(const obs::RetentionPolicy& policy)
      : policy_(policy) {}

  void pin(std::uint32_t ue) {
    if (!retained_.insert(ue).second) return;
    ++stats_.ues_retained;
    auto it = rings_.find(ue);
    if (it == rings_.end()) return;
    for (obs::Event& buffered : it->second) keep(std::move(buffered));
    rings_.erase(it);
  }

  void route(obs::Event e) {
    if (retained_.count(e.ue) == 0) {
      if (!is_trigger(e)) {
        std::deque<obs::Event>& ring = rings_[e.ue];
        ring.push_back(std::move(e));
        if (ring.size() > policy_.ring_depth) {
          ring.pop_front();
          ++stats_.events_aged_out;
        }
        return;
      }
      pin(e.ue);
    }
    keep(std::move(e));
  }

  void seal() {
    for (auto& [ue, ring] : rings_) stats_.events_aged_out += ring.size();
    rings_.clear();
  }

  const std::vector<obs::Event>& events() const { return events_; }
  // The budget is the capture's record bytes: the encoded capture
  // without its header and 2-byte end trailer.
  obs::RetentionStats stats() const {
    obs::RetentionStats out = stats_;
    out.bytes_retained =
        obs::encode_binary(events_).size() - obs::kTraceHeaderSize - 2;
    return out;
  }

 private:
  bool is_trigger(const obs::Event& e) const {
    switch (e.kind) {
      case obs::EventKind::kTerminalFailure:
      case obs::EventKind::kPeerQuarantined:
        return true;
      case obs::EventKind::kSloAlert:
        if (!e.ok) return true;
        break;
      default:
        break;
    }
    return policy_.trigger != nullptr && policy_.trigger(e);
  }

  void keep(obs::Event e) {
    ++stats_.events_retained;
    events_.push_back(std::move(e));
  }

  obs::RetentionPolicy policy_;
  obs::RetentionStats stats_;
  std::map<std::uint32_t, std::deque<obs::Event>> rings_;
  std::set<std::uint32_t> retained_;
  std::vector<obs::Event> events_;
};

bool verdict_mismatch(const obs::Event& e) {
  return e.kind == obs::EventKind::kDiagnosisVerdict && e.detail == "mismatch";
}

struct Recorder : obs::EventObserver {
  void on_trace_event(const obs::Event& e) override { seen.push_back(e); }
  std::vector<obs::Event> seen;
};

// Answers from inside the notification, as the health engine does: a
// diagnosis raises a firing kSloAlert (a retention trigger) on the same
// UE, a cache lookup a resolved one (not a trigger).
struct Alerter : obs::EventObserver {
  void on_trace_event(const obs::Event& e) override {
    if (e.kind != obs::EventKind::kDiagnosisMade &&
        e.kind != obs::EventKind::kCacheLookup) {
      return;
    }
    obs::Event alert;
    alert.kind = obs::EventKind::kSloAlert;
    alert.ue = e.ue;
    alert.ok = e.kind == obs::EventKind::kCacheLookup;
    alert.detail = "recovery_p95 burn over budget in the long window";
    obs::Tracer::instance().record_now(std::move(alert));
  }
};

// Event's operator== compares doubles by value (-0.0 == 0.0, NaN !=
// NaN); a ring record must give back the same bits.
bool same_bits(const obs::Event& a, const obs::Event& b) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  if (bits(a.prep_ms) != bits(b.prep_ms) ||
      bits(a.trans_ms) != bits(b.trans_ms)) {
    return false;
  }
  obs::Event x = a;
  obs::Event y = b;
  x.prep_ms = x.trans_ms = y.prep_ms = y.trans_ms = 0.0;
  return x == y;
}

bool same_bits(const std::vector<obs::Event>& a,
               const std::vector<obs::Event>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const obs::Event& x, const obs::Event& y) {
                      return same_bits(x, y);
                    });
}

struct RetentionOp {
  enum class Kind { kEmit, kPin, kSeal };
  Kind kind = Kind::kEmit;
  obs::Event event;       // kEmit
  std::uint32_t ue = 0;   // kPin
  sim::Duration advance{};
};

struct RetentionRun {
  std::vector<obs::Event> events;
  obs::RetentionStats stats;
  std::vector<obs::Event> seen_first;  // observer registered first
  std::vector<obs::Event> seen_last;   // registered after the Alerter
  // Each pin or seal, with the number of events recorded before it.
  std::vector<std::pair<std::size_t, RetentionOp>> marks;
};

// `first_id` starts span and event-id numbering, so a run can cross 2^32.
RetentionRun run_tracer(const std::vector<RetentionOp>& ops,
                        const std::optional<obs::RetentionPolicy>& policy,
                        std::uint64_t first_id = 1) {
  obs::Tracer& t = obs::Tracer::instance();
  sim::TimePoint now = sim::kTimeZero;
  t.enable(true);
  t.clear();
  t.reset_span_counter(first_id);
  t.set_clock(&now);
  if (policy) t.set_retention(*policy);
  Recorder first;
  Recorder last;
  Alerter alerter;
  t.add_observer(&first);
  t.add_observer(&alerter);
  t.add_observer(&last);
  RetentionRun run;
  for (const RetentionOp& op : ops) {
    now += op.advance;
    if (op.kind == RetentionOp::Kind::kEmit) {
      t.record_now(op.event);
      continue;
    }
    run.marks.emplace_back(first.seen.size(), op);
    if (op.kind == RetentionOp::Kind::kPin) {
      t.pin_ue(op.ue);
    } else {
      t.seal_retention();
    }
  }
  t.seal_retention();
  run.events = t.events();
  run.stats = t.retention_stats();
  run.seen_first = std::move(first.seen);
  run.seen_last = std::move(last.seen);
  t.remove_observer(&first);
  t.remove_observer(&alerter);
  t.remove_observer(&last);
  t.clear_retention();
  t.set_clock(nullptr);
  t.enable(false);
  t.clear();
  t.reset_span_counter();
  return run;
}

// A collab timing as producers emit it (sim::to_ms of a Duration, or a
// count such as learner records), now and then one off the µs grid, a
// negative zero or a huge value.
double random_timing(sim::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.3) return 0.0;
  if (roll < 0.6) {
    return sim::to_ms(sim::Duration(rng.uniform_int(-5000000, 5000000)));
  }
  if (roll < 0.85) return static_cast<double>(rng.uniform_int(0, 4000000000));
  if (roll < 0.95) return rng.uniform() * 1e3;  // off the µs grid
  return rng.chance(0.5) ? -0.0 : 1e12;
}

std::vector<RetentionOp> random_retention_ops(
    sim::Rng& rng, const std::vector<std::uint32_t>& ues) {
  const std::vector<std::string> details = {
      "",
      "mismatch",
      "ok",
      "terminal: escalation ladder exhausted at B3",
      std::string(300, 'x'),  // too long to intern
      std::string("dnn\0\xff\xfe caf\xc3\xa9", 12),
  };
  std::vector<RetentionOp> ops;
  if (rng.chance(0.3)) {  // a pin before any event
    RetentionOp pin;
    pin.kind = RetentionOp::Kind::kPin;
    pin.ue = rng.pick(ues);
    ops.push_back(pin);
  }
  // Some streams are long enough to wrap every ring many times.
  const auto n = rng.uniform_int(1, rng.chance(0.3) ? 1500 : 300);
  // Record sizes drift in phases of 48 ops. A lean phase writes short
  // payloads (no label, timings, parent or detail), a fat one the
  // longest a ring sees (a 5-byte label, both timings, a 9-byte parent),
  // a mixed one either. So rings sized by short first records grow,
  // also while their records wrap, and records of every length (escape
  // records too) straddle the point where a ring's buffer wraps.
  enum class Phase { kLean, kMixed, kFat } phase = Phase::kMixed;
  for (std::int64_t i = 0; i < n; ++i) {
    if (i % 48 == 0) phase = static_cast<Phase>(rng.uniform_int(0, 2));
    RetentionOp op;
    op.advance = sim::ms(rng.uniform_int(0, 40));
    // Once in a while the clock jumps past 2^31 µs: 9-byte timestamps.
    if (phase == Phase::kFat && rng.chance(0.005)) {
      op.advance = sim::seconds(2200);
    }
    const double roll = rng.uniform();
    if (roll < 0.03) {
      op.kind = RetentionOp::Kind::kPin;
      op.ue = rng.pick(ues);
    } else if (roll < 0.04) {
      op.kind = RetentionOp::Kind::kSeal;
    } else {
      obs::Event& e = op.event;
      e.kind = static_cast<obs::EventKind>(rng.uniform_int(
          0, static_cast<std::int64_t>(obs::kEventKindCount) - 1));
      e.origin = static_cast<obs::Origin>(rng.uniform_int(0, 5));
      // Now and then a kind or origin outside the name tables: the event
      // escapes whole, as a 5-byte record.
      if (rng.chance(0.03)) e.kind = static_cast<obs::EventKind>(250);
      if (rng.chance(0.03)) e.origin = static_cast<obs::Origin>(250);
      e.ue = rng.pick(ues);
      e.ok = rng.chance(0.5);
      e.action = static_cast<std::uint8_t>(rng.uniform_int(0, 6));
      e.cause = static_cast<std::uint8_t>(rng.uniform_int(0, 111));
      e.plane = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      e.tier = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      if (phase == Phase::kLean) {
        ops.push_back(std::move(op));
        continue;
      }
      const bool fat = phase == Phase::kFat;
      e.detail = rng.chance(0.1)
                     ? "text " + std::to_string(rng.uniform_int(0, 9999))
                     : rng.pick(details);
      e.label = !fat && rng.chance(0.5)
                    ? 0u
                    : static_cast<std::uint32_t>(
                          rng.uniform_int(0x10000, 0xffffffff));
      e.prep_ms = fat ? 1.5 : random_timing(rng);
      e.trans_ms = random_timing(rng);
      // A preset parent is kept as is: far behind the ring's oldest
      // record, ahead of the event itself, or more than 2^32 back.
      const double link = fat ? 1.0 : rng.uniform();
      if (link < 0.2) {
        e.parent = static_cast<std::uint64_t>(rng.uniform_int(1, i + 1));
      } else if (link < 0.25 || fat) {
        e.parent =
            static_cast<std::uint64_t>(rng.uniform_int(1, 1000000000)) << 8;
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// The dense per-UE slots route every stream exactly as the map/set
// retention did: the same durable capture (ring history replayed ahead
// of each trigger), the same budget, and observers — including one that
// reentrantly raises a firing alert mid-notification — see the same
// events as without retention.
TEST(RetentionProperty, DenseSlotsMatchMapOracle) {
  sim::Rng rng(28001);
  std::map<obs::EventKind, int> trigger_kinds;
  int custom_triggers = 0;
  for (int round = 0; round < 160; ++round) {
    obs::RetentionPolicy policy;
    const std::size_t depths[] = {0, 1, 2, 3, 5, 32};
    policy.ring_depth = depths[round % std::size(depths)];
    if (rng.chance(0.5)) policy.trigger = &verdict_mismatch;
    std::vector<std::uint32_t> ues = {0};
    const auto n_ues = rng.uniform_int(1, rng.chance(0.5) ? 2 : 12);
    for (std::int64_t i = 1; i <= n_ues; ++i) {
      ues.push_back(static_cast<std::uint32_t>(i * 13));
    }
    if (rng.chance(0.5)) ues.push_back(1);
    const std::vector<RetentionOp> ops = random_retention_ops(rng, ues);

    // Some rounds number spans and events across 2^32.
    const std::uint64_t first_id =
        rng.chance(0.25)
            ? (std::uint64_t{1} << 32) -
                  static_cast<std::uint64_t>(rng.uniform_int(0, 40))
            : 1;
    const RetentionRun full = run_tracer(ops, std::nullopt, first_id);
    const RetentionRun kept = run_tracer(ops, policy, first_id);
    ASSERT_EQ(full.events, full.seen_first) << "round " << round;
    ASSERT_EQ(kept.marks.size(), full.marks.size());

    MapRetentionOracle oracle(policy);
    std::size_t next_mark = 0;
    for (std::size_t i = 0; i <= full.events.size(); ++i) {
      for (; next_mark < full.marks.size() && full.marks[next_mark].first == i;
           ++next_mark) {
        const RetentionOp& op = full.marks[next_mark].second;
        if (op.kind == RetentionOp::Kind::kPin) {
          oracle.pin(op.ue);
        } else {
          oracle.seal();
        }
      }
      if (i == full.events.size()) break;
      const obs::Event& e = full.events[i];
      if (e.kind == obs::EventKind::kTerminalFailure ||
          e.kind == obs::EventKind::kPeerQuarantined ||
          (e.kind == obs::EventKind::kSloAlert && !e.ok)) {
        ++trigger_kinds[e.kind];
      }
      if (policy.trigger != nullptr && verdict_mismatch(e)) ++custom_triggers;
      oracle.route(e);
    }
    oracle.seal();

    EXPECT_EQ(kept.events, oracle.events()) << "round " << round;
    EXPECT_TRUE(same_bits(kept.events, oracle.events())) << "round " << round;
    EXPECT_EQ(kept.stats.events_retained, oracle.stats().events_retained);
    EXPECT_EQ(kept.stats.events_aged_out, oracle.stats().events_aged_out);
    EXPECT_EQ(kept.stats.bytes_retained, oracle.stats().bytes_retained);
    EXPECT_EQ(kept.stats.ues_retained, oracle.stats().ues_retained);
    EXPECT_EQ(kept.seen_first, full.seen_first) << "round " << round;
    EXPECT_EQ(kept.seen_last, full.seen_last) << "round " << round;
  }
  // Every trigger kind fired somewhere in the sweep.
  EXPECT_GT(trigger_kinds[obs::EventKind::kTerminalFailure], 0);
  EXPECT_GT(trigger_kinds[obs::EventKind::kPeerQuarantined], 0);
  EXPECT_GT(trigger_kinds[obs::EventKind::kSloAlert], 0);
  EXPECT_GT(custom_triggers, 0);
}

// A buffered event comes back from its ring record through a real
// promotion with every field exact, bit for bit, however long its
// payload: with ids past 2^32 payloads run past 47 bytes and still stay
// inline. So does each event that escapes whole to the escape store:
// one whose detail cannot be interned (too long, or past the table's
// limit), or whose kind or origin the codec rejects. An escape entry
// leaves with its ring record (evicted or promoted).
TEST(RetentionProperty, PackedRecordRoundTripsEveryField) {
  obs::Tracer& t = obs::Tracer::instance();
  sim::TimePoint now = sim::kTimeZero;
  t.enable(true);
  t.clear();
  t.reset_span_counter();
  t.set_clock(&now);
  obs::RetentionPolicy policy;
  policy.ring_depth = 64;
  t.set_retention(policy);
  Recorder recorded;
  t.add_observer(&recorded);

  const auto emit = [&](std::uint32_t ue, const auto& set) {
    obs::Event e;
    e.kind = obs::EventKind::kCollabDownlink;
    e.origin = obs::Origin::kInfra;
    e.ue = ue;
    e.label = 0x0300002a;
    e.plane = 1;
    e.cause = 22;
    e.action = 5;
    e.ok = true;
    e.prep_ms = 12.345;
    e.trans_ms = 3.0;
    e.detail = "ok";
    set(e);
    now += sim::us(1);
    t.record_now(std::move(e));
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Each case edits the default event; `first` is the run's first id.
  using Set = void (*)(obs::Event&, std::uint64_t first);
  const Set cases[] = {
      [](obs::Event&, std::uint64_t) {},
      [](obs::Event& e, std::uint64_t first) { e.parent = first + 1; },
      [](obs::Event& e, std::uint64_t) { e.parent = 1; },
      [](obs::Event& e, std::uint64_t) { e.parent = ~std::uint64_t{0}; },
      [](obs::Event& e, std::uint64_t) { e.prep_ms = 0.1234567; },
      [](obs::Event& e, std::uint64_t) { e.trans_ms = -2.5; },
      [](obs::Event& e, std::uint64_t) { e.trans_ms = -0.0; },
      [](obs::Event& e, std::uint64_t) { e.prep_ms = e.trans_ms = -0.0; },
      [](obs::Event& e, std::uint64_t) { e.prep_ms = -3e6; },
      [](obs::Event& e, std::uint64_t) { e.prep_ms = 4294967295.0; },
      [](obs::Event& e, std::uint64_t) { e.trans_ms = 1e300; },
      [](obs::Event& e, std::uint64_t) { e.trans_ms = -kInf; },
      [](obs::Event& e, std::uint64_t) {
        e.prep_ms = std::numeric_limits<double>::quiet_NaN();
      },
      [](obs::Event& e, std::uint64_t) { e.detail.clear(); },
      [](obs::Event& e, std::uint64_t) { e.detail = std::string(4096, 'd'); },
      [](obs::Event& e, std::uint64_t) { e.detail = std::string("\0\xff", 2); },
      [](obs::Event& e, std::uint64_t) {
        e.kind = static_cast<obs::EventKind>(250);
        e.label = ~std::uint32_t{0};
        e.plane = e.cause = e.action = e.tier = 255;
      },
      [](obs::Event& e, std::uint64_t) {
        e.origin = static_cast<obs::Origin>(250);
      },
      // A failure opens a span: past 2^32 its events outgrow a cell.
      [](obs::Event& e, std::uint64_t) {
        e.kind = obs::EventKind::kFailureInjected;
      },
      [](obs::Event& e, std::uint64_t) {
        e.kind = obs::EventKind::kDiagnosisMade;
      },
  };
  constexpr std::size_t kCases = std::size(cases);
  constexpr std::uint32_t kUe = 7;
  for (const Set set : cases) {
    emit(kUe, [set](obs::Event& e) { set(e, 1); });
  }
  ASSERT_EQ(recorded.seen[1].parent, recorded.seen[1].seq);

  // A longer stream through a second ring: past the intern table's
  // limit distinct texts escape, as do long details, and most of those
  // cells are evicted before the promotion.
  constexpr std::uint32_t kChurnUe = 9;
  constexpr int kChurn = 7000;
  for (int i = 0; i < kChurn; ++i) {
    emit(kChurnUe, [i](obs::Event& e) {
      e.kind = obs::EventKind::kLog;
      e.detail = i % 3 == 0 ? std::string(300 + i % 7, 'a' + i % 26)
                            : "text " + std::to_string(i);
      e.prep_ms = i % 5 == 0 ? i * 0.1 : i;
    });
  }

  // The same cases with spans and event ids past 2^32: long inline
  // records.
  constexpr std::uint64_t kFirstId = (std::uint64_t{1} << 32) + 5;
  constexpr std::uint32_t kWideUe = 8;
  t.reset_span_counter(kFirstId);
  for (const Set set : cases) {
    emit(kWideUe, [set](obs::Event& e) { set(e, kFirstId); });
  }
  const std::size_t wide_at = kCases + kChurn;
  ASSERT_EQ(recorded.seen[wide_at + 1].parent, recorded.seen[wide_at + 1].seq);
  std::size_t longest = 0;
  for (std::size_t i = wide_at; i < wide_at + kCases; ++i) {
    obs::EventPayload payload;
    longest = std::max(longest,
                       obs::write_event_payload(recorded.seen[i], 1, payload));
  }
  ASSERT_GT(longest, 47u);
  ASSERT_TRUE(t.events().empty());
  t.pin_ue(kUe);
  t.pin_ue(kChurnUe);
  t.pin_ue(kWideUe);

  const auto seen = [&](std::size_t from, std::size_t n) {
    return recorded.seen.begin() + static_cast<std::ptrdiff_t>(from + n);
  };
  std::vector<obs::Event> want(seen(0, 0), seen(0, kCases));
  want.insert(want.end(), seen(wide_at, 0) - 64, seen(wide_at, 0));
  want.insert(want.end(), seen(wide_at, 0), seen(wide_at, kCases));
  ASSERT_EQ(t.events().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(t.events()[i], want[i])) << "event " << i;
  }
  const obs::RetentionStats stats = t.retention_stats();
  EXPECT_EQ(stats.events_retained, want.size());
  EXPECT_EQ(stats.events_aged_out, kChurn - 64u);
  EXPECT_EQ(stats.bytes_retained,
            obs::encode_binary(want).size() - obs::kTraceHeaderSize - 2);

  t.remove_observer(&recorded);
  t.clear_retention();
  t.set_clock(nullptr);
  t.enable(false);
  t.clear();
  t.reset_span_counter();
}

// ------------------------------------------- health-window percentile

// select_percentile must give Samples::percentile's value bit for bit:
// the health engine's P50/P95 windows feed BENCH_health.json.
TEST(PercentileProperty, SelectionMatchesSortedInterpolation) {
  sim::Rng rng(28002);
  for (int round = 0; round < 2000; ++round) {
    const std::int64_t n = round < 40 ? 1 : rng.uniform_int(1, 300);
    const bool few_distinct = rng.chance(0.5);  // many duplicates
    metrics::Samples samples;
    std::vector<double> values;
    for (std::int64_t i = 0; i < n; ++i) {
      const double v = few_distinct
                           ? static_cast<double>(rng.uniform_int(0, 3))
                           : rng.lognormal_median(120.0, 1.0);
      samples.add(v);
      values.push_back(v);
    }
    for (const double p : {0.0, 100.0, 50.0, 95.0, rng.uniform(0.0, 100.0)}) {
      std::vector<double> scratch = values;
      EXPECT_EQ(metrics::select_percentile(scratch, p), samples.percentile(p))
          << "round " << round << " n " << n << " p " << p;
    }
  }
}

TEST(PercentileProperty, RejectsWhatSamplesRejects) {
  std::vector<double> empty;
  EXPECT_THROW(metrics::select_percentile(empty, 50), std::logic_error);
  std::vector<double> one = {1.0};
  EXPECT_THROW(metrics::select_percentile(one, -1), std::invalid_argument);
  EXPECT_THROW(metrics::select_percentile(one, 100.5), std::invalid_argument);
}

}  // namespace
}  // namespace seed

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      seed::g_update_golden = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

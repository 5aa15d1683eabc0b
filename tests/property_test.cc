// Property-style sweeps across the protocol surfaces: randomized message
// round-trips, reassembler interleavings, CMAC/CTR length sweeps,
// cause-code exhaustive encodes, and SUCI identity resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "corenet/subscriber.h"
#include "crypto/cmac.h"
#include "crypto/ctr.h"
#include "crypto/security_context.h"
#include "nas/messages.h"
#include "seedproto/diag_payload.h"
#include "seedproto/failure_report.h"
#include "simcore/rng.h"

namespace seed {
namespace {

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

constexpr int kNasMessageKinds = 6;

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
    default: {
      nas::PduSessionModificationCommand m;
      m.hdr = {static_cast<std::uint8_t>(rng.uniform_int(1, 15)), 0};
      if (rng.chance(0.5)) {
        m.dns_addr = nas::Ipv4{{9, 9, 9, 9}};
      }
      return m;
    }
  }
}

nas::NasMessage random_message(sim::Rng& rng) {
  return random_message_of(rng, rng.uniform_int(0, kNasMessageKinds - 1));
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
      // Anything accepted must re-encode to exactly the input.
      EXPECT_EQ(nas::encode_message(*decoded), junk);
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
// anything it accepts must re-encode canonically.
TEST(NasProperty, BitFlippedWireNeverCrashesDecoderPerType) {
  for (int kind = 0; kind < kNasMessageKinds; ++kind) {
    sim::Rng rng(7001 + kind * 131);
    for (int i = 0; i < 10000; ++i) {
      const Bytes wire =
          mutate(rng, nas::encode_message(random_message_of(rng, kind)));
      const auto decoded = nas::decode_message(wire);
      if (decoded) {
        ASSERT_EQ(nas::encode_message(*decoded), wire)
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

// The DecodeError overload must agree with the legacy overload on every
// mutated wire, and report kNone exactly when the decode succeeds.
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

}  // namespace
}  // namespace seed

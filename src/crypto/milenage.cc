#include "crypto/milenage.h"

#include "obs/prof.h"

namespace seed::crypto {

namespace {

Block xor_block(const Block& a, const Block& b) {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) out[i] = a[i] ^ b[i];
  return out;
}

// Cyclic rotation left by r bits (r is a multiple of 8 in Milenage).
Block rotate(const Block& in, int r_bits) {
  const std::size_t r = static_cast<std::size_t>(r_bits / 8);
  Block out;
  for (std::size_t i = 0; i < 16; ++i) out[i] = in[(i + r) % 16];
  return out;
}

Block constant_block(std::uint8_t last) {
  Block c{};
  c[15] = last;
  return c;
}

}  // namespace

Milenage::Milenage(const Key128& k, const Key128& op) : k_(k) {
  const Aes128 aes(k);
  Block opb;
  for (std::size_t i = 0; i < 16; ++i) opb[i] = op[i];
  const Block e = aes.encrypt(opb);
  for (std::size_t i = 0; i < 16; ++i) opc_[i] = e[i] ^ op[i];
}

Milenage::Milenage(const Key128& k, const Key128& opc, bool)
    : k_(k), opc_(opc) {}

Milenage Milenage::from_opc(const Key128& k, const Key128& opc) {
  return Milenage(k, opc, true);
}

Milenage::Temp Milenage::temp(const Block& rand) const {
  Temp t{Aes128(k_), xor_block(rand, opc_)};
  t.aes.encrypt_block(t.value);
  return t;
}

Block Milenage::out1(const Temp& t, const std::array<std::uint8_t, 6>& sqn,
                     const std::array<std::uint8_t, 2>& amf) const {
  // IN1 = SQN || AMF || SQN || AMF.
  Block in1{};
  for (std::size_t i = 0; i < 6; ++i) in1[i] = sqn[i];
  in1[6] = amf[0];
  in1[7] = amf[1];
  for (std::size_t i = 0; i < 6; ++i) in1[i + 8] = sqn[i];
  in1[14] = amf[0];
  in1[15] = amf[1];
  // OUT1 = E_K(TEMP xor rot(IN1 xor OPc, r1) xor c1) xor OPc, r1 = 64,
  // c1 = 0.
  return xor_block(
      t.aes.encrypt(xor_block(t.value, rotate(xor_block(in1, opc_), 64))),
      opc_);
}

Block Milenage::out(const Temp& t, int r_bits, std::uint8_t c_last) const {
  return xor_block(t.aes.encrypt(xor_block(rotate(xor_block(t.value, opc_),
                                                  r_bits),
                                           constant_block(c_last))),
                   opc_);
}

// OUT2: r2 = 0, c2 = ..01.
Block Milenage::out2(const Temp& t) const { return out(t, 0, 0x01); }

AuthVector Milenage::auth_vector(const Block& rand,
                                 const std::array<std::uint8_t, 6>& sqn,
                                 const std::array<std::uint8_t, 2>& amf) const {
  PROF_ZONE("crypto.milenage");
  const Temp t = temp(rand);
  const Block o1 = out1(t, sqn, amf);
  const Block o2 = out2(t);
  AuthVector v{};
  for (std::size_t i = 0; i < 8; ++i) v.res[i] = o2[i + 8];
  for (std::size_t i = 0; i < 6; ++i) v.autn[i] = sqn[i] ^ o2[i];
  v.autn[6] = amf[0];
  v.autn[7] = amf[1];
  for (std::size_t i = 0; i < 8; ++i) v.autn[i + 8] = o1[i];
  return v;
}

std::optional<std::array<std::uint8_t, 8>> Milenage::verify(
    const Block& rand, const Block& autn) const {
  PROF_ZONE("crypto.milenage");
  const Temp t = temp(rand);
  const Block o2 = out2(t);
  std::array<std::uint8_t, 6> sqn{};
  for (std::size_t i = 0; i < 6; ++i) sqn[i] = autn[i] ^ o2[i];
  const Block o1 = out1(t, sqn, {autn[6], autn[7]});
  for (std::size_t i = 0; i < 8; ++i) {
    if (autn[8 + i] != o1[i]) return std::nullopt;
  }
  std::array<std::uint8_t, 8> res{};
  for (std::size_t i = 0; i < 8; ++i) res[i] = o2[i + 8];
  return res;
}

MilenageOutput Milenage::compute(const Block& rand,
                                 const std::array<std::uint8_t, 6>& sqn,
                                 const std::array<std::uint8_t, 2>& amf) const {
  const Temp t = temp(rand);
  const Block o1 = out1(t, sqn, amf);
  const Block o2 = out2(t);
  const Block o5 = out(t, 96, 0x08);  // OUT5: r5 = 96, c5 = ..08

  MilenageOutput result{};
  for (std::size_t i = 0; i < 8; ++i) result.mac_a[i] = o1[i];
  for (std::size_t i = 0; i < 8; ++i) result.mac_s[i] = o1[i + 8];
  for (std::size_t i = 0; i < 8; ++i) result.res[i] = o2[i + 8];
  for (std::size_t i = 0; i < 6; ++i) result.ak[i] = o2[i];
  result.ck = out(t, 32, 0x02);  // OUT3: r3 = 32, c3 = ..02
  result.ik = out(t, 64, 0x04);  // OUT4: r4 = 64, c4 = ..04
  for (std::size_t i = 0; i < 6; ++i) result.ak_s[i] = o5[i];
  return result;
}

}  // namespace seed::crypto

// Milenage authentication algorithm set (3GPP TS 35.205/35.206).
//
// Implements f1 (MAC-A), f1* (MAC-S), f2 (RES), f3 (CK), f4 (IK),
// f5 (AK), f5* (AK-S) — the functions the SIM and AUSF run during 5G-AKA.
// SEED reuses this machinery: the DFlag-carrying Authentication Request is
// recognized *before* Milenage verification (reserved RAND = FF..FF).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace seed::crypto {

struct MilenageOutput {
  std::array<std::uint8_t, 8> mac_a;   // f1
  std::array<std::uint8_t, 8> mac_s;   // f1*
  std::array<std::uint8_t, 8> res;     // f2
  Block ck;                            // f3
  Block ik;                            // f4
  std::array<std::uint8_t, 6> ak;      // f5
  std::array<std::uint8_t, 6> ak_s;    // f5*
};

/// What the network sends and expects for one 5G-AKA challenge.
struct AuthVector {
  std::array<std::uint8_t, 8> res;  // XRES
  Block autn;                       // (SQN xor AK) || AMF || MAC-A
};

class Milenage {
 public:
  /// TEMP = E_K(RAND xor OPc) with the key schedule it was computed under.
  /// Every OUTi of one authentication starts from it, so one TEMP (and one
  /// key expansion) serves them all. K is re-expanded per TEMP rather than
  /// held per subscriber, which would add 176 B to every SIM applet
  /// (DESIGN.md, "Key material is expanded once").
  struct Temp {
    Aes128 aes;
    Block value;
  };

  /// `op` is the operator variant configuration field; OPc is derived.
  Milenage(const Key128& k, const Key128& op);

  /// Constructs directly from a precomputed OPc.
  static Milenage from_opc(const Key128& k, const Key128& opc);

  const Key128& opc() const { return opc_; }

  /// Expands K and computes TEMP for `rand`: once per authentication.
  Temp temp(const Block& rand) const;

  /// OUT1 = MAC-A (f1) || MAC-S (f1*) for the given SQN / AMF.
  Block out1(const Temp& t, const std::array<std::uint8_t, 6>& sqn,
             const std::array<std::uint8_t, 2>& amf) const;

  /// OUT2 = AK (f5, bytes 0-5) || RES (f2, bytes 8-15); SQN-independent.
  Block out2(const Temp& t) const;

  /// Network side (TS 33.501 §6.1.3.2): RES and AUTN for one challenge,
  /// from one TEMP, OUT1 and OUT2.
  AuthVector auth_vector(const Block& rand,
                         const std::array<std::uint8_t, 6>& sqn,
                         const std::array<std::uint8_t, 2>& amf) const;

  /// USIM side: un-masks SQN with AK, checks MAC-A, and returns RES when
  /// it verifies (nullopt on a MAC failure). SQN freshness is not checked.
  std::optional<std::array<std::uint8_t, 8>> verify(const Block& rand,
                                                    const Block& autn) const;

  /// Runs all functions for the given RAND / SQN / AMF.
  MilenageOutput compute(const Block& rand,
                         const std::array<std::uint8_t, 6>& sqn,
                         const std::array<std::uint8_t, 2>& amf) const;

 private:
  Milenage(const Key128& k, const Key128& opc, bool /*from_opc_tag*/);

  /// OUTi = E_K(rot(TEMP xor OPc, r) xor c) xor OPc for i = 2..5, with
  /// `c_last` the last byte of the constant c_i.
  Block out(const Temp& t, int r_bits, std::uint8_t c_last) const;

  Key128 k_;
  Key128 opc_;
};

}  // namespace seed::crypto

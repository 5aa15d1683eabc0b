// AES-128 block cipher (FIPS-197), encryption direction only — CTR and
// CMAC modes, and Milenage, need only the forward transform.
//
// Two backends behind one class, picked once per process from a CPU
// check (no option selects them):
//  - x86-64 AES-NI (`aesenc`, `aeskeygenassist`), compiled with a
//    function-level target attribute, used when the CPU has AES;
//  - the portable byte-wise implementation with a compile-time S-box,
//    used everywhere else and kept as the reference the tests compare the
//    hardware path against.
// No external crypto dependency. The portable path is not hardened
// against cache-timing side channels (its S-box lookups are
// data-dependent); the AES-NI path has no tables. This is a simulation
// substrate, not a production SIM.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace seed::crypto {

using Block = std::array<std::uint8_t, 16>;
using Key128 = std::array<std::uint8_t, 16>;
/// The 11 round keys of FIPS-197 §5.2, 16 bytes each, in byte order.
using RoundKeys = std::array<std::uint8_t, 176>;

class Aes128 {
 public:
  explicit Aes128(const Key128& key);

  /// Encrypts one 16-byte block in place.
  void encrypt_block(Block& block) const;

  /// Convenience: encrypts and returns a copy.
  Block encrypt(const Block& block) const;

 private:
  RoundKeys round_keys_{};
};

/// Builds a Block from a view; throws std::invalid_argument unless 16 bytes.
Block to_block(BytesView data);

/// Builds a Key128 from a view; throws std::invalid_argument unless 16 bytes.
Key128 to_key(BytesView data);

namespace detail {
/// True when this process runs the AES-NI backend: decided once, on first
/// use, from `__builtin_cpu_supports("aes")`; always false off x86-64.
bool hardware_aes();

/// The two backends, reachable directly so tests can hold each to the
/// other on any host. The `_hw` pair may run only where hardware_aes()
/// is true; off x86-64 it forwards to the portable pair.
void expand_key_portable(const Key128& key, RoundKeys& rk);
void encrypt_block_portable(const RoundKeys& rk, Block& block);
void expand_key_hw(const Key128& key, RoundKeys& rk);
void encrypt_block_hw(const RoundKeys& rk, Block& block);
}  // namespace detail

}  // namespace seed::crypto

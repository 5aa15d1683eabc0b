#include "crypto/aes.h"

#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SEED_AES_NI 1
#include <immintrin.h>
#else
#define SEED_AES_NI 0
#endif

namespace seed::crypto {

namespace {

constexpr std::array<std::uint8_t, 256> kSbox = [] {
  // Build the AES S-box at compile time: multiplicative inverse in
  // GF(2^8) followed by the affine transform.
  std::array<std::uint8_t, 256> sbox{};
  // Compute inverses via exponentiation tables on generator 3.
  std::array<std::uint8_t, 256> exp{};
  std::array<std::uint8_t, 256> log{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp[static_cast<std::size_t>(i)] = x;
    log[x] = static_cast<std::uint8_t>(i);
    // multiply x by 3 in GF(2^8)
    std::uint8_t x2 = static_cast<std::uint8_t>(
        (x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
    x = static_cast<std::uint8_t>(x2 ^ x);
  }
  for (int i = 0; i < 256; ++i) {
    std::uint8_t inv = 0;
    // g^255 = 1, so reduce the exponent mod 255 (exp[] is only defined
    // for indices 0..254; without the reduction S(0x01) would be wrong).
    if (i != 0) {
      inv = exp[static_cast<std::size_t>(
          (255 - log[static_cast<std::size_t>(i)]) % 255)];
    }
    std::uint8_t s = inv;
    std::uint8_t res = s;
    for (int k = 0; k < 4; ++k) {
      s = static_cast<std::uint8_t>((s << 1) | (s >> 7));
      res ^= s;
    }
    sbox[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(res ^ 0x63);
  }
  return sbox;
}();

constexpr std::array<std::uint8_t, 10> kRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t xtime(std::uint8_t v) {
  return static_cast<std::uint8_t>((v << 1) ^ ((v & 0x80) ? 0x1b : 0x00));
}

#if SEED_AES_NI
// One step of the AES-128 key schedule: `aeskeygenassist` yields
// SubWord(RotWord(w3)) ^ Rcon in its top lane, which is broadcast and
// folded into the running prefix XOR of the previous round key's words.
template <int Rcon>
__attribute__((target("aes"))) __m128i next_round_key(__m128i k) {
  const __m128i t = _mm_shuffle_epi32(_mm_aeskeygenassist_si128(k, Rcon), 0xff);
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  return _mm_xor_si128(k, t);
}

bool cpu_has_aes() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes");
}
#endif

}  // namespace

namespace detail {

bool hardware_aes() {
#if SEED_AES_NI
  // Function-local, so the probe runs after libgcc's CPU model is set up,
  // whatever the static-initialization order.
  static const bool on = cpu_has_aes();
  return on;
#else
  return false;
#endif
}

#if SEED_AES_NI
// Round keys and blocks are loaded unaligned: Aes128 keeps its 1-byte
// alignment, so the size of every object holding one stays as it was.
__attribute__((target("aes"))) void expand_key_hw(const Key128& key,
                                                  RoundKeys& rk) {
  auto* out = reinterpret_cast<__m128i*>(rk.data());
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.data()));
  _mm_storeu_si128(out, k);
  _mm_storeu_si128(out + 1, k = next_round_key<0x01>(k));
  _mm_storeu_si128(out + 2, k = next_round_key<0x02>(k));
  _mm_storeu_si128(out + 3, k = next_round_key<0x04>(k));
  _mm_storeu_si128(out + 4, k = next_round_key<0x08>(k));
  _mm_storeu_si128(out + 5, k = next_round_key<0x10>(k));
  _mm_storeu_si128(out + 6, k = next_round_key<0x20>(k));
  _mm_storeu_si128(out + 7, k = next_round_key<0x40>(k));
  _mm_storeu_si128(out + 8, k = next_round_key<0x80>(k));
  _mm_storeu_si128(out + 9, k = next_round_key<0x1b>(k));
  _mm_storeu_si128(out + 10, k = next_round_key<0x36>(k));
}

__attribute__((target("aes"))) void encrypt_block_hw(const RoundKeys& rk,
                                                     Block& block) {
  const auto* k = reinterpret_cast<const __m128i*>(rk.data());
  auto* b = reinterpret_cast<__m128i*>(block.data());
  __m128i s = _mm_xor_si128(_mm_loadu_si128(b), _mm_loadu_si128(k));
  for (int round = 1; round <= 9; ++round) {
    s = _mm_aesenc_si128(s, _mm_loadu_si128(k + round));
  }
  s = _mm_aesenclast_si128(s, _mm_loadu_si128(k + 10));
  _mm_storeu_si128(b, s);
}
#else
void expand_key_hw(const Key128& key, RoundKeys& rk) {
  expand_key_portable(key, rk);
}

void encrypt_block_hw(const RoundKeys& rk, Block& block) {
  encrypt_block_portable(rk, block);
}
#endif

void expand_key_portable(const Key128& key, RoundKeys& rk) {
  // Key expansion (FIPS-197 §5.2).
  for (int i = 0; i < 16; ++i) rk[static_cast<std::size_t>(i)] = key[static_cast<std::size_t>(i)];
  for (int i = 4; i < 44; ++i) {
    std::array<std::uint8_t, 4> temp = {
        rk[static_cast<std::size_t>(4 * (i - 1))],
        rk[static_cast<std::size_t>(4 * (i - 1) + 1)],
        rk[static_cast<std::size_t>(4 * (i - 1) + 2)],
        rk[static_cast<std::size_t>(4 * (i - 1) + 3)]};
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[static_cast<std::size_t>(i / 4 - 1)]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (int j = 0; j < 4; ++j) {
      rk[static_cast<std::size_t>(4 * i + j)] = static_cast<std::uint8_t>(
          rk[static_cast<std::size_t>(4 * (i - 4) + j)] ^ temp[static_cast<std::size_t>(j)]);
    }
  }
}

void encrypt_block_portable(const RoundKeys& rk, Block& s) {
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      s[static_cast<std::size_t>(i)] ^= rk[static_cast<std::size_t>(16 * round + i)];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : s) b = kSbox[b];
  };
  auto shift_rows = [&] {
    // State is column-major: s[col*4 + row].
    Block t = s;
    for (int r = 1; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        s[static_cast<std::size_t>(c * 4 + r)] =
            t[static_cast<std::size_t>(((c + r) % 4) * 4 + r)];
      }
    }
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      const std::size_t base = static_cast<std::size_t>(c * 4);
      const std::uint8_t a0 = s[base], a1 = s[base + 1], a2 = s[base + 2],
                         a3 = s[base + 3];
      s[base] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
      s[base + 1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
      s[base + 2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
      s[base + 3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
}

}  // namespace detail

Aes128::Aes128(const Key128& key) {
  if (detail::hardware_aes()) {
    detail::expand_key_hw(key, round_keys_);
  } else {
    detail::expand_key_portable(key, round_keys_);
  }
}

void Aes128::encrypt_block(Block& block) const {
  if (detail::hardware_aes()) {
    detail::encrypt_block_hw(round_keys_, block);
  } else {
    detail::encrypt_block_portable(round_keys_, block);
  }
}

Block Aes128::encrypt(const Block& block) const {
  Block out = block;
  encrypt_block(out);
  return out;
}

Block to_block(BytesView data) {
  if (data.size() != 16) throw std::invalid_argument("to_block: need 16 bytes");
  Block b;
  for (std::size_t i = 0; i < 16; ++i) b[i] = data[i];
  return b;
}

Key128 to_key(BytesView data) {
  if (data.size() != 16) throw std::invalid_argument("to_key: need 16 bytes");
  Key128 k;
  for (std::size_t i = 0; i < 16; ++i) k[i] = data[i];
  return k;
}

}  // namespace seed::crypto

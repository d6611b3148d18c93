#pragma once
// SipHash-2-4 (Aumasson and Bernstein, "SipHash: a fast short-input PRF",
// 2012): a keyed 64-bit tag over a byte string, two rounds per 8-byte word
// and four to finalize. The runtime's frame tag; a byte-serial checksum
// costs one dependent step per byte, this one step per word.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ringnet::util {

/// The 128-bit key as two little-endian words: bytes 0..7 and 8..15.
struct SipKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

inline std::uint64_t siphash24(const SipKey& key, const std::uint8_t* data,
                               std::size_t size) {
  static_assert(std::endian::native == std::endian::little,
                "message words are loaded in native byte order");
  std::uint64_t v0 = 0x736f6d6570736575ull ^ key.k0;
  std::uint64_t v1 = 0x646f72616e646f6dull ^ key.k1;
  std::uint64_t v2 = 0x6c7967656e657261ull ^ key.k0;
  std::uint64_t v3 = 0x7465646279746573ull ^ key.k1;
  const auto round = [&] {
    v0 += v1;
    v1 = std::rotl(v1, 13) ^ v0;
    v0 = std::rotl(v0, 32);
    v2 += v3;
    v3 = std::rotl(v3, 16) ^ v2;
    v0 += v3;
    v3 = std::rotl(v3, 21) ^ v0;
    v2 += v1;
    v1 = std::rotl(v1, 17) ^ v2;
    v2 = std::rotl(v2, 32);
  };
  const auto absorb = [&](std::uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  };
  const std::size_t whole = size & ~std::size_t{7};
  for (std::size_t i = 0; i < whole; i += 8) {
    std::uint64_t m = 0;
    std::memcpy(&m, data + i, 8);
    absorb(m);
  }
  // The last word: the 0..7 leftover bytes, and the length's low byte on top.
  std::uint64_t last = 0;
  if (size > whole) std::memcpy(&last, data + whole, size - whole);
  absorb(last | (static_cast<std::uint64_t>(size) << 56));
  v2 ^= 0xff;
  round();
  round();
  round();
  round();
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace ringnet::util

#ifndef MUFUZZ_COMMON_ADDRESS_H_
#define MUFUZZ_COMMON_ADDRESS_H_

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/u256.h"

namespace mufuzz {

/// A 160-bit Ethereum account address.
struct Address {
  std::array<uint8_t, 20> bytes{};

  Address() = default;

  /// Builds a deterministic address from a small integer (test/fuzzer
  /// convenience): the integer is placed big-endian in the low bytes.
  static Address FromUint(uint64_t v) {
    Address a;
    for (int i = 0; i < 8; ++i) {
      a.bytes[19 - i] = static_cast<uint8_t>(v >> (8 * i));
    }
    return a;
  }

  /// Truncates a 256-bit word to its low 160 bits (EVM address coercion).
  static Address FromWord(const U256& w) {
    auto raw = w.ToBytesBE();
    Address a;
    std::copy(raw.begin() + 12, raw.end(), a.bytes.begin());
    return a;
  }

  /// Zero-extends into a 256-bit word. Reads the bytes in place — this is
  /// on the interpreter's per-opcode path (ADDRESS/CALLER/ORIGIN and the
  /// call family), so it must not allocate.
  U256 ToWord() const {
    // Limb 0 holds address bytes 12..19, limb 1 bytes 4..11, and limb 2
    // the top four bytes 0..3.
    const uint8_t* b = bytes.data();
    const uint64_t top = (uint64_t{b[0]} << 24) | (uint64_t{b[1]} << 16) |
                         (uint64_t{b[2]} << 8) | uint64_t{b[3]};
    return U256(U256::LoadU64BE(b + 12), U256::LoadU64BE(b + 4), top, 0);
  }

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  std::string ToHex() const {
    return HexEncode0x(BytesView(bytes.data(), bytes.size()));
  }

  bool operator==(const Address&) const = default;
  auto operator<=>(const Address&) const = default;

  /// Hash for the world state's account map, which every Touch, Find,
  /// Transfer and Ensure probes. Three unaligned loads cover all 20 bytes;
  /// each is folded in with an xor-shift and an odd multiply, both
  /// bijections, so changing any single byte always changes the hash.
  struct Hasher {
    size_t operator()(const Address& a) const {
      constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
      uint64_t w0, w1;
      uint32_t w2;
      std::memcpy(&w0, a.bytes.data(), 8);
      std::memcpy(&w1, a.bytes.data() + 8, 8);
      std::memcpy(&w2, a.bytes.data() + 16, 4);
      uint64_t h = w0 * kMul;
      h = (h ^ (h >> 32) ^ w1) * kMul;
      h = (h ^ (h >> 32) ^ w2) * kMul;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
};

}  // namespace mufuzz

#endif  // MUFUZZ_COMMON_ADDRESS_H_

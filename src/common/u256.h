#ifndef MUFUZZ_COMMON_U256_H_
#define MUFUZZ_COMMON_U256_H_

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace mufuzz {

/// 256-bit unsigned integer with EVM wrap-around semantics.
///
/// Stored as four 64-bit limbs, little-endian (limb 0 holds the least
/// significant 64 bits). All arithmetic wraps modulo 2^256, matching the
/// Ethereum Virtual Machine. Signed operations (Sdiv, Smod, Slt, Sgt, Sar,
/// SignExtend) interpret the value as two's complement, again per EVM.
class U256 {
 public:
  /// Zero value.
  constexpr U256() : limbs_{0, 0, 0, 0} {}
  /// Constructs from a 64-bit value.
  constexpr explicit U256(uint64_t v) : limbs_{v, 0, 0, 0} {}
  /// Constructs from explicit limbs, least significant first.
  constexpr U256(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3)
      : limbs_{l0, l1, l2, l3} {}

  static constexpr U256 Zero() { return U256(); }
  static constexpr U256 One() { return U256(1); }
  static constexpr U256 Max() {
    return U256(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  }
  /// 2^255, the minimum value when interpreted as signed.
  static constexpr U256 SignBit() { return U256(0, 0, 0, 1ULL << 63); }

  /// Parses from big-endian bytes (at most 32); shorter inputs are
  /// zero-extended on the left, longer inputs are an error.
  static Result<U256> FromBytesBE(BytesView bytes);
  /// Loads exactly 32 big-endian bytes from `bytes`. The infallible form of
  /// FromBytesBE for the interpreter's hot loads (MLOAD, CALLDATALOAD,
  /// hash digests), which must not build a Result.
  static U256 FromBytesBE32(const uint8_t* bytes) {
    return U256(LoadU64BE(bytes + 24), LoadU64BE(bytes + 16),
                LoadU64BE(bytes + 8), LoadU64BE(bytes));
  }
  /// Reads 8 big-endian bytes from `bytes` (no alignment needed).
  static uint64_t LoadU64BE(const uint8_t* bytes) {
    uint64_t v;
    std::memcpy(&v, bytes, 8);
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  /// Parses from a hex string with optional 0x prefix.
  static Result<U256> FromHex(std::string_view hex);
  /// Parses from a decimal string; errors on overflow or bad digits.
  static Result<U256> FromDecimal(std::string_view dec);
  /// Builds 10^exp (exp <= 77); used for ether-unit scaling.
  static U256 PowerOfTen(unsigned exp);

  uint64_t limb(int i) const { return limbs_[i]; }
  /// Low 64 bits (truncating).
  uint64_t low64() const { return limbs_[0]; }
  /// True if the value fits in 64 bits.
  bool FitsU64() const {
    return limbs_[1] == 0 && limbs_[2] == 0 && limbs_[3] == 0;
  }
  bool IsZero() const {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }
  /// Sign bit when interpreted as two's complement.
  bool IsNegativeSigned() const { return (limbs_[3] >> 63) != 0; }
  /// Number of significant bits (0 for zero).
  int BitLength() const;
  /// Value of bit `i` (0 = least significant).
  bool GetBit(int i) const {
    return (limbs_[i >> 6] >> (i & 63)) & 1;
  }

  // -- Wrapping arithmetic (EVM semantics). -------------------------------
  // + and - (and <=> below) run on every ADD/SUB/LT/GT and in the overflow
  // checks, so they are defined here for inlining.
  U256 operator+(const U256& o) const {
    U256 out;
    unsigned __int128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(limbs_[i]) + o.limbs_[i] + carry;
      out.limbs_[i] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    return out;
  }
  U256 operator-(const U256& o) const {
    U256 out;
    uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(limbs_[i]) - o.limbs_[i] - borrow;
      out.limbs_[i] = static_cast<uint64_t>(cur);
      borrow = static_cast<uint64_t>(cur >> 64) & 1;
    }
    return out;
  }
  U256 operator*(const U256& o) const;
  /// EVM DIV: division by zero yields zero.
  U256 operator/(const U256& o) const;
  /// EVM MOD: mod by zero yields zero.
  U256 operator%(const U256& o) const;
  U256 operator-() const { return U256() - *this; }

  /// EVM SDIV (two's complement; MIN/-1 == MIN; x/0 == 0).
  U256 Sdiv(const U256& o) const;
  /// EVM SMOD (sign follows dividend; x%0 == 0).
  U256 Smod(const U256& o) const;
  /// EVM ADDMOD with 512-bit intermediate.
  static U256 AddMod(const U256& a, const U256& b, const U256& m);
  /// EVM MULMOD with 512-bit intermediate.
  static U256 MulMod(const U256& a, const U256& b, const U256& m);
  /// EVM EXP (wrapping).
  U256 Exp(const U256& exponent) const;
  /// EVM SIGNEXTEND: sign-extends from byte index k (0 = lowest byte).
  U256 SignExtend(const U256& k) const;

  // -- Overflow-aware helpers (used by the integer-overflow oracle). ------
  /// a + b, reporting whether the true sum exceeded 2^256-1.
  static bool AddOverflows(const U256& a, const U256& b);
  /// a - b, reporting whether it underflowed below zero.
  static bool SubUnderflows(const U256& a, const U256& b);
  /// a * b, reporting whether the true product exceeded 2^256-1.
  static bool MulOverflows(const U256& a, const U256& b);

  // -- Bitwise. ------------------------------------------------------------
  U256 operator&(const U256& o) const;
  U256 operator|(const U256& o) const;
  U256 operator^(const U256& o) const;
  U256 operator~() const;
  /// Logical shift left; shifts >= 256 yield zero.
  U256 operator<<(unsigned n) const;
  /// Logical shift right; shifts >= 256 yield zero.
  U256 operator>>(unsigned n) const;
  /// Arithmetic shift right (EVM SAR).
  U256 Sar(unsigned n) const;
  /// EVM BYTE: the i-th byte counting from the most significant (0..31);
  /// out-of-range yields zero.
  U256 Byte(const U256& i) const;

  // -- Comparison. -----------------------------------------------------------
  bool operator==(const U256& o) const { return limbs_ == o.limbs_; }
  std::strong_ordering operator<=>(const U256& o) const {
    for (int i = 3; i >= 0; --i) {
      if (limbs_[i] != o.limbs_[i]) {
        return limbs_[i] < o.limbs_[i] ? std::strong_ordering::less
                                       : std::strong_ordering::greater;
      }
    }
    return std::strong_ordering::equal;
  }
  /// EVM SLT: signed less-than.
  bool Slt(const U256& o) const;
  /// EVM SGT: signed greater-than.
  bool Sgt(const U256& o) const;

  // -- Conversion. -----------------------------------------------------------
  /// 32-byte big-endian representation.
  std::array<uint8_t, 32> ToBytesBE() const;
  /// Appends the 32-byte big-endian representation to `out`.
  void AppendBytesBE(Bytes* out) const;
  /// Minimal "0x…" hex rendering.
  std::string ToHex() const;
  /// Decimal rendering.
  std::string ToDecimal() const;

  /// Hash functor for unordered containers.
  struct Hasher {
    size_t operator()(const U256& v) const {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (int i = 0; i < 4; ++i) h = HashCombine(h, v.limbs_[i]);
      return static_cast<size_t>(h);
    }
  };

  /// |a - b| as a saturating uint64 — the branch-distance metric's core,
  /// run for every comparison feeding a branch, so it is inline too.
  static uint64_t AbsDiffSaturated(const U256& a, const U256& b) {
    U256 diff = (a > b) ? (a - b) : (b - a);
    return diff.FitsU64() ? diff.low64() : UINT64_MAX;
  }

 private:
  std::array<uint64_t, 4> limbs_;
};

}  // namespace mufuzz

#endif  // MUFUZZ_COMMON_U256_H_

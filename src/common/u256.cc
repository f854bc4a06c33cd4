#include "common/u256.h"

#include <algorithm>
#include <cstring>

namespace mufuzz {

namespace {

using u128 = unsigned __int128;

/// Multiplies two 4-limb numbers into an 8-limb product (little-endian).
void MulFull(const std::array<uint64_t, 4>& a, const std::array<uint64_t, 4>& b,
             uint64_t out[8]) {
  std::memset(out, 0, 8 * sizeof(uint64_t));
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + 4] = carry;
  }
}

/// Long division of an n-limb little-endian numerator by a 256-bit
/// denominator. Writes the quotient (n limbs) and 256-bit remainder.
/// Denominator must be nonzero.
void DivModWide(const uint64_t* num, int n, const U256& den, uint64_t* quot,
                U256* rem) {
  // Binary long division, processing bits from most significant down.
  // The remainder accumulator needs one limb of headroom beyond 256 bits.
  uint64_t r[5] = {0, 0, 0, 0, 0};
  uint64_t d[5] = {den.limb(0), den.limb(1), den.limb(2), den.limb(3), 0};
  std::memset(quot, 0, n * sizeof(uint64_t));

  auto r_geq_d = [&]() {
    for (int i = 4; i >= 0; --i) {
      if (r[i] != d[i]) return r[i] > d[i];
    }
    return true;
  };
  auto r_sub_d = [&]() {
    u128 borrow = 0;
    for (int i = 0; i < 5; ++i) {
      u128 cur = static_cast<u128>(r[i]) - d[i] - borrow;
      r[i] = static_cast<uint64_t>(cur);
      borrow = (cur >> 64) ? 1 : 0;
    }
  };

  for (int bit = n * 64 - 1; bit >= 0; --bit) {
    // r = (r << 1) | num_bit
    for (int i = 4; i > 0; --i) r[i] = (r[i] << 1) | (r[i - 1] >> 63);
    r[0] <<= 1;
    if ((num[bit >> 6] >> (bit & 63)) & 1) r[0] |= 1;
    if (r_geq_d()) {
      r_sub_d();
      quot[bit >> 6] |= (1ULL << (bit & 63));
    }
  }
  *rem = U256(r[0], r[1], r[2], r[3]);
}

/// 256/256 division helper returning quotient and remainder.
void DivMod256(const U256& a, const U256& b, U256* q, U256* r) {
  if (b.IsZero()) {
    *q = U256::Zero();
    *r = U256::Zero();
    return;
  }
  if (a < b) {
    *q = U256::Zero();
    *r = a;
    return;
  }
  // Fast path: both fit in 64 bits.
  if (a.FitsU64() && b.FitsU64()) {
    *q = U256(a.low64() / b.low64());
    *r = U256(a.low64() % b.low64());
    return;
  }
  // 64-bit divisor: schoolbook division one limb at a time. The running
  // remainder stays below b, so each 128/64 step's quotient fits a limb.
  if (b.FitsU64()) {
    const uint64_t d = b.low64();
    uint64_t quot[4];
    uint64_t rem = 0;
    for (int i = 3; i >= 0; --i) {
      u128 cur = (static_cast<u128>(rem) << 64) | a.limb(i);
      quot[i] = static_cast<uint64_t>(cur / d);
      rem = static_cast<uint64_t>(cur % d);
    }
    *q = U256(quot[0], quot[1], quot[2], quot[3]);
    *r = U256(rem);
    return;
  }
  uint64_t num[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
  uint64_t quot[4];
  DivModWide(num, 4, b, quot, r);
  *q = U256(quot[0], quot[1], quot[2], quot[3]);
}

}  // namespace

Result<U256> U256::FromBytesBE(BytesView bytes) {
  if (bytes.size() > 32) {
    return Status::InvalidArgument("U256::FromBytesBE: more than 32 bytes");
  }
  std::array<uint8_t, 32> buf{};
  std::copy(bytes.begin(), bytes.end(), buf.begin() + (32 - bytes.size()));
  return FromBytesBE32(buf.data());
}

Result<U256> U256::FromHex(std::string_view hex) {
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex.remove_prefix(2);
  }
  if (hex.empty() || hex.size() > 64) {
    return Status::InvalidArgument("U256::FromHex: bad length");
  }
  std::string padded(64 - hex.size(), '0');
  padded.append(hex);
  MUFUZZ_ASSIGN_OR_RETURN(Bytes raw, HexDecode(padded));
  return FromBytesBE(raw);
}

Result<U256> U256::FromDecimal(std::string_view dec) {
  if (dec.empty()) {
    return Status::InvalidArgument("U256::FromDecimal: empty string");
  }
  U256 acc;
  const U256 ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("U256::FromDecimal: bad digit");
    }
    if (MulOverflows(acc, ten)) {
      return Status::OutOfRange("U256::FromDecimal: overflow");
    }
    acc = acc * ten;
    U256 digit(static_cast<uint64_t>(c - '0'));
    if (AddOverflows(acc, digit)) {
      return Status::OutOfRange("U256::FromDecimal: overflow");
    }
    acc = acc + digit;
  }
  return acc;
}

U256 U256::PowerOfTen(unsigned exp) {
  U256 acc = One();
  const U256 ten(10);
  for (unsigned i = 0; i < exp; ++i) acc = acc * ten;
  return acc;
}

int U256::BitLength() const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[i] != 0) {
      return i * 64 + 64 - __builtin_clzll(limbs_[i]);
    }
  }
  return 0;
}

U256 U256::operator*(const U256& o) const {
  uint64_t full[8];
  MulFull(limbs_, o.limbs_, full);
  return U256(full[0], full[1], full[2], full[3]);
}

U256 U256::operator/(const U256& o) const {
  U256 q, r;
  DivMod256(*this, o, &q, &r);
  return q;
}

U256 U256::operator%(const U256& o) const {
  U256 q, r;
  DivMod256(*this, o, &q, &r);
  return r;
}

U256 U256::Sdiv(const U256& o) const {
  if (o.IsZero()) return Zero();
  bool neg_a = IsNegativeSigned();
  bool neg_b = o.IsNegativeSigned();
  U256 abs_a = neg_a ? -*this : *this;
  U256 abs_b = neg_b ? -o : o;
  U256 q = abs_a / abs_b;
  return (neg_a != neg_b) ? -q : q;
}

U256 U256::Smod(const U256& o) const {
  if (o.IsZero()) return Zero();
  bool neg_a = IsNegativeSigned();
  U256 abs_a = neg_a ? -*this : *this;
  U256 abs_b = o.IsNegativeSigned() ? -o : o;
  U256 r = abs_a % abs_b;
  return neg_a ? -r : r;
}

U256 U256::AddMod(const U256& a, const U256& b, const U256& m) {
  if (m.IsZero()) return Zero();
  // 257-bit sum in 5 limbs.
  uint64_t sum[5];
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 cur = static_cast<u128>(a.limbs_[i]) + b.limbs_[i] + carry;
    sum[i] = static_cast<uint64_t>(cur);
    carry = cur >> 64;
  }
  sum[4] = static_cast<uint64_t>(carry);
  uint64_t quot[5];
  U256 rem;
  DivModWide(sum, 5, m, quot, &rem);
  return rem;
}

U256 U256::MulMod(const U256& a, const U256& b, const U256& m) {
  if (m.IsZero()) return Zero();
  uint64_t full[8];
  MulFull(a.limbs_, b.limbs_, full);
  uint64_t quot[8];
  U256 rem;
  DivModWide(full, 8, m, quot, &rem);
  return rem;
}

U256 U256::Exp(const U256& exponent) const {
  U256 base = *this;
  U256 result = One();
  int bits = exponent.BitLength();
  for (int i = 0; i < bits; ++i) {
    if (exponent.GetBit(i)) result = result * base;
    base = base * base;
  }
  return result;
}

U256 U256::SignExtend(const U256& k) const {
  if (!k.FitsU64() || k.low64() >= 31) return *this;
  int byte_index = static_cast<int>(k.low64());
  int sign_pos = byte_index * 8 + 7;
  bool sign = GetBit(sign_pos);
  U256 out = *this;
  for (int bit = sign_pos + 1; bit < 256; ++bit) {
    int limb = bit >> 6;
    uint64_t mask = 1ULL << (bit & 63);
    if (sign) {
      out.limbs_[limb] |= mask;
    } else {
      out.limbs_[limb] &= ~mask;
    }
  }
  return out;
}

bool U256::AddOverflows(const U256& a, const U256& b) {
  return a + b < a;
}

bool U256::SubUnderflows(const U256& a, const U256& b) { return a < b; }

bool U256::MulOverflows(const U256& a, const U256& b) {
  uint64_t full[8];
  MulFull(a.limbs_, b.limbs_, full);
  return (full[4] | full[5] | full[6] | full[7]) != 0;
}

U256 U256::operator&(const U256& o) const {
  return U256(limbs_[0] & o.limbs_[0], limbs_[1] & o.limbs_[1],
              limbs_[2] & o.limbs_[2], limbs_[3] & o.limbs_[3]);
}

U256 U256::operator|(const U256& o) const {
  return U256(limbs_[0] | o.limbs_[0], limbs_[1] | o.limbs_[1],
              limbs_[2] | o.limbs_[2], limbs_[3] | o.limbs_[3]);
}

U256 U256::operator^(const U256& o) const {
  return U256(limbs_[0] ^ o.limbs_[0], limbs_[1] ^ o.limbs_[1],
              limbs_[2] ^ o.limbs_[2], limbs_[3] ^ o.limbs_[3]);
}

U256 U256::operator~() const {
  return U256(~limbs_[0], ~limbs_[1], ~limbs_[2], ~limbs_[3]);
}

U256 U256::operator<<(unsigned n) const {
  if (n >= 256) return Zero();
  U256 out;
  unsigned limb_shift = n / 64;
  unsigned bit_shift = n % 64;
  for (int i = 3; i >= 0; --i) {
    uint64_t v = 0;
    int src = i - static_cast<int>(limb_shift);
    if (src >= 0) {
      v = limbs_[src] << bit_shift;
      if (bit_shift != 0 && src > 0) {
        v |= limbs_[src - 1] >> (64 - bit_shift);
      }
    }
    out.limbs_[i] = v;
  }
  return out;
}

U256 U256::operator>>(unsigned n) const {
  if (n >= 256) return Zero();
  U256 out;
  unsigned limb_shift = n / 64;
  unsigned bit_shift = n % 64;
  for (int i = 0; i < 4; ++i) {
    uint64_t v = 0;
    int src = i + static_cast<int>(limb_shift);
    if (src < 4) {
      v = limbs_[src] >> bit_shift;
      if (bit_shift != 0 && src < 3) {
        v |= limbs_[src + 1] << (64 - bit_shift);
      }
    }
    out.limbs_[i] = v;
  }
  return out;
}

U256 U256::Sar(unsigned n) const {
  bool neg = IsNegativeSigned();
  if (n >= 256) return neg ? Max() : Zero();
  U256 out = *this >> n;
  if (neg && n > 0) {
    // Fill the vacated high bits with ones.
    U256 fill = Max() << (256 - n);
    out = out | fill;
  }
  return out;
}

U256 U256::Byte(const U256& i) const {
  if (!i.FitsU64() || i.low64() >= 32) return Zero();
  unsigned shift = 8 * (31 - static_cast<unsigned>(i.low64()));
  U256 shifted = *this >> shift;
  return U256(shifted.low64() & 0xff);
}

bool U256::Slt(const U256& o) const {
  bool na = IsNegativeSigned();
  bool nb = o.IsNegativeSigned();
  if (na != nb) return na;
  return *this < o;
}

bool U256::Sgt(const U256& o) const {
  bool na = IsNegativeSigned();
  bool nb = o.IsNegativeSigned();
  if (na != nb) return nb;
  return *this > o;
}

std::array<uint8_t, 32> U256::ToBytesBE() const {
  std::array<uint8_t, 32> out{};
  for (int i = 0; i < 4; ++i) {
    uint64_t v = limbs_[3 - i];
    for (int j = 0; j < 8; ++j) {
      out[i * 8 + j] = static_cast<uint8_t>(v >> (56 - 8 * j));
    }
  }
  return out;
}

void U256::AppendBytesBE(Bytes* out) const {
  auto raw = ToBytesBE();
  out->insert(out->end(), raw.begin(), raw.end());
}

std::string U256::ToHex() const {
  auto raw = ToBytesBE();
  // Strip leading zero bytes for a minimal rendering.
  size_t first = 0;
  while (first < 31 && raw[first] == 0) ++first;
  std::string hex = HexEncode(BytesView(raw.data() + first, 32 - first));
  // Strip a single leading zero nibble if present.
  if (hex.size() > 1 && hex[0] == '0') hex.erase(0, 1);
  return "0x" + hex;
}

std::string U256::ToDecimal() const {
  if (IsZero()) return "0";
  U256 v = *this;
  const U256 ten(10);
  std::string out;
  while (!v.IsZero()) {
    U256 q, r;
    DivMod256(v, ten, &q, &r);
    out.push_back(static_cast<char>('0' + r.low64()));
    v = q;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace mufuzz

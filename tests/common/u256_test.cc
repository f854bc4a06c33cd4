#include "common/u256.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.h"

namespace mufuzz {
namespace {

TEST(U256Test, DefaultIsZero) {
  U256 v;
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.low64(), 0u);
  EXPECT_TRUE(v.FitsU64());
}

TEST(U256Test, BasicAddition) {
  EXPECT_EQ(U256(2) + U256(3), U256(5));
  EXPECT_EQ(U256(0) + U256(0), U256(0));
}

TEST(U256Test, AdditionCarriesAcrossLimbs) {
  U256 a(~0ULL, 0, 0, 0);
  EXPECT_EQ(a + U256(1), U256(0, 1, 0, 0));
  U256 b(~0ULL, ~0ULL, ~0ULL, 0);
  EXPECT_EQ(b + U256(1), U256(0, 0, 0, 1));
}

TEST(U256Test, AdditionWrapsAtMax) {
  EXPECT_EQ(U256::Max() + U256(1), U256::Zero());
  EXPECT_EQ(U256::Max() + U256::Max(), U256::Max() - U256(1));
}

TEST(U256Test, SubtractionWraps) {
  EXPECT_EQ(U256(0) - U256(1), U256::Max());
  EXPECT_EQ(U256(5) - U256(3), U256(2));
}

TEST(U256Test, MultiplicationSmall) {
  EXPECT_EQ(U256(7) * U256(6), U256(42));
  EXPECT_EQ(U256(0) * U256::Max(), U256(0));
}

TEST(U256Test, MultiplicationCrossLimb) {
  // (2^64) * (2^64) = 2^128
  U256 two64(0, 1, 0, 0);
  EXPECT_EQ(two64 * two64, U256(0, 0, 1, 0));
}

TEST(U256Test, MultiplicationWraps) {
  // Max * Max mod 2^256 == 1.
  EXPECT_EQ(U256::Max() * U256::Max(), U256(1));
}

TEST(U256Test, DivisionBasic) {
  EXPECT_EQ(U256(42) / U256(6), U256(7));
  EXPECT_EQ(U256(43) / U256(6), U256(7));
  EXPECT_EQ(U256(43) % U256(6), U256(1));
}

TEST(U256Test, DivisionByZeroYieldsZero) {
  EXPECT_EQ(U256(42) / U256(0), U256(0));
  EXPECT_EQ(U256(42) % U256(0), U256(0));
}

TEST(U256Test, DivisionWide) {
  // (2^192 + 5) / 2^64 == 2^128 (integer division).
  U256 num = (U256(1) << 192) + U256(5);
  U256 den = U256(1) << 64;
  EXPECT_EQ(num / den, U256(1) << 128);
  EXPECT_EQ(num % den, U256(5));
}

TEST(U256Test, DivModReconstruction) {
  Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    U256 a(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    U256 b(rng.NextU64(), rng.NextU64(), i % 3 ? rng.NextU64() : 0,
           i % 5 ? rng.NextU64() : 0);
    if (b.IsZero()) continue;
    U256 q = a / b;
    U256 r = a % b;
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q * b + r, a) << "a=" << a.ToHex() << " b=" << b.ToHex();
  }
}

TEST(U256Test, DivModBy64BitDivisorReconstruction) {
  // Full-width dividends over divisors that fit one limb (the limb-wise
  // fast path), including its edges and dividends below the divisor.
  Rng rng(0xd1f);
  const uint64_t fixed[] = {1, uint64_t{1} << 32, UINT64_MAX};
  for (int i = 0; i < 600; ++i) {
    U256 a(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    if (i % 7 == 0) a = U256(rng.NextU64());
    uint64_t d = i < 300 ? fixed[i % 3] : rng.NextU64() >> rng.NextBelow(64);
    if (d == 0) d = 3;
    U256 b(d);
    U256 q = a / b;
    U256 r = a % b;
    EXPECT_TRUE(r < b) << "a=" << a.ToHex() << " b=" << b.ToHex();
    EXPECT_FALSE(U256::MulOverflows(q, b));
    EXPECT_EQ(q * b + r, a) << "a=" << a.ToHex() << " b=" << b.ToHex();
  }
  EXPECT_EQ(U256::Max() / U256(1), U256::Max());
  EXPECT_EQ(U256::Max() % U256(1), U256(0));
  EXPECT_EQ(U256::Max() / U256(uint64_t{1} << 32), U256::Max() >> 32);
  EXPECT_EQ(U256(5) / U256(UINT64_MAX), U256(0));
  EXPECT_EQ(U256(5) % U256(UINT64_MAX), U256(5));
}

TEST(U256Test, SignedDivision) {
  U256 minus_six = -U256(6);
  EXPECT_EQ(minus_six.Sdiv(U256(2)), -U256(3));
  EXPECT_EQ(minus_six.Sdiv(-U256(2)), U256(3));
  EXPECT_EQ(U256(7).Sdiv(-U256(2)), -U256(3));  // truncates toward zero
  EXPECT_EQ(U256(7).Sdiv(U256(0)), U256(0));
  // EVM edge case: MIN_SIGNED / -1 == MIN_SIGNED (wraps).
  EXPECT_EQ(U256::SignBit().Sdiv(-U256(1)), U256::SignBit());
}

TEST(U256Test, SignedModulo) {
  U256 minus_seven = -U256(7);
  EXPECT_EQ(minus_seven.Smod(U256(3)), -U256(1));  // sign follows dividend
  EXPECT_EQ(U256(7).Smod(-U256(3)), U256(1));
  EXPECT_EQ(U256(7).Smod(U256(0)), U256(0));
}

TEST(U256Test, AddModUsesWideIntermediate) {
  // (Max + Max) mod Max == 0; a narrow implementation would get this wrong.
  EXPECT_EQ(U256::AddMod(U256::Max(), U256::Max(), U256::Max()), U256(0));
  EXPECT_EQ(U256::AddMod(U256::Max(), U256(1), U256(10)),
            (U256::Max() % U256(10) + U256(1)) % U256(10));
  EXPECT_EQ(U256::AddMod(U256(5), U256(6), U256(0)), U256(0));
}

TEST(U256Test, MulModUsesWideIntermediate) {
  // Max * Max mod (Max - 1): Max ≡ 1 (mod Max-1), so result is 1.
  EXPECT_EQ(U256::MulMod(U256::Max(), U256::Max(), U256::Max() - U256(1)),
            U256(1));
  EXPECT_EQ(U256::MulMod(U256(7), U256(6), U256(5)), U256(2));
  EXPECT_EQ(U256::MulMod(U256(7), U256(6), U256(0)), U256(0));
}

TEST(U256Test, Exponentiation) {
  EXPECT_EQ(U256(2).Exp(U256(10)), U256(1024));
  EXPECT_EQ(U256(10).Exp(U256(0)), U256(1));
  EXPECT_EQ(U256(0).Exp(U256(0)), U256(1));  // EVM: 0**0 == 1
  EXPECT_EQ(U256(2).Exp(U256(255)), U256::SignBit());
  EXPECT_EQ(U256(2).Exp(U256(256)), U256(0));  // wraps
}

TEST(U256Test, SignExtend) {
  // Sign-extend 0xff from byte 0 -> all ones.
  EXPECT_EQ(U256(0xff).SignExtend(U256(0)), U256::Max());
  // 0x7f has sign bit clear -> unchanged.
  EXPECT_EQ(U256(0x7f).SignExtend(U256(0)), U256(0x7f));
  // k >= 31 is a no-op.
  EXPECT_EQ(U256(0xff).SignExtend(U256(31)), U256(0xff));
  EXPECT_EQ(U256(0xff).SignExtend(U256::Max()), U256(0xff));
}

TEST(U256Test, OverflowPredicates) {
  EXPECT_TRUE(U256::AddOverflows(U256::Max(), U256(1)));
  EXPECT_FALSE(U256::AddOverflows(U256::Max() - U256(1), U256(1)));
  EXPECT_TRUE(U256::SubUnderflows(U256(0), U256(1)));
  EXPECT_FALSE(U256::SubUnderflows(U256(1), U256(1)));
  EXPECT_TRUE(U256::MulOverflows(U256::Max(), U256(2)));
  EXPECT_FALSE(U256::MulOverflows(U256(1) << 127, U256(2)));
  EXPECT_TRUE(U256::MulOverflows(U256(1) << 128, U256(1) << 128));
}

TEST(U256Test, ShiftsAndRotations) {
  EXPECT_EQ(U256(1) << 0, U256(1));
  EXPECT_EQ(U256(1) << 64, U256(0, 1, 0, 0));
  EXPECT_EQ(U256(1) << 255, U256::SignBit());
  EXPECT_EQ(U256(1) << 256, U256(0));
  EXPECT_EQ(U256::SignBit() >> 255, U256(1));
  EXPECT_EQ(U256::Max() >> 256, U256(0));
  EXPECT_EQ((U256(0xff) << 100) >> 100, U256(0xff));
}

TEST(U256Test, ArithmeticShiftRight) {
  EXPECT_EQ(U256::SignBit().Sar(255), U256::Max());
  EXPECT_EQ(U256(8).Sar(2), U256(2));
  EXPECT_EQ((-U256(8)).Sar(2), -U256(2));
  EXPECT_EQ(U256::SignBit().Sar(256), U256::Max());
  EXPECT_EQ(U256(5).Sar(256), U256(0));
}

TEST(U256Test, ByteExtraction) {
  auto v = U256::FromHex("0x0102030405").value();
  EXPECT_EQ(v.Byte(U256(31)), U256(0x05));
  EXPECT_EQ(v.Byte(U256(27)), U256(0x01));
  EXPECT_EQ(v.Byte(U256(0)), U256(0x00));
  EXPECT_EQ(v.Byte(U256(32)), U256(0x00));
  EXPECT_EQ(v.Byte(U256::Max()), U256(0x00));
}

TEST(U256Test, UnsignedComparison) {
  EXPECT_LT(U256(1), U256(2));
  EXPECT_GT(U256(0, 0, 0, 1), U256(~0ULL, ~0ULL, ~0ULL, 0));
  EXPECT_EQ(U256(7), U256(7));
}

TEST(U256Test, SignedComparison) {
  U256 minus_one = -U256(1);
  EXPECT_TRUE(minus_one.Slt(U256(0)));
  EXPECT_TRUE(U256(0).Sgt(minus_one));
  EXPECT_FALSE(U256(1).Slt(U256(1)));
  EXPECT_TRUE(U256::SignBit().Slt(U256(0)));  // most negative < 0
}

TEST(U256Test, BytesRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    U256 v(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    auto raw = v.ToBytesBE();
    auto back = U256::FromBytesBE(BytesView(raw.data(), raw.size()));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), v);
  }
}

TEST(U256Test, FromBytesShortInputZeroExtends) {
  Bytes one = {0x01};
  EXPECT_EQ(U256::FromBytesBE(one).value(), U256(1));
  Bytes empty;
  EXPECT_EQ(U256::FromBytesBE(empty).value(), U256(0));
}

TEST(U256Test, FromBytesTooLongFails) {
  Bytes long_input(33, 0xab);
  EXPECT_FALSE(U256::FromBytesBE(long_input).ok());
}

TEST(U256Test, HexRoundTrip) {
  auto v = U256::FromHex("0xdeadbeef").value();
  EXPECT_EQ(v, U256(0xdeadbeefULL));
  EXPECT_EQ(v.ToHex(), "0xdeadbeef");
  EXPECT_EQ(U256(0).ToHex(), "0x0");
  EXPECT_FALSE(U256::FromHex("").ok());
  EXPECT_FALSE(U256::FromHex("0xzz").ok());
  EXPECT_FALSE(U256::FromHex(std::string(65, 'f')).ok());
}

TEST(U256Test, DecimalConversion) {
  EXPECT_EQ(U256::FromDecimal("0").value(), U256(0));
  EXPECT_EQ(U256::FromDecimal("123456789").value(), U256(123456789));
  EXPECT_EQ(U256(123456789).ToDecimal(), "123456789");
  EXPECT_EQ(U256::Max().ToDecimal(),
            "115792089237316195423570985008687907853269984665640564039457584007"
            "913129639935");
  EXPECT_FALSE(U256::FromDecimal("1x").ok());
  EXPECT_FALSE(U256::FromDecimal("").ok());
  // Max+1 overflows.
  EXPECT_FALSE(U256::FromDecimal(
                   "115792089237316195423570985008687907853269984665640564039"
                   "457584007913129639936")
                   .ok());
}

TEST(U256Test, PowerOfTenMatchesEtherUnits) {
  EXPECT_EQ(U256::PowerOfTen(0), U256(1));
  EXPECT_EQ(U256::PowerOfTen(15), U256(1000000000000000ULL));  // finney
  EXPECT_EQ(U256::PowerOfTen(18), U256(1000000000000000000ULL));  // ether
}

TEST(U256Test, BitLength) {
  EXPECT_EQ(U256(0).BitLength(), 0);
  EXPECT_EQ(U256(1).BitLength(), 1);
  EXPECT_EQ(U256(255).BitLength(), 8);
  EXPECT_EQ(U256::SignBit().BitLength(), 256);
  EXPECT_EQ(U256::Max().BitLength(), 256);
}

TEST(U256Test, AbsDiffSaturated) {
  EXPECT_EQ(U256::AbsDiffSaturated(U256(10), U256(3)), 7u);
  EXPECT_EQ(U256::AbsDiffSaturated(U256(3), U256(10)), 7u);
  EXPECT_EQ(U256::AbsDiffSaturated(U256(5), U256(5)), 0u);
  EXPECT_EQ(U256::AbsDiffSaturated(U256::Max(), U256(0)), UINT64_MAX);
}

// Reference arithmetic over 32-byte big-endian arrays, one byte at a time:
// independent of the limb layout the inline operators work on.
using Be32 = std::array<uint8_t, 32>;

Be32 ByteWiseAdd(const Be32& a, const Be32& b) {
  Be32 out{};
  unsigned carry = 0;
  for (int i = 31; i >= 0; --i) {
    unsigned sum = a[i] + b[i] + carry;
    out[i] = static_cast<uint8_t>(sum);
    carry = sum >> 8;
  }
  return out;
}

Be32 ByteWiseSub(const Be32& a, const Be32& b) {
  Be32 out{};
  int borrow = 0;
  for (int i = 31; i >= 0; --i) {
    int diff = int{a[i]} - int{b[i]} - borrow;
    borrow = diff < 0 ? 1 : 0;
    out[i] = static_cast<uint8_t>(diff + 256 * borrow);
  }
  return out;
}

int ByteWiseCompare(const Be32& a, const Be32& b) {
  for (int i = 0; i < 32; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// Values on either side of every limb boundary, where carries and
/// borrows cross limbs.
std::vector<U256> CarryBoundaryValues() {
  std::vector<U256> values = {U256(), U256(1), U256::Max(), U256::SignBit()};
  for (int limb = 0; limb < 4; ++limb) {
    uint64_t l[4] = {0, 0, 0, 0};
    l[limb] = ~0ULL;  // 2^(64(limb+1)) - 2^(64 limb)
    values.push_back(U256(l[0], l[1], l[2], l[3]));
    U256 low_ones = U256::Max() >> (256 - 64 * (limb + 1));
    values.push_back(low_ones);            // 2^(64(limb+1)) - 1
    values.push_back(low_ones + U256(1));  // 2^(64(limb+1)); 0 at limb 3
    values.push_back(low_ones - U256(1));
  }
  return values;
}

TEST(U256Test, InlineAddSubCompareMatchByteWiseReference) {
  std::vector<U256> values = CarryBoundaryValues();
  Rng rng(0x1f00);
  for (int i = 0; i < 64; ++i) {
    values.push_back(
        U256(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64()));
  }
  for (const U256& a : values) {
    for (const U256& b : values) {
      SCOPED_TRACE(a.ToHex() + " vs " + b.ToHex());
      const Be32 ab = a.ToBytesBE();
      const Be32 bb = b.ToBytesBE();
      EXPECT_EQ((a + b).ToBytesBE(), ByteWiseAdd(ab, bb));
      EXPECT_EQ((a - b).ToBytesBE(), ByteWiseSub(ab, bb));
      const int want = ByteWiseCompare(ab, bb);
      const auto got = a <=> b;
      EXPECT_EQ(got < 0, want < 0);
      EXPECT_EQ(got == 0, want == 0);
      EXPECT_EQ(got > 0, want > 0);
      const bool wrapped = ByteWiseCompare(ByteWiseAdd(ab, bb), ab) < 0;
      EXPECT_EQ(U256::AddOverflows(a, b), wrapped);
      EXPECT_EQ(U256::SubUnderflows(a, b), want < 0);
    }
  }
}

TEST(U256Test, FromBytesBE32MatchesFromBytesBE) {
  Rng rng(0x3232);
  for (int i = 0; i < 500; ++i) {
    uint8_t raw[40];
    for (uint8_t& b : raw) b = static_cast<uint8_t>(rng.NextU64());
    // Any start offset: the load must not assume alignment.
    const size_t off = rng.NextBelow(9);
    EXPECT_EQ(U256::FromBytesBE32(raw + off),
              U256::FromBytesBE(BytesView(raw + off, 32)).value());
  }
  Be32 ones;
  ones.fill(0xff);
  EXPECT_EQ(U256::FromBytesBE32(ones.data()), U256::Max());
  Be32 one{};
  one[31] = 1;
  EXPECT_EQ(U256::FromBytesBE32(one.data()), U256(1));
}

// Property sweep: wrap-around identities hold for random operands.
class U256PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(U256PropertyTest, AdditionCommutesAndAssociates) {
  Rng rng(GetParam());
  for (int i = 0; i < 64; ++i) {
    U256 a(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    U256 b(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    U256 c(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + U256(0), a);
    EXPECT_EQ(a - a, U256(0));
    EXPECT_EQ(a + (-a), U256(0));
  }
}

TEST_P(U256PropertyTest, MultiplicationDistributes) {
  Rng rng(GetParam() ^ 0x5555);
  for (int i = 0; i < 64; ++i) {
    U256 a(rng.NextU64(), rng.NextU64(), 0, 0);
    U256 b(rng.NextU64(), rng.NextU64(), 0, 0);
    U256 c(rng.NextU64(), rng.NextU64(), 0, 0);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * U256(1), a);
    EXPECT_EQ(a * U256(0), U256(0));
  }
}

TEST_P(U256PropertyTest, ShiftEquivalences) {
  Rng rng(GetParam() ^ 0xaaaa);
  for (int i = 0; i < 64; ++i) {
    U256 a(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    unsigned n = static_cast<unsigned>(rng.NextBelow(256));
    EXPECT_EQ(a << n, a * U256(2).Exp(U256(n)));
    EXPECT_EQ(a >> n, a / U256(2).Exp(U256(n)));
  }
}

TEST_P(U256PropertyTest, BitwiseDeMorgan) {
  Rng rng(GetParam() ^ 0x1111);
  for (int i = 0; i < 64; ++i) {
    U256 a(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    U256 b(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
    EXPECT_EQ(~(a & b), ~a | ~b);
    EXPECT_EQ(~(a | b), ~a & ~b);
    EXPECT_EQ(a ^ b, (a | b) & ~(a & b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, U256PropertyTest,
                         ::testing::Values(1, 42, 777, 31337, 0xdeadbeef));

}  // namespace
}  // namespace mufuzz

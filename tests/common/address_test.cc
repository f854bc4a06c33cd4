#include "common/address.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace mufuzz {
namespace {

TEST(AddressTest, HasherChangesWithEverySingleByte) {
  // The hash folds each of its three loads in through bijections, so a
  // change to any one of the 20 bytes must change it — for every byte
  // position and every replacement value.
  Rng rng(0xadd5);
  const Address::Hasher hash;
  std::vector<Address> bases = {Address(), Address::FromUint(0xc0de)};
  for (int i = 0; i < 4; ++i) {
    Address a;
    for (uint8_t& b : a.bytes) b = static_cast<uint8_t>(rng.NextU64());
    bases.push_back(a);
  }
  for (const Address& base : bases) {
    const size_t h = hash(base);
    for (size_t pos = 0; pos < base.bytes.size(); ++pos) {
      for (int delta = 1; delta < 256; ++delta) {
        Address changed = base;
        changed.bytes[pos] = static_cast<uint8_t>(changed.bytes[pos] + delta);
        ASSERT_NE(hash(changed), h) << base.ToHex() << " byte " << pos
                                    << " +" << delta;
      }
    }
  }
}

TEST(AddressTest, HasherSpreadsSmallIntegerAddresses) {
  // The fuzzer's accounts are FromUint addresses, which differ only in
  // their low bytes; their hashes must still differ in the low bits that
  // pick a bucket.
  const Address::Hasher hash;
  std::unordered_set<size_t> low_bits;
  for (uint64_t v = 0; v < 256; ++v) {
    low_bits.insert(hash(Address::FromUint(v)) & 0xffff);
  }
  EXPECT_GE(low_bits.size(), 250u);
}

TEST(AddressTest, ToWordZeroExtendsTheBigEndianBytes) {
  Address a;
  for (size_t i = 0; i < a.bytes.size(); ++i) {
    a.bytes[i] = static_cast<uint8_t>(0x11 * (i % 15 + 1));
  }
  std::array<uint8_t, 32> word{};
  std::copy(a.bytes.begin(), a.bytes.end(), word.begin() + 12);
  EXPECT_EQ(a.ToWord(), U256::FromBytesBE32(word.data()));
  EXPECT_EQ(Address::FromWord(a.ToWord()), a);
  EXPECT_EQ(Address::FromUint(0xc0de).ToWord(), U256(0xc0de));
}

}  // namespace
}  // namespace mufuzz

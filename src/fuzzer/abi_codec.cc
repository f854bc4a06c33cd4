#include "fuzzer/abi_codec.h"

#include <cassert>

namespace mufuzz::fuzzer {

namespace {

using lang::Type;
using lang::TypeKind;

/// Boundary/interesting values for uint256 fuzzing.
U256 InterestingUint(Rng* rng) {
  switch (rng->NextBelow(8)) {
    case 0:
      return U256(0);
    case 1:
      return U256(1);
    case 2:
      return U256(rng->NextBelow(256));           // small int
    case 3:
      return U256(1) << static_cast<unsigned>(rng->NextBelow(256));  // 2^k
    case 4: {
      U256 p = U256(1) << static_cast<unsigned>(rng->NextBelow(255));
      return rng->Chance(0.5) ? p - U256(1) : p + U256(1);  // 2^k ± 1
    }
    case 5:
      // Ether-scale: k * 10^15 (finney granularity, covers "88 finney").
      return U256(rng->NextBelow(1000)) * U256::PowerOfTen(15);
    case 6:
      return U256::Max() - U256(rng->NextBelow(4));
    default:
      return U256(rng->NextU64());
  }
}

}  // namespace

AbiCodec::AbiCodec(const lang::ContractAbi* abi,
                   std::vector<Address> sender_pool)
    : abi_(abi), sender_pool_(std::move(sender_pool)) {
  assert(!sender_pool_.empty());
}

Bytes AbiCodec::EncodeCalldata(const Tx& tx) const {
  Bytes data;
  EncodeCalldataInto(tx, &data);
  return data;
}

void AbiCodec::EncodeCalldataInto(const Tx& tx, Bytes* out) const {
  const lang::AbiFunction& fn = abi_->functions[tx.fn_index];
  out->clear();
  AppendU32BE(out, fn.selector);
  for (size_t i = 0; i < fn.inputs.size(); ++i) {
    U256 word = i < tx.args.size() ? tx.args[i] : U256(0);
    word.AppendBytesBE(out);
  }
}

U256 AbiCodec::RandomValueForType(const Type& type, Rng* rng) const {
  switch (type.kind) {
    case TypeKind::kBool:
      return U256(rng->NextBelow(2));
    case TypeKind::kAddress: {
      // Mostly known actors; occasionally a fresh random address.
      if (rng->Chance(0.8)) {
        return sender_pool_[rng->NextBelow(sender_pool_.size())].ToWord();
      }
      return Address::FromUint(rng->NextU64()).ToWord();
    }
    case TypeKind::kUint256:
    default:
      return InterestingUint(rng);
  }
}

Tx AbiCodec::RandomTx(int fn_index, Rng* rng) const {
  const lang::AbiFunction& fn = abi_->functions[fn_index];
  Tx tx;
  tx.fn_index = fn_index;
  for (const auto& input : fn.inputs) {
    tx.args.push_back(RandomValueForType(input.type, rng));
  }
  if (fn.payable && rng->Chance(0.6)) {
    tx.value = InterestingUint(rng);
  } else if (!fn.payable && rng->Chance(0.1)) {
    // Real fuzzers also probe invalid inputs: value on a non-payable
    // function exercises the payable-guard's revert direction.
    tx.value = U256(1 + rng->NextBelow(1000));
  }
  tx.sender_index = static_cast<int>(rng->NextBelow(sender_pool_.size()));
  return tx;
}

void AbiCodec::ToByteStreamInto(const Tx& tx, Bytes* out) const {
  const lang::AbiFunction& fn = abi_->functions[tx.fn_index];
  out->clear();
  out->reserve(32 * (1 + fn.inputs.size()));
  tx.value.AppendBytesBE(out);
  for (size_t i = 0; i < fn.inputs.size(); ++i) {
    U256 word = i < tx.args.size() ? tx.args[i] : U256(0);
    word.AppendBytesBE(out);
  }
}

void AbiCodec::FromByteStream(BytesView stream, Tx* tx) const {
  const lang::AbiFunction& fn = abi_->functions[tx->fn_index];
  auto word_at = [&](size_t index) {
    uint8_t buf[32] = {0};
    for (size_t i = 0; i < 32; ++i) {
      size_t idx = index * 32 + i;
      if (idx < stream.size()) buf[i] = stream[idx];
    }
    return U256::FromBytesBE32(buf);
  };
  tx->value = word_at(0);
  tx->args.resize(fn.inputs.size());
  for (size_t i = 0; i < fn.inputs.size(); ++i) {
    U256 word = word_at(i + 1);
    if (fn.inputs[i].type.kind == lang::TypeKind::kAddress) {
      word = Address::FromWord(word).ToWord();  // truncate to 160 bits
    } else if (fn.inputs[i].type.kind == lang::TypeKind::kBool) {
      word = word.IsZero() ? U256(0) : U256(1);
    }
    tx->args[i] = word;
  }
}

size_t AbiCodec::StreamLength(int fn_index) const {
  return 32 * (1 + abi_->functions[fn_index].inputs.size());
}

}  // namespace mufuzz::fuzzer

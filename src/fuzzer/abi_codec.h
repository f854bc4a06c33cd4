#ifndef MUFUZZ_FUZZER_ABI_CODEC_H_
#define MUFUZZ_FUZZER_ABI_CODEC_H_

#include <vector>

#include "common/address.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/u256.h"
#include "fuzzer/tx.h"
#include "lang/abi.h"

namespace mufuzz::fuzzer {

/// Encodes and decodes transactions against a contract ABI, and generates
/// typed random values. Also provides the *byte-stream view* of a
/// transaction's fuzzed payload (value word + argument words) that the
/// mutation-mask machinery of §IV-B operates on.
class AbiCodec {
 public:
  AbiCodec(const lang::ContractAbi* abi, std::vector<Address> sender_pool);

  const lang::ContractAbi& abi() const { return *abi_; }
  const std::vector<Address>& senders() const { return sender_pool_; }

  /// Calldata for a transaction: selector + 32-byte words.
  Bytes EncodeCalldata(const Tx& tx) const;

  /// EncodeCalldata into a caller-provided buffer (cleared first), reusing
  /// its capacity — the plan-recycling path encodes without allocating.
  void EncodeCalldataInto(const Tx& tx, Bytes* out) const;

  /// Typed random value for an ABI parameter type, biased toward boundary
  /// and "interesting" values (0, 1, powers of two, ether-scale amounts).
  U256 RandomValueForType(const lang::Type& type, Rng* rng) const;

  /// A fresh random transaction for function `fn_index`.
  Tx RandomTx(int fn_index, Rng* rng) const;

  /// Flattens the mutable payload of `tx` into `out` (cleared first, its
  /// capacity reused): [value(32)] [arg0(32)] [arg1(32)] ... — what
  /// Algorithm 2 masks.
  void ToByteStreamInto(const Tx& tx, Bytes* out) const;

  /// Inverse of ToByteStreamInto: re-materializes value/args from the stream.
  /// Address-typed arguments are truncated to 160 bits. The value word is
  /// kept even for non-payable functions (such calls revert — which is
  /// itself a branch direction worth covering).
  void FromByteStream(BytesView stream, Tx* tx) const;

  /// Length of the mutable byte stream for a tx calling `fn_index`.
  size_t StreamLength(int fn_index) const;

 private:
  const lang::ContractAbi* abi_;
  std::vector<Address> sender_pool_;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_ABI_CODEC_H_

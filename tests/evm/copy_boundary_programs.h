#ifndef MUFUZZ_TESTS_EVM_COPY_BOUNDARY_PROGRAMS_H_
#define MUFUZZ_TESTS_EVM_COPY_BOUNDARY_PROGRAMS_H_

// Programs that read calldata or code at source offsets around the end of
// the source and around 2^64, plus the EVM's expected result for each. A
// source offset that does not fit in 64 bits must read zeros, never wrap
// around to the start of the source.

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/u256.h"
#include "evm/opcodes.h"

namespace mufuzz::evm {

/// The source offsets to probe for a source of `size` bytes (size >= 32).
inline std::vector<U256> CopyBoundaryOffsets(size_t size) {
  return {U256(size - 32),      U256(size - 31),
          U256(size),           U256(UINT64_MAX),
          U256(0, 1, 0, 0) /* 2^64 */, U256::SignBit() /* 2^255 */};
}

/// Which read a boundary program performs.
enum class CopyRead { kCalldataload, kCalldatacopy, kCodecopy };

inline std::string CopyReadName(CopyRead read) {
  switch (read) {
    case CopyRead::kCalldataload:
      return "CALLDATALOAD";
    case CopyRead::kCalldatacopy:
      return "CALLDATACOPY";
    case CopyRead::kCodecopy:
      return "CODECOPY";
  }
  return "?";
}

/// Reads 32 bytes at `offset` with `read` and returns them. The offset is
/// always a PUSH32, so the program's size does not depend on it (CODECOPY
/// offsets are relative to that size).
inline Bytes CopyBoundaryProgram(CopyRead read, const U256& offset) {
  auto push1 = [](Bytes* code, uint8_t v) {
    code->push_back(static_cast<uint8_t>(Op::kPush1));
    code->push_back(v);
  };
  auto push32 = [](Bytes* code, const U256& v) {
    code->push_back(static_cast<uint8_t>(Op::kPush32));
    auto raw = v.ToBytesBE();
    code->insert(code->end(), raw.begin(), raw.end());
  };
  Bytes code;
  if (read == CopyRead::kCalldataload) {
    push32(&code, offset);
    code.push_back(static_cast<uint8_t>(Op::kCalldataload));
    push1(&code, 0);
    code.push_back(static_cast<uint8_t>(Op::kMstore));
  } else {
    push1(&code, 32);        // length
    push32(&code, offset);   // source offset
    push1(&code, 0);         // memory offset
    code.push_back(static_cast<uint8_t>(
        read == CopyRead::kCalldatacopy ? Op::kCalldatacopy : Op::kCodecopy));
  }
  push1(&code, 32);
  push1(&code, 0);
  code.push_back(static_cast<uint8_t>(Op::kReturn));
  return code;
}

/// The EVM's zero-padded read of 32 bytes of `src` at `offset`: every byte
/// at or past the end of `src` reads zero.
inline Bytes SpecPaddedRead(const Bytes& src, const U256& offset) {
  Bytes out(32, 0);
  for (uint64_t i = 0; i < 32; ++i) {
    const U256 pos = offset + U256(i);
    if (pos < U256(src.size())) out[i] = src[pos.low64()];
  }
  return out;
}

/// Calldata whose every byte is nonzero and distinct, so a misplaced read
/// cannot pass for zero padding.
inline Bytes BoundaryCalldata() {
  Bytes data(40);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(0xa0 + i);
  }
  return data;
}

}  // namespace mufuzz::evm

#endif  // MUFUZZ_TESTS_EVM_COPY_BOUNDARY_PROGRAMS_H_

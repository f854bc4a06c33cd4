#ifndef MUFUZZ_COMMON_BYTES_H_
#define MUFUZZ_COMMON_BYTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mufuzz {

/// Raw byte buffer used throughout the system (bytecode, calldata, traces).
using Bytes = std::vector<uint8_t>;
/// Non-owning view over bytes.
using BytesView = std::span<const uint8_t>;

/// Encodes bytes as lowercase hex without a 0x prefix.
std::string HexEncode(BytesView data);

/// Encodes bytes as "0x"-prefixed lowercase hex.
std::string HexEncode0x(BytesView data);

/// Decodes a hex string (with or without 0x prefix, even length required).
Result<Bytes> HexDecode(std::string_view hex);

/// Appends `src` to `dst`.
void AppendBytes(Bytes* dst, BytesView src);

/// Appends a big-endian 32-bit value.
void AppendU32BE(Bytes* dst, uint32_t v);

/// Appends a big-endian 64-bit value.
void AppendU64BE(Bytes* dst, uint64_t v);

/// Reads a big-endian 64-bit value from `data` starting at `offset`;
/// missing bytes read as zero (EVM calldata semantics).
uint64_t ReadU64BEPadded(BytesView data, size_t offset);

/// FNV-1a 64-bit hash, used for coverage-map keys and dedup sets.
uint64_t Fnv1a64(BytesView data);

/// Combines two 64-bit hashes (boost::hash_combine flavor). Inline: it is
/// the inner step of every U256::Hasher call.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

}  // namespace mufuzz

#endif  // MUFUZZ_COMMON_BYTES_H_

#include "evm/memory.h"

#include <algorithm>
#include <cstring>

namespace mufuzz::evm {

bool Memory::Expand(uint64_t offset, uint64_t len) {
  if (len == 0) return true;
  uint64_t end = offset + len;
  if (end < offset) return false;  // overflow
  if (end > kMaxBytes) return false;
  if (end > data_.size()) {
    // Round up to a 32-byte word boundary (EVM expands word-wise).
    uint64_t rounded = ((end + 31) / 32) * 32;
    data_.resize(rounded, 0);
  }
  return true;
}

bool Memory::Load32(uint64_t offset, U256* out) {
  if (!Expand(offset, 32)) return false;
  *out = U256::FromBytesBE32(data_.data() + offset);
  return true;
}

bool Memory::Store32(uint64_t offset, const U256& value) {
  if (!Expand(offset, 32)) return false;
  auto raw = value.ToBytesBE();
  std::memcpy(data_.data() + offset, raw.data(), 32);
  return true;
}

bool Memory::Store8(uint64_t offset, uint8_t value) {
  if (!Expand(offset, 1)) return false;
  data_[offset] = value;
  return true;
}

bool Memory::CopyIn(uint64_t offset, BytesView src, uint64_t src_offset,
                    uint64_t len) {
  if (len == 0) return true;
  if (!Expand(offset, len)) return false;
  // The part of [src_offset, src_offset + len) inside `src`, computed
  // without forming src_offset + len, which can wrap around 2^64 (an
  // offset that does not fit in 64 bits arrives here as UINT64_MAX).
  const uint64_t avail =
      src_offset < src.size()
          ? std::min<uint64_t>(len, src.size() - src_offset)
          : 0;
  if (avail != 0) {
    std::memcpy(data_.data() + offset, src.data() + src_offset, avail);
  }
  std::memset(data_.data() + offset + avail, 0, len - avail);
  return true;
}

bool Memory::CopyOut(uint64_t offset, uint64_t len, Bytes* out) {
  if (len > kMaxBytes) return false;
  if (!Expand(offset, len)) return false;
  out->assign(data_.begin() + offset, data_.begin() + offset + len);
  return true;
}

}  // namespace mufuzz::evm

#include "common/bytes.h"

namespace mufuzz {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string HexEncode(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

std::string HexEncode0x(BytesView data) { return "0x" + HexEncode(data); }

Result<Bytes> HexDecode(std::string_view hex) {
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex.remove_prefix(2);
  }
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("invalid hex digit");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

void AppendBytes(Bytes* dst, BytesView src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

void AppendU32BE(Bytes* dst, uint32_t v) {
  dst->push_back(static_cast<uint8_t>(v >> 24));
  dst->push_back(static_cast<uint8_t>(v >> 16));
  dst->push_back(static_cast<uint8_t>(v >> 8));
  dst->push_back(static_cast<uint8_t>(v));
}

void AppendU64BE(Bytes* dst, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst->push_back(static_cast<uint8_t>(v >> shift));
  }
}

uint64_t ReadU64BEPadded(BytesView data, size_t offset) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    uint8_t b = (offset + i < data.size()) ? data[offset + i] : 0;
    v = (v << 8) | b;
  }
  return v;
}

uint64_t Fnv1a64(BytesView data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace mufuzz

#include "serde/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace asyncmr::serde {

static_assert(std::endian::native == std::endian::little,
              "Crc32 loads 8-byte words assuming a little-endian host");

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table;
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the CRC over one 8-byte word.
constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes, uint32_t seed) {
  const auto& t = kCrcTables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace asyncmr::serde

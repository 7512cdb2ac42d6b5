#include "src/util/checksum.h"

#include <array>
#include <cstddef>

#include "src/util/byte_order.h"

namespace pfutil {

namespace {

// Table k maps a byte to its CRC contribution k bytes further down the
// stream: table 0 is the classic byte-at-a-time table of the reflected
// polynomial 0xEDB88320, and table k shifts table k - 1 by one more byte.
constexpr std::array<std::array<uint32_t, 256>, 16> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 16> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr auto kCrcTables = MakeCrcTables();

// The reflected CRC consumes bytes least-significant first, so a 32-bit
// word is assembled little-endian whatever the host's byte order or the
// pointer's alignment.
constexpr uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint16_t InternetChecksum(std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += LoadBe16(data.data() + i);
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint16_t PupChecksum(std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    // Ones-complement add (end-around carry), then rotate left by one.
    sum += LoadBe16(data.data() + i);
    if (sum > 0xffff) {
      sum = (sum & 0xffff) + 1;
    }
    sum = ((sum << 1) | (sum >> 15)) & 0xffff;
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
    if (sum > 0xffff) {
      sum = (sum & 0xffff) + 1;
    }
  }
  if (sum == kPupNoChecksum) {
    sum = 0;
  }
  return static_cast<uint16_t>(sum);
}

uint32_t Crc32(std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xffffffffu;
  // Slicing-by-16: byte i of each 16-byte block is folded through table
  // 15 - i, so one pass over the block advances the CRC by all 16 bytes.
  for (; n >= 16; p += 16, n -= 16) {
    const uint32_t w0 = LoadLe32(p) ^ crc;
    const uint32_t w1 = LoadLe32(p + 4);
    const uint32_t w2 = LoadLe32(p + 8);
    const uint32_t w3 = LoadLe32(p + 12);
    crc = kCrcTables[15][w0 & 0xff] ^ kCrcTables[14][(w0 >> 8) & 0xff] ^
          kCrcTables[13][(w0 >> 16) & 0xff] ^ kCrcTables[12][w0 >> 24] ^
          kCrcTables[11][w1 & 0xff] ^ kCrcTables[10][(w1 >> 8) & 0xff] ^
          kCrcTables[9][(w1 >> 16) & 0xff] ^ kCrcTables[8][w1 >> 24] ^
          kCrcTables[7][w2 & 0xff] ^ kCrcTables[6][(w2 >> 8) & 0xff] ^
          kCrcTables[5][(w2 >> 16) & 0xff] ^ kCrcTables[4][w2 >> 24] ^
          kCrcTables[3][w3 & 0xff] ^ kCrcTables[2][(w3 >> 8) & 0xff] ^
          kCrcTables[1][(w3 >> 16) & 0xff] ^ kCrcTables[0][w3 >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kCrcTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace pfutil

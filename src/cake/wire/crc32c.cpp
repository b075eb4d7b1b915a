#include "cake/wire/crc32c.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace cake::wire {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

// Slicing-by-8: kTables[0] is the classic bytewise table, and kTables[k][b]
// is the CRC of byte b followed by k zero bytes, so one 64-bit word folds
// in with eight independent lookups instead of a chain of eight.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xffu];
  return tables;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> bytes,
                     std::uint32_t crc) noexcept {
  crc = ~crc;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  // The word loop reads bytes in little-endian order; other hosts take the
  // bytewise loop for the whole range.
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t word;
      std::memcpy(&word, p, sizeof word);
      word ^= crc;
      crc = kTables[7][word & 0xffu] ^ kTables[6][(word >> 8) & 0xffu] ^
            kTables[5][(word >> 16) & 0xffu] ^ kTables[4][(word >> 24) & 0xffu] ^
            kTables[3][(word >> 32) & 0xffu] ^ kTables[2][(word >> 40) & 0xffu] ^
            kTables[1][(word >> 48) & 0xffu] ^ kTables[0][word >> 56];
    }
  }
  for (; n > 0; ++p, --n)
    crc = (crc >> 8) ^
          kTables[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xffu];
  return ~crc;
}

}  // namespace cake::wire

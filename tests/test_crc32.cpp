// CRC-32 tests: the checksum that guards ProgressJournal records.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/crc32.hpp"

namespace mnp {
namespace {

TEST(Crc32, KnownVectors) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(util::crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
}

TEST(Crc32, ChainingMatchesOneShot) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  const std::uint32_t whole = util::crc32(data);
  const std::uint32_t part1 = util::crc32(data.data(), 400);
  const std::uint32_t chained = util::crc32(data.data() + 400, 600, part1);
  EXPECT_EQ(chained, whole);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(256, 0xA5);
  const std::uint32_t clean = util::crc32(data);
  for (std::size_t i = 0; i < data.size(); i += 37) {
    data[i] ^= 1;
    EXPECT_NE(util::crc32(data), clean) << "flip at " << i;
    data[i] ^= 1;
  }
}

}  // namespace
}  // namespace mnp

// Conformance tests for checkpoint::crc32, the integrity code of every chunk,
// slot header and object table. The values are part of the on-media format:
// every kernel the CPU may select must return the bitwise reference's CRC.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "checkpoint/chunk.hpp"
#include "common/rng.hpp"

namespace adcc::checkpoint {
namespace {

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320), chained like crc32's seed.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t bytes, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng.next_u64() >> 56);
  return v;
}

TEST(Crc32, KnownAnswers) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32(kCheck.data(), kCheck.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

TEST(Crc32, MatchesBitwiseReferenceOverLengthsOffsetsAndSeeds) {
  const std::vector<unsigned char> buf = random_bytes(1100 + 16, 7);
  const std::uint32_t seeds[] = {0u, 0xFFFFFFFFu, 0x12345678u};
  for (std::size_t off = 0; off < 16; ++off) {
    for (const std::uint32_t seed : seeds) {
      const unsigned char* p = buf.data() + off;
      std::uint32_t ref = seed;  // Reference CRC of p[0, len), extended a byte per length.
      for (std::size_t len = 0; len <= 1100; ++len) {
        ASSERT_EQ(crc32(p, len, seed), ref) << "len=" << len << " off=" << off << " seed=" << seed;
        ref = crc32_bitwise(p + len, 1, ref);
      }
    }
  }
}

TEST(Crc32, SeedChainsSplitInputs) {
  const std::vector<unsigned char> buf = random_bytes(4096, 11);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (const std::size_t cut : {0u, 1u, 15u, 63u, 64u, 65u, 1000u, 4095u, 4096u}) {
    const std::uint32_t head = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, head), whole) << "cut=" << cut;
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnRandomBuffersUpTo1MB) {
  SplitMix64 rng(2017);
  for (int i = 0; i < 12; ++i) {
    const std::size_t n = 1 + rng.next_below(1u << 20);
    const std::vector<unsigned char> buf = random_bytes(n, 100 + i);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    ASSERT_EQ(crc32(buf.data(), n, seed), crc32_bitwise(buf.data(), n, seed)) << "n=" << n;
  }
}

TEST(Crc32, PinnedValueOfDeterministic1MBBuffer) {
  std::vector<unsigned char> buf(1u << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(splitmix64(i) >> 56);
  }
  // Computed by the slicing-by-4 table kernel before the PCLMULQDQ fold existed.
  EXPECT_EQ(crc32(buf.data(), buf.size()), 0xD16E466Bu);
}

}  // namespace
}  // namespace adcc::checkpoint

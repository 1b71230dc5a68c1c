// Unit tests for the per-chunk payload codec (--ckpt_compress): spec parsing,
// round-trips over the payload shapes the engine actually ships, and the
// store-raw fallback contract for payloads the transform cannot shrink.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "checkpoint/codec.hpp"

namespace adcc::checkpoint {
namespace {

std::vector<std::byte> roundtrip(const std::vector<std::byte>& payload, int level) {
  std::vector<std::byte> stored;
  const std::size_t n = lz_compress(payload.data(), payload.size(), stored, level);
  EXPECT_GT(n, 0u);
  EXPECT_LT(n, payload.size());  // The caller only stores streams that shrink.
  std::vector<std::byte> out(payload.size());
  EXPECT_TRUE(lz_decompress(stored.data(), n, out.data(), out.size()));
  return out;
}

TEST(Codec, ParseSpecs) {
  CodecSpec spec;
  std::string err;
  EXPECT_TRUE(parse_codec("none", &spec, &err));
  EXPECT_EQ(spec.codec, Codec::kRaw);
  EXPECT_TRUE(parse_codec("lz", &spec, &err));
  EXPECT_EQ(spec.codec, Codec::kLz);
  EXPECT_EQ(spec.level, 2);  // "lz" is shorthand for "lz:2".
  EXPECT_TRUE(parse_codec("lz:1", &spec, &err));
  EXPECT_EQ(spec.level, 1);
  EXPECT_TRUE(parse_codec("lz:2", &spec, &err));
  EXPECT_EQ(spec.level, 2);

  // Levels 3-9 would run level 2's code, so they are rejected with the rest.
  spec = CodecSpec{Codec::kLz, 5};
  for (const char* bad :
       {"", "gzip", "lz:", "lz:0", "lz:3", "lz:9", "lz:10", "lz:x", "lz:2:3"}) {
    EXPECT_FALSE(parse_codec(bad, &spec, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
    EXPECT_EQ(spec.level, 5) << bad << " clobbered the spec on failure";
  }
}

TEST(Codec, AllZeroPayloadCompressesHard) {
  std::vector<std::byte> payload(64 << 10, std::byte{0});
  for (int level : {1, 2, 9}) {
    std::vector<std::byte> stored;
    const std::size_t n = lz_compress(payload.data(), payload.size(), stored, level);
    ASSERT_GT(n, 0u);
    EXPECT_LT(n, payload.size() / 100);  // Constant planes: ~8 bytes a plane.
    std::vector<std::byte> out(payload.size(), std::byte{0xFF});
    ASSERT_TRUE(lz_decompress(stored.data(), n, out.data(), out.size()));
    EXPECT_EQ(out, payload);
  }
}

TEST(Codec, DoubleArrayRoundtripsAtEveryLevel) {
  // The engine's dominant payload: smooth doubles sharing sign/exponent
  // structure, plus a tail that is not a multiple of the 8-byte plane stride.
  std::vector<double> v(8191);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 1.0 + static_cast<double>(i) * 1e-4;
  }
  std::vector<std::byte> payload(v.size() * sizeof(double) + 3);
  std::memcpy(payload.data(), v.data(), v.size() * sizeof(double));
  payload[payload.size() - 3] = std::byte{0xAB};
  payload[payload.size() - 2] = std::byte{0xCD};
  payload[payload.size() - 1] = std::byte{0xEF};
  for (int level : {1, 2, 9}) {
    EXPECT_EQ(roundtrip(payload, level), payload) << "level " << level;
  }
}

TEST(Codec, IncompressibleRandomPayloadStoresRaw) {
  // Uniform random bytes: every plane candidate loses, lz_compress must
  // refuse (return 0) instead of growing the chunk.
  std::mt19937_64 rng(12345);
  std::vector<std::byte> payload(256 << 10);
  for (auto& b : payload) b = static_cast<std::byte>(rng() & 0xFF);
  std::vector<std::byte> stored;
  for (int level : {1, 2, 9}) {
    EXPECT_EQ(lz_compress(payload.data(), payload.size(), stored, level), 0u)
        << "level " << level;
  }
}

TEST(Codec, SubMinimumPayloadStoresRaw) {
  // Below kMinPayload the stream headers dominate: always store raw.
  std::vector<std::byte> payload(63, std::byte{0});
  std::vector<std::byte> stored;
  EXPECT_EQ(lz_compress(payload.data(), payload.size(), stored, 2), 0u);
}

TEST(Codec, DeterministicAcrossCalls) {
  // Slot images must stay byte-identical across worker counts, which requires
  // the transform to be a pure function of (payload, level).
  std::vector<double> v(4096, 3.25);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += static_cast<double>(i % 17);
  std::vector<std::byte> a, b;
  const std::size_t na = lz_compress(v.data(), v.size() * sizeof(double), a, 2);
  const std::size_t nb = lz_compress(v.data(), v.size() * sizeof(double), b, 2);
  ASSERT_GT(na, 0u);
  ASSERT_EQ(na, nb);
  a.resize(na);
  b.resize(nb);
  EXPECT_EQ(a, b);
}

TEST(Codec, TruncatedStreamFailsDecode) {
  std::vector<std::byte> payload(32 << 10, std::byte{0});
  for (std::size_t i = 0; i < payload.size(); i += 9) payload[i] = std::byte{7};
  std::vector<std::byte> stored;
  const std::size_t n = lz_compress(payload.data(), payload.size(), stored, 2);
  ASSERT_GT(n, 0u);
  std::vector<std::byte> out(payload.size());
  EXPECT_FALSE(lz_decompress(stored.data(), n / 2, out.data(), out.size()));
  EXPECT_FALSE(lz_decompress(stored.data(), 0, out.data(), out.size()));
  // Wrong raw size: the stream decodes to exactly raw_bytes or not at all.
  std::vector<std::byte> wrong(payload.size() - 1);
  EXPECT_FALSE(lz_decompress(stored.data(), n, wrong.data(), wrong.size()));
}

}  // namespace
}  // namespace adcc::checkpoint

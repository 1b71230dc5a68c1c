// Unit tests for the set-associative write-back LRU cache model.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "memsim/cache.hpp"

namespace adcc::memsim {
namespace {

CacheConfig tiny(std::size_t ways, std::size_t sets = 1) {
  CacheConfig c;
  c.ways = ways;
  c.size_bytes = ways * sets * kCacheLine;
  return c;
}

std::uintptr_t line(std::size_t i) { return 0x100000 + i * kCacheLine; }

TEST(CacheConfig, NumSets) {
  CacheConfig c;
  c.size_bytes = 8u << 20;
  c.ways = 16;
  EXPECT_EQ(c.num_sets(), 8192u);
}

TEST(Cache, FirstAccessMisses) {
  SetAssocCache c(tiny(2));
  const auto r = c.access(line(0), false);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.evicted);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SecondAccessHits) {
  SetAssocCache c(tiny(2));
  c.access(line(0), false);
  EXPECT_TRUE(c.access(line(0), false).hit);
  EXPECT_EQ(c.stats().hits, 1u);
}

TEST(Cache, WriteMarksDirty) {
  SetAssocCache c(tiny(2));
  c.access(line(0), true);
  EXPECT_TRUE(c.dirty(line(0)));
}

TEST(Cache, ReadDoesNotMarkDirty) {
  SetAssocCache c(tiny(2));
  c.access(line(0), false);
  EXPECT_TRUE(c.contains(line(0)));
  EXPECT_FALSE(c.dirty(line(0)));
}

TEST(Cache, DirtyIsSticky) {
  SetAssocCache c(tiny(2));
  c.access(line(0), true);
  c.access(line(0), false);  // A later read must not clear the dirty bit.
  EXPECT_TRUE(c.dirty(line(0)));
}

TEST(Cache, LruEvictionOrder) {
  // Single-set, 2-way: A, B, touch A, insert C → B (the LRU) is evicted.
  SetAssocCache c(tiny(2));
  c.access(line(0), true);   // A (dirty)
  c.access(line(1), false);  // B
  c.access(line(0), false);  // refresh A
  const auto r = c.access(line(2), false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, line(1));
  EXPECT_FALSE(r.evicted_dirty);
  EXPECT_TRUE(c.contains(line(0)));
  EXPECT_FALSE(c.contains(line(1)));
}

TEST(Cache, EvictionReportsDirtyBit) {
  SetAssocCache c(tiny(1));
  c.access(line(0), true);
  const auto r = c.access(line(1), false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, line(0));
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, FlushDirtyLineReportsWritebackNeeded) {
  SetAssocCache c(tiny(2));
  c.access(line(0), true);
  EXPECT_TRUE(c.flush_line(line(0)));
  EXPECT_FALSE(c.contains(line(0)));
  EXPECT_EQ(c.stats().dirty_flushes, 1u);
}

TEST(Cache, FlushCleanLineInvalidatesWithoutWriteback) {
  SetAssocCache c(tiny(2));
  c.access(line(0), false);
  EXPECT_FALSE(c.flush_line(line(0)));
  EXPECT_FALSE(c.contains(line(0)));
}

TEST(Cache, FlushAbsentLineIsNoop) {
  SetAssocCache c(tiny(2));
  EXPECT_FALSE(c.flush_line(line(5)));
  EXPECT_EQ(c.stats().flushes, 1u);
}

TEST(Cache, InvalidateAllDropsDirtyLines) {
  SetAssocCache c(tiny(4));
  c.access(line(0), true);
  c.access(line(1), true);
  c.invalidate_all();
  EXPECT_EQ(c.resident(), 0u);
  EXPECT_TRUE(c.dirty_lines().empty());
}

TEST(Cache, DirtyLinesEnumeration) {
  SetAssocCache c(tiny(4));
  c.access(line(0), true);
  c.access(line(1), false);
  c.access(line(2), true);
  const auto d = c.dirty_lines();
  EXPECT_EQ(d.size(), 2u);
}

TEST(Cache, ResidentCountsAllValidLines) {
  SetAssocCache c(tiny(4));
  c.access(line(0), false);
  c.access(line(1), true);
  EXPECT_EQ(c.resident(), 2u);
}

TEST(Cache, NonPowerOfTwoSetsRejected) {
  CacheConfig c;
  c.size_bytes = 3 * kCacheLine;
  c.ways = 1;
  EXPECT_THROW(SetAssocCache{c}, ContractViolation);
}

// Property sweep: for any associativity, streaming W unique lines through a
// single-set cache keeps exactly min(W, ways) resident and evicts the rest in
// FIFO (=LRU for a pure stream) order.
class CacheWaysTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheWaysTest, StreamEvictsOldestFirst) {
  const std::size_t ways = GetParam();
  SetAssocCache c(tiny(ways));
  const std::size_t total = ways + 3;
  std::vector<std::uintptr_t> evicted;
  for (std::size_t i = 0; i < total; ++i) {
    const auto r = c.access(line(i), true);
    if (r.evicted) evicted.push_back(r.evicted_line);
  }
  EXPECT_EQ(c.resident(), ways);
  ASSERT_EQ(evicted.size(), 3u);
  for (std::size_t i = 0; i < evicted.size(); ++i) EXPECT_EQ(evicted[i], line(i));
}

TEST_P(CacheWaysTest, CapacityNeverExceeded) {
  const std::size_t ways = GetParam();
  SetAssocCache c(tiny(ways, 4));
  for (std::size_t i = 0; i < 10 * ways; ++i) c.access(line(i * 7), i % 2 == 0);
  EXPECT_LE(c.resident(), ways * 4);
}

INSTANTIATE_TEST_SUITE_P(Associativity, CacheWaysTest, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace adcc::memsim

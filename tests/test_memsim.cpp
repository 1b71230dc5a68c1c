// Unit tests for the MemorySimulator: dual-image semantics, eviction
// writebacks, clflush, crash triggers, restore.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "memsim/memsim.hpp"

namespace adcc::memsim {
namespace {

CacheConfig tiny_cache(std::size_t ways = 2, std::size_t sets = 1) {
  CacheConfig c;
  c.ways = ways;
  c.size_bytes = ways * sets * kCacheLine;
  return c;
}

struct Fixture {
  MemorySimulator sim{tiny_cache(2, 1)};
  AlignedArray<double> buf{64};  // 8 cache lines of doubles.
  RegionId id;

  Fixture() {
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<double>(i);
    id = sim.register_region("buf", buf.data(), buf.size() * sizeof(double));
  }
};

TEST(MemSim, DurableImageSnapshotsInitialContents) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[5]), 5.0);
}

TEST(MemSim, WriteIsNotDurableWhileCached) {
  Fixture f;
  f.buf[0] = 100.0;
  f.sim.on_write(&f.buf[0], sizeof(double));
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[0]), 0.0);  // NVM still stale.
  EXPECT_EQ(f.sim.dirty_line_census()[0].dirty_lines, 1u);
}

TEST(MemSim, ClflushMakesWriteDurable) {
  Fixture f;
  f.buf[0] = 100.0;
  f.sim.on_write(&f.buf[0], sizeof(double));
  f.sim.clflush(&f.buf[0], sizeof(double));
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[0]), 100.0);
  EXPECT_EQ(f.sim.dirty_line_census()[0].dirty_lines, 0u);
}

TEST(MemSim, EvictionWritesBack) {
  Fixture f;  // 2-way single-set cache: third distinct line evicts the first.
  f.buf[0] = 100.0;
  f.sim.on_write(&f.buf[0], sizeof(double));   // line 0 dirty
  f.sim.on_read(&f.buf[8], sizeof(double));    // line 1
  f.sim.on_read(&f.buf[16], sizeof(double));   // line 2 → evicts line 0
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[0]), 100.0);
  EXPECT_GE(f.sim.stats().writebacks, 1u);
}

TEST(MemSim, EvictionWritebackCapturesLatestLiveBytes) {
  Fixture f;
  f.buf[0] = 1.0;
  f.sim.on_write(&f.buf[0], sizeof(double));
  f.buf[0] = 2.0;  // Second store to the cached line, then announced…
  f.sim.on_write(&f.buf[0], sizeof(double));
  f.sim.on_read(&f.buf[8], sizeof(double));
  f.sim.on_read(&f.buf[16], sizeof(double));  // eviction
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[0]), 2.0);
}

TEST(MemSim, CrashDropsDirtyCache) {
  Fixture f;
  f.buf[0] = 100.0;
  f.sim.on_write(&f.buf[0], sizeof(double));
  f.sim.crash();
  EXPECT_TRUE(f.sim.crashed());
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[0]), 0.0);  // The write died.
}

TEST(MemSim, RestoreAllReloadsLiveFromDurable) {
  Fixture f;
  f.buf[0] = 100.0;
  f.sim.on_write(&f.buf[0], sizeof(double));
  f.sim.crash();
  f.sim.restore_all();
  EXPECT_DOUBLE_EQ(f.buf[0], 0.0);  // Live view rolled back to NVM contents.
}

TEST(MemSim, ClflushRangePersistsEveryDirtyLine) {
  Fixture f;
  for (std::size_t i = 0; i < 16; i += 8) {
    f.buf[i] = 50.0 + static_cast<double>(i);
    f.sim.on_write(&f.buf[i], sizeof(double));
  }
  f.sim.clflush(f.buf.data(), 16 * sizeof(double));
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[0]), 50.0);
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[8]), 58.0);
  EXPECT_EQ(f.sim.dirty_line_census()[0].dirty_lines, 0u);
}

TEST(MemSim, ReadOnlyRegionDurableEqualsLive) {
  MemorySimulator sim(tiny_cache());
  AlignedArray<double> ro(8);
  ro[3] = 7.0;
  sim.register_region("ro", ro.data(), ro.size() * sizeof(double), /*read_only=*/true);
  EXPECT_DOUBLE_EQ(sim.durable_value(&ro[3]), 7.0);
  ro[3] = 9.0;  // RO regions track the live bytes by definition.
  EXPECT_DOUBLE_EQ(sim.durable_value(&ro[3]), 9.0);
}

TEST(MemSim, OverlappingRegionRejected) {
  Fixture f;
  EXPECT_THROW(f.sim.register_region("dup", f.buf.data(), 64), ContractViolation);
}

TEST(MemSim, UnalignedRegionRejected) {
  MemorySimulator sim(tiny_cache());
  AlignedArray<double> a(16);
  EXPECT_THROW(sim.register_region("x", a.data() + 1, 64), ContractViolation);
}

TEST(MemSim, EmptyRegionRejected) {
  MemorySimulator sim(tiny_cache());
  AlignedArray<double> a(16);
  EXPECT_THROW(sim.register_region("x", a.data(), 0), ContractViolation);
}

TEST(MemSim, DurableReadOutsideRegionsThrows) {
  Fixture f;
  double x = 0;
  double out;
  EXPECT_THROW(f.sim.durable_read(&x, &out, sizeof(double)), ContractViolation);
}

TEST(MemSim, UntrackedAccessesAreRejected) {
  // The cache model places lines by region and offset; a line outside every
  // region has no placement, so announcing it is a contract violation.
  Fixture f;
  alignas(64) double untracked[8] = {};
  EXPECT_THROW(f.sim.on_write(untracked, sizeof(untracked)), ContractViolation);
  EXPECT_THROW(f.sim.on_read(untracked, sizeof(double)), ContractViolation);
  EXPECT_THROW(f.sim.clflush(untracked, sizeof(double)), ContractViolation);
  // A range running past its region's end is rejected the same way.
  EXPECT_THROW(f.sim.on_read(&f.buf[60], 8 * sizeof(double)), ContractViolation);
}

/// Everything one replay of a fixed two-region trace produces that could
/// depend on where region B sits relative to region A.
struct PlacementReplay {
  SimStats sim;
  CacheStats cache;
  std::vector<double> a_durable, b_durable;
};

/// Dirties every line of A, then every line of B, then reads A back, on a
/// direct-mapped 64 KB cache, with B placed `gap_bytes` after A's end.
PlacementReplay replay_two_regions(std::size_t gap_bytes) {
  constexpr std::size_t kRegionBytes = 16u << 10;
  constexpr std::size_t n = kRegionBytes / sizeof(double);
  MemorySimulator sim(tiny_cache(1, 1024));
  AlignedArray<double> buf(2 * n + gap_bytes / sizeof(double));
  double* a = buf.data();
  double* b = a + n + gap_bytes / sizeof(double);
  sim.register_region("a", a, kRegionBytes);
  sim.register_region("b", b, kRegionBytes);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 1.0 + static_cast<double>(i);
    sim.on_write(&a[i], sizeof(double));
  }
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 2.0 + static_cast<double>(i);
    sim.on_write(&b[i], sizeof(double));
  }
  for (std::size_t i = 0; i < n; i += kCacheLine / sizeof(double)) {
    sim.on_read(&a[i], sizeof(double));
  }
  PlacementReplay r{sim.stats(), sim.cache_stats(), std::vector<double>(n),
                    std::vector<double>(n)};
  sim.durable_read(a, r.a_durable.data(), kRegionBytes);
  sim.durable_read(b, r.b_durable.data(), kRegionBytes);
  return r;
}

TEST(MemSim, CacheBehaviourIsIndependentOfRegionPlacement) {
  // Adjacent vs. 64 KB apart: under host-address placement the second layout
  // aliases every line of B onto A's set and the replays diverge.
  const PlacementReplay near = replay_two_regions(0);
  const PlacementReplay far = replay_two_regions(48u << 10);
  EXPECT_EQ(near.sim.lines_touched, far.sim.lines_touched);
  EXPECT_EQ(near.sim.writebacks, far.sim.writebacks);
  EXPECT_EQ(near.cache.hits, far.cache.hits);
  EXPECT_EQ(near.cache.misses, far.cache.misses);
  EXPECT_EQ(near.cache.evictions, far.cache.evictions);
  EXPECT_EQ(near.cache.dirty_evictions, far.cache.dirty_evictions);
  EXPECT_EQ(near.a_durable, far.a_durable);
  EXPECT_EQ(near.b_durable, far.b_durable);
}

TEST(MemSim, AccessCountTriggerFiresCrashException) {
  Fixture f;
  f.sim.scheduler().arm_at_access(3);
  f.sim.on_read(&f.buf[0], 8);
  f.sim.on_read(&f.buf[0], 8);
  EXPECT_THROW(f.sim.on_read(&f.buf[0], 8), CrashException);
  EXPECT_TRUE(f.sim.crashed());
}

TEST(MemSim, CrashPointTriggerHonorsOccurrence) {
  Fixture f;
  f.sim.scheduler().arm_at_point("iter", 3);
  f.sim.crash_point("iter");
  f.sim.crash_point("other");  // Different name never triggers.
  f.sim.crash_point("iter");
  EXPECT_THROW(f.sim.crash_point("iter"), CrashException);
}

TEST(MemSim, CrashExceptionCarriesContext) {
  Fixture f;
  f.sim.scheduler().arm_at_point("spot");
  try {
    f.sim.crash_point("spot");
    FAIL();
  } catch (const CrashException& e) {
    EXPECT_EQ(e.point(), "spot");
  }
}

TEST(MemSim, ResetAfterCrashAllowsRecoveryExecution) {
  Fixture f;
  f.sim.scheduler().arm_at_access(1);
  EXPECT_THROW(f.sim.on_write(&f.buf[0], 8), CrashException);
  f.sim.reset_after_crash();
  EXPECT_FALSE(f.sim.crashed());
  f.buf[0] = 5.0;
  f.sim.on_write(&f.buf[0], 8);  // Must not throw; scheduler disarmed.
  f.sim.clflush(&f.buf[0], 8);
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[0]), 5.0);
}

TEST(MemSim, AccessesWhileCrashedAreIgnored) {
  Fixture f;
  f.sim.crash();
  f.buf[0] = 77.0;
  f.sim.on_write(&f.buf[0], 8);
  f.sim.clflush(&f.buf[0], 8);
  EXPECT_DOUBLE_EQ(f.sim.durable_value(&f.buf[0]), 0.0);
}

TEST(MemSim, StatsCountReadsWritesAndFlushes) {
  Fixture f;
  f.sim.on_read(&f.buf[0], 8);
  f.sim.on_write(&f.buf[0], 8);
  f.sim.clflush(&f.buf[0], 128);  // 2 lines
  f.sim.sfence();
  EXPECT_EQ(f.sim.stats().reads, 1u);
  EXPECT_EQ(f.sim.stats().writes, 1u);
  EXPECT_EQ(f.sim.stats().flush_lines, 2u);
  EXPECT_EQ(f.sim.stats().fences, 1u);
  EXPECT_EQ(f.sim.access_count(), 2u);
}

TEST(MemSim, MultiLineAccessTouchesEveryLine) {
  MemorySimulator sim(tiny_cache(8, 1));
  AlignedArray<double> a(32);
  sim.register_region("a", a.data(), 32 * sizeof(double));
  sim.on_read(a.data(), 32 * sizeof(double));  // 4 lines
  EXPECT_EQ(sim.cache_stats().misses, 4u);
}

TEST(MemSim, PartialTailLineWritebackStaysInBounds) {
  // Region of 72 bytes: the second line is only 8 bytes of region.
  MemorySimulator sim(tiny_cache(1, 1));
  AlignedArray<double> a(9);
  sim.register_region("a", a.data(), 9 * sizeof(double));
  a[8] = 3.5;
  sim.on_write(&a[8], sizeof(double));
  sim.clflush(&a[8], sizeof(double));
  EXPECT_DOUBLE_EQ(sim.durable_value(&a[8]), 3.5);
}


TEST(MemSim, DirtyLineCensusCountsPerRegion) {
  MemorySimulator sim(tiny_cache(8, 1));
  AlignedArray<double> a(16), b(16);
  sim.register_region("alpha", a.data(), 16 * sizeof(double));
  sim.register_region("beta", b.data(), 16 * sizeof(double), /*read_only=*/true);
  a[0] = 1.0;
  sim.on_write(&a[0], 8);   // 1 dirty line in alpha.
  sim.on_read(&b[0], 8);    // clean line in beta.
  const auto census = sim.dirty_line_census();
  ASSERT_EQ(census.size(), 2u);
  EXPECT_EQ(census[0].name, "alpha");
  EXPECT_EQ(census[0].total_lines, 2u);
  EXPECT_EQ(census[0].dirty_lines, 1u);
  EXPECT_EQ(census[1].name, "beta");
  EXPECT_EQ(census[1].dirty_lines, 0u);
}

TEST(MemSim, DirtyLineCensusEmptyAfterCrash) {
  MemorySimulator sim(tiny_cache(8, 1));
  AlignedArray<double> a(16);
  sim.register_region("alpha", a.data(), 16 * sizeof(double));
  a[0] = 1.0;
  sim.on_write(&a[0], 8);
  sim.crash();
  for (const auto& c : sim.dirty_line_census()) EXPECT_EQ(c.dirty_lines, 0u);
}

TEST(CrashScheduler, ArmValidation) {
  CrashScheduler s;
  EXPECT_THROW(s.arm_at_access(0), ContractViolation);
  EXPECT_THROW(s.arm_at_point(""), ContractViolation);
  EXPECT_THROW(s.arm_at_point("x", 0), ContractViolation);
  s.arm_at_point("x");
  EXPECT_TRUE(s.armed());
  s.disarm();
  EXPECT_FALSE(s.armed());
}

}  // namespace
}  // namespace adcc::memsim

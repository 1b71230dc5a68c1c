// Unit tests for the NVM substrate: flush primitives, perf throttle, arena,
// DRAM cache.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "common/check.hpp"
#include "common/timer.hpp"
#include "nvm/dram_cache.hpp"
#include "nvm/flush.hpp"
#include "nvm/nvm_region.hpp"
#include "nvm/perf_model.hpp"

namespace adcc::nvm {
namespace {

PerfModel fast_model() {
  PerfConfig c;
  c.dram_bw_bytes_per_s = 10e9;
  c.bandwidth_slowdown = 1.0;
  c.enabled = false;
  return PerfModel(c);
}

TEST(Flush, RangeDoesNotCrashAndPreservesData) {
  AlignedArray<double> a(32);
  a[7] = 1.25;
  flush_range(a.data(), 32 * sizeof(double));
  store_fence();
  EXPECT_DOUBLE_EQ(a[7], 1.25);
}

TEST(Flush, SelectedInstructionMatchesCpuid) {
  FlushInstruction expected = FlushInstruction::kClflush;
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    if (ebx & (1u << 24)) {
      expected = FlushInstruction::kClwb;
    } else if (ebx & (1u << 23)) {
      expected = FlushInstruction::kClflushopt;
    }
  }
#endif
  EXPECT_EQ(flush_instruction(), expected);
  EXPECT_STREQ(flush_instruction_name(FlushInstruction::kClflush), "clflush");
  EXPECT_STREQ(flush_instruction_name(FlushInstruction::kClflushopt), "clflushopt");
  EXPECT_STREQ(flush_instruction_name(FlushInstruction::kClwb), "clwb");
}

TEST(Flush, UnalignedLineCrossingPersistKeepsDataAndCountsLines) {
  PerfModel m = fast_model();
  NvmRegion r(4 * kCacheLine, m);
  auto s = r.allocate<unsigned char>(3 * kCacheLine);
  // Bytes [60, 130) touch lines 0, 1 and 2 of the allocation.
  for (std::size_t i = 60; i < 130; ++i) s[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(flush_line_count(s.data() + 60, 70), 3u);
  r.persist(s.data() + 60, 70);
  EXPECT_EQ(r.stats().persisted_lines, 3u);
  std::vector<unsigned char> src(5, 0xAB);
  r.write_durable(s.data() + 62, src.data(), src.size());  // Crosses line 0 into line 1.
  EXPECT_EQ(r.stats().persisted_lines, 5u);
  for (std::size_t i = 60; i < 130; ++i) {
    EXPECT_EQ(s[i], i >= 62 && i < 67 ? 0xAB : i) << "byte " << i;
  }
}

TEST(Flush, LineCountMatchesSpan) {
  AlignedArray<double> a(32);
  EXPECT_EQ(flush_line_count(a.data(), 256), 4u);
  EXPECT_EQ(flush_line_count(a.data(), 1), 1u);
}

TEST(PerfModel, DisabledChargesNothing) {
  PerfModel m = fast_model();
  Timer t;
  m.charge_write(100u << 20);
  EXPECT_LT(t.elapsed(), 0.05);
  EXPECT_DOUBLE_EQ(m.stats().injected_seconds, 0.0);
}

TEST(PerfModel, SlowdownOneChargesNothingEvenWhenEnabled) {
  PerfConfig c;
  c.dram_bw_bytes_per_s = 10e9;
  c.bandwidth_slowdown = 1.0;
  c.enabled = true;
  PerfModel m(c);
  m.charge_write(100u << 20);
  EXPECT_DOUBLE_EQ(m.stats().injected_seconds, 0.0);
}

TEST(PerfModel, ChargesBandwidthGap) {
  PerfConfig c;
  c.dram_bw_bytes_per_s = 1e9;  // 1 GB/s DRAM → 8× slower NVM.
  c.bandwidth_slowdown = 8.0;
  PerfModel m(c);
  // 1 MB → (8-1)/1e9 * 1e6 = 7 ms injected.
  Timer t;
  m.charge_write(1u << 20);
  EXPECT_GE(t.elapsed(), 0.006);
  EXPECT_NEAR(m.stats().injected_seconds, 7.34e-3, 1.5e-3);
}

TEST(PerfModel, FlushLatencyPerLine) {
  PerfConfig c;
  c.dram_bw_bytes_per_s = 100e9;  // Make bandwidth term negligible.
  c.bandwidth_slowdown = 1.0;
  c.flush_latency_ns = 1000.0;
  c.enabled = true;
  PerfModel m(c);
  Timer t;
  m.charge_flush_lines(1000);  // 1 µs × 1000 = 1 ms.
  EXPECT_GE(t.elapsed(), 0.0008);
  EXPECT_EQ(m.stats().lines_flushed, 1000u);
}

TEST(PerfModel, RejectsSpeedupConfigs) {
  PerfConfig c;
  c.dram_bw_bytes_per_s = 1e9;
  c.bandwidth_slowdown = 0.5;
  EXPECT_THROW(PerfModel{c}, ContractViolation);
}

TEST(PerfModel, CalibrationReturnsPlausibleBandwidth) {
  const double bw = PerfModel::calibrate_dram_bandwidth();
  EXPECT_GT(bw, 100e6);   // faster than 100 MB/s
  EXPECT_LT(bw, 2000e9);  // slower than 2 TB/s
}

TEST(NvmRegion, AllocateIsLineAlignedAndZeroed) {
  PerfModel m = fast_model();
  NvmRegion r(1u << 20, m);
  auto s = r.allocate<double>(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % kCacheLine, 0u);
  for (double v : s) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NvmRegion, ExhaustionThrows) {
  PerfModel m = fast_model();
  NvmRegion r(4 * kCacheLine, m);
  r.allocate<double>(8);
  EXPECT_THROW(r.allocate<double>(1024), ContractViolation);
}

TEST(NvmRegion, WriteDurableCopies) {
  PerfModel m = fast_model();
  NvmRegion r(1u << 20, m);
  auto dst = r.allocate<double>(16);
  std::vector<double> src(16, 3.0);
  r.write_durable(dst.data(), src.data(), src.size() * sizeof(double));
  EXPECT_DOUBLE_EQ(dst[15], 3.0);
  EXPECT_EQ(r.stats().bulk_writes, 1u);
  EXPECT_GE(r.stats().persisted_lines, 2u);
}

TEST(NvmRegion, PersistRejectsForeignPointers) {
  PerfModel m = fast_model();
  NvmRegion r(1u << 20, m);
  double x = 0;
  EXPECT_THROW(r.persist(&x, sizeof(x)), ContractViolation);
}

TEST(NvmRegion, SpansCrossingTheArenaEndThrow) {
  PerfModel m = fast_model();
  NvmRegion r(4096, m);
  auto s = r.allocate<std::byte>(4096);
  std::vector<std::byte> src(256, std::byte{7});
  std::byte* tail = s.data() + 4000;  // 96 bytes before the arena end.
  EXPECT_THROW(r.write_durable(tail, src.data(), 256), ContractViolation);
  EXPECT_THROW(r.persist(tail, 256), ContractViolation);
  DramCache dc(128 * kCacheLine, r);
  EXPECT_THROW(dc.write(tail, src.data(), 256), ContractViolation);
  EXPECT_EQ(dc.pending(), 0u);
  // A span ending exactly at the arena end is still arena memory.
  r.write_durable(tail, src.data(), 96);
  EXPECT_EQ(s[4095], std::byte{7});
  EXPECT_EQ(r.stats().bulk_writes, 1u);
}

TEST(NvmRegion, ContainsChecksArenaBounds) {
  PerfModel m = fast_model();
  NvmRegion r(1u << 20, m);
  auto s = r.allocate<double>(4);
  EXPECT_TRUE(r.contains(s.data()));
  double x = 0;
  EXPECT_FALSE(r.contains(&x));
  const auto* base = reinterpret_cast<const std::byte*>(s.data());
  EXPECT_TRUE(r.contains(base, r.capacity()));
  EXPECT_FALSE(r.contains(base, r.capacity() + 1));
  EXPECT_TRUE(r.contains(base + r.capacity() - 1, 1));
  EXPECT_FALSE(r.contains(base + r.capacity() - 1, 2));
  EXPECT_FALSE(r.contains(base + r.capacity(), 0));
}

TEST(DramCache, WriteThenDrainLandsInNvm) {
  PerfModel m = fast_model();
  NvmRegion r(1u << 20, m);
  DramCache dc(128 * kCacheLine, r);
  auto dst = r.allocate<double>(64);
  std::vector<double> src(64, 2.5);
  dc.write(dst.data(), src.data(), src.size() * sizeof(double));
  EXPECT_GT(dc.pending(), 0u);
  EXPECT_DOUBLE_EQ(dst[0], 0.0);  // Not durable (nor written through) yet.
  dc.drain();
  EXPECT_EQ(dc.pending(), 0u);
  EXPECT_DOUBLE_EQ(dst[63], 2.5);
}

TEST(DramCache, OverflowForcesPartialDrain) {
  PerfModel m = fast_model();
  NvmRegion r(4u << 20, m);
  DramCache dc(2 * kCacheLine, r);  // Tiny staging buffer.
  auto dst = r.allocate<double>(64);
  std::vector<double> src(64, 1.5);
  dc.write(dst.data(), src.data(), src.size() * sizeof(double));
  EXPECT_GE(dc.stats().forced_drains, 1u);
  dc.drain();
  for (double v : dst) EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(DramCache, StatsAccountAllBytes) {
  PerfModel m = fast_model();
  NvmRegion r(1u << 20, m);
  DramCache dc(128 * kCacheLine, r);
  auto dst = r.allocate<double>(32);
  std::vector<double> src(32, 1.0);
  dc.write(dst.data(), src.data(), 256);
  dc.drain();
  EXPECT_EQ(dc.stats().staged_bytes, 256u);
  EXPECT_EQ(dc.stats().drained_bytes, 256u);
}

TEST(DramCache, RejectsForeignDestination) {
  PerfModel m = fast_model();
  NvmRegion r(1u << 20, m);
  DramCache dc(128 * kCacheLine, r);
  double x = 0;
  EXPECT_THROW(dc.write(&x, &x, 8), ContractViolation);
}

}  // namespace
}  // namespace adcc::nvm

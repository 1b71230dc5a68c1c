// Crash-fuzzing property tests: the central safety property of the library —
// *recovery is correct no matter when the machine dies* — exercised with
// seeded fuzz:SEED crashes (a random access inside a random unit) for all
// three algorithm-directed engines under the crash emulator, driven through
// ScenarioRunner. Unlike the named-crash-point sweeps, these crashes land
// mid-kernel, between arbitrary line accesses.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cg/cg_workload.hpp"
#include "common/align.hpp"
#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "mc/mc_workload.hpp"
#include "memsim/memsim.hpp"
#include "mm/mm_workload.hpp"

namespace adcc {
namespace {

core::ScenarioResult fuzz_alg(core::Workload& w, int seed) {
  core::ScenarioConfig cfg;
  cfg.mode = core::Mode::kAlgNvm;
  cfg.crash = core::parse_crash_or_throw("fuzz:" + std::to_string(seed));
  w.tune_env(cfg.mode, cfg.env);
  cfg.verify = true;
  return core::run_scenario(w, cfg);
}

class CgFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CgFuzz, RandomAccessCrashAlwaysRecovers) {
  cg::CgWorkloadConfig cfg;
  cfg.n = 600;
  cfg.nz_per_row = 9;
  cfg.iters = 8;
  cfg.matrix_seed = 7;
  cfg.rhs_seed = 8;
  cfg.cache_bytes = 128u << 10;
  cfg.cache_ways = 8;
  cg::CgWorkload w(cfg);
  const core::ScenarioResult res = fuzz_alg(w, GetParam());
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_LE(res.restart_unit, res.crash_unit + 1);
  EXPECT_TRUE(res.verified) << "crash_access=" << res.crash_access;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgFuzz, ::testing::Range(0, 12));

class MmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MmFuzz, RandomAccessCrashAlwaysRecovers) {
  mm::MmWorkloadConfig cfg;
  cfg.n = 64;
  cfg.rank_k = 16;
  cfg.seed_a = 21;
  cfg.seed_b = 22;
  cfg.cache_bytes = 32u << 10;
  cfg.cache_ways = 4;
  mm::MmWorkload w(cfg);
  const core::ScenarioResult res = fuzz_alg(w, GetParam());
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_TRUE(res.verified) << "crash_access=" << res.crash_access;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmFuzz, ::testing::Range(0, 12));

class XsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(XsFuzz, RandomAccessCrashRecoversExactTallies) {
  mc::McWorkloadConfig cfg;
  cfg.data.n_nuclides = 10;
  cfg.data.gridpoints_per_nuclide = 128;
  cfg.data.seed = 2;
  cfg.lookups = 2500;
  cfg.interval = 25;
  cfg.seed = 5;
  cfg.policy = mc::XsFlushPolicy::kSelective;
  cfg.cache_bytes = 32u << 10;
  cfg.cache_ways = 4;
  mc::McWorkload w(cfg);
  const core::ScenarioResult res = fuzz_alg(w, GetParam());
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_LE(res.recomputation.units_redone(), 1u);
  EXPECT_TRUE(res.verified) << "crash_access=" << res.crash_access;
}

INSTANTIATE_TEST_SUITE_P(Seeds, XsFuzz, ::testing::Range(0, 12));

// Simulator oracle: under any random write/flush/crash interleaving, the
// durable value of each element is sandwiched between the last value that was
// explicitly flushed for it and the last value written — NVM can lag, and can
// opportunistically run ahead via evictions, but can never invent values or
// forget an explicit flush.
class SimOracleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SimOracleFuzz, DurableBoundedByFlushAndWriteHistory) {
  memsim::CacheConfig cache;
  cache.ways = 2;
  cache.size_bytes = 2 * 4 * kCacheLine;  // Tiny: lots of evictions.
  memsim::MemorySimulator sim(cache);
  constexpr std::size_t kElems = 64;  // 8 lines.
  AlignedArray<double> arr(kElems);
  sim.register_region("fuzz", arr.data(), kElems * sizeof(double));

  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);
  std::vector<double> last_written(kElems, 0.0);
  std::vector<double> last_flushed(kElems, 0.0);

  const int ops = 2000;
  const int crash_op = 200 + static_cast<int>(rng.next_below(ops - 200));
  for (int op = 0; op < ops; ++op) {
    const std::size_t i = rng.next_below(kElems);
    const auto action = rng.next_below(8);
    if (op == crash_op) {
      sim.crash();
      break;
    }
    if (action < 6) {  // Write a strictly increasing value per element.
      last_written[i] += 1.0;
      arr[i] = last_written[i];
      sim.on_write(&arr[i], sizeof(double));
    } else if (action == 6) {
      sim.clflush(&arr[i], sizeof(double));
      // Flushing element i persists its whole line: every element sharing the
      // line is now durable at its latest written value.
      const std::size_t line0 = (i / 8) * 8;
      for (std::size_t j = line0; j < line0 + 8; ++j) last_flushed[j] = last_written[j];
    } else {
      sim.on_read(&arr[i], sizeof(double));
    }
  }
  sim.crash();  // Idempotent if the loop already crashed.

  for (std::size_t i = 0; i < kElems; ++i) {
    const double d = sim.durable_value(&arr[i]);
    EXPECT_GE(d, last_flushed[i]) << "element " << i << ": explicit flush forgotten";
    EXPECT_LE(d, last_written[i]) << "element " << i << ": NVM invented a value";
    // Values are integers by construction: durable must be one of them.
    EXPECT_DOUBLE_EQ(d, std::floor(d)) << "element " << i << ": torn value";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimOracleFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace adcc

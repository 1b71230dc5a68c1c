// Tests for the algorithm-directed engines under the crash emulator
// (cache_mb): the paper's recomputation trends (Figs. 3, 7, 10, 12) and
// every-crash-site sweeps, driven through ScenarioRunner on the cg / mm / mc
// workload adapters. Only lines a flush or a cache eviction persisted survive
// a crash, so what recovery must redo depends on the cache.
#include <gtest/gtest.h>

#include <string>

#include "cg/cg_workload.hpp"
#include "core/scenario.hpp"
#include "mc/mc_ckpt.hpp"
#include "mc/mc_workload.hpp"
#include "mm/mm_workload.hpp"

namespace adcc {
namespace {

core::ScenarioConfig alg_config(const core::Workload& w, const std::string& crash) {
  core::ScenarioConfig cfg;
  cfg.mode = core::Mode::kAlgNvm;
  cfg.crash = core::parse_crash_or_throw(crash);
  w.tune_env(cfg.mode, cfg.env);
  cfg.verify = true;
  return cfg;
}

// ------------------------------------------------------------------- CG --

cg::CgWorkloadConfig cg_problem(std::size_t n, std::size_t iters, std::size_t cache_kib,
                                std::uint64_t seed = 31) {
  cg::CgWorkloadConfig cfg;
  cfg.n = n;
  cfg.nz_per_row = 9;
  cfg.iters = iters;
  cfg.matrix_seed = seed;
  cfg.rhs_seed = seed + 1;
  cfg.cache_bytes = cache_kib << 10;
  cfg.cache_ways = 8;
  return cfg;
}

TEST(CgEmulated, SmallProblemInLargeCacheLosesEverything) {
  // The paper's class S/W observation: the whole working set fits in the
  // cache, nothing was ever evicted to NVM, and every iteration is lost.
  cg::CgWorkload w(cg_problem(150, 12, 4096));
  const core::ScenarioResult res = run_scenario(w, alg_config(w, "point:cg:p_updated:12"));
  EXPECT_EQ(res.restart_unit, 1u);
  EXPECT_EQ(res.recomputation.units_redone(), 12u);
  EXPECT_TRUE(res.verified);
}

TEST(CgEmulated, LargeProblemInSmallCacheLosesFewIterations) {
  // The paper's class B/C observation: streaming evicts older history rows,
  // so only the most recent iteration(s) are volatile at crash time.
  cg::CgWorkload w(cg_problem(4000, 10, 128));
  const core::ScenarioResult res = run_scenario(w, alg_config(w, "point:cg:p_updated:9"));
  EXPECT_GE(res.recomputation.units_redone(), 1u);
  EXPECT_LE(res.recomputation.units_redone(), 3u);
  EXPECT_TRUE(res.verified);
}

TEST(CgEmulated, RecomputationShrinksWithProblemSize) {
  // Fig. 3's monotone trend at test scale: a bigger input under the same
  // cache loses fewer iterations.
  std::vector<std::size_t> redone;
  for (const std::size_t n : {200, 1000, 4000}) {
    cg::CgWorkload w(cg_problem(n, 10, 128));
    const core::ScenarioResult res = run_scenario(w, alg_config(w, "point:cg:p_updated:9"));
    ASSERT_TRUE(res.verified) << n;
    redone.push_back(res.recomputation.units_redone());
  }
  EXPECT_GE(redone.front(), redone.back());
  EXPECT_LE(redone.back(), 3u);
}

TEST(CgEmulated, HostMemoryArenaRedoesOnlyTheInterruptedUnit) {
  // The same crash without the emulator: the arena is host memory and keeps
  // every store, so recovery finds the last completed iteration intact.
  cg::CgWorkloadConfig cfg = cg_problem(150, 12, 4096);
  cfg.cache_bytes = 0;
  cg::CgWorkload w(cfg);
  const core::ScenarioResult res = run_scenario(w, alg_config(w, "point:cg:p_updated:12"));
  EXPECT_EQ(res.recomputation.units_lost, 0u);
  EXPECT_EQ(res.recomputation.partial_units, 1u);
  EXPECT_TRUE(res.verified);
}

// Every crash site of every iteration: recovery must verify wherever the
// crash lands, and the site interrupts exactly its own iteration.
class CgCrashSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgCrashSweep, RecoveryCorrectAtEveryCrashSite) {
  cg::CgWorkload w(cg_problem(700, 9, 128, 77));
  for (const char* site : {cg::CgWorkload::kPointPUpdated, cg::CgWorkload::kPointIterEnd}) {
    const std::string plan = std::string("point:") + site + ":" + std::to_string(GetParam());
    const core::ScenarioResult res = run_scenario(w, alg_config(w, plan));
    EXPECT_EQ(res.crashes, 1u) << plan;
    EXPECT_EQ(res.crash_unit, GetParam() - 1) << plan;
    EXPECT_EQ(res.recomputation.partial_units, 1u) << plan;
    EXPECT_LE(res.restart_unit, GetParam()) << plan;
    EXPECT_TRUE(res.verified) << plan;
  }
}

INSTANTIATE_TEST_SUITE_P(CrashIterations, CgCrashSweep, ::testing::Range<std::size_t>(1, 10));

// ------------------------------------------------------------------- MM --

mm::MmWorkloadConfig mm_problem(std::size_t n, std::size_t k, std::size_t cache_kib,
                                std::uint64_t seed = 17) {
  mm::MmWorkloadConfig cfg;
  cfg.n = n;
  cfg.rank_k = k;
  cfg.seed_a = seed;
  cfg.seed_b = seed + 1;
  cfg.cache_bytes = cache_kib << 10;
  cfg.cache_ways = 4;
  return cfg;
}

TEST(MmEmulated, Loop1CrashWithTinyCacheLosesMultiplePanels) {
  // The paper's small-input case: a cache of about two temporal matrices
  // (Ctemp_s ~33 KB, 64 KB cache) still holds volatile lines of the previous
  // panel when the crash hits, so recovery recomputes it besides re-running
  // the interrupted one. (A 16 KB cache, half a panel, keeps nothing of it.)
  mm::MmWorkload w(mm_problem(64, 8, 64));
  const core::ScenarioResult res = run_scenario(w, alg_config(w, "point:mm:loop1_end:4"));
  EXPECT_EQ(res.recomputation.partial_units, 1u);
  EXPECT_GE(res.recomputation.units_lost, 1u);
  EXPECT_TRUE(res.verified);
}

TEST(MmEmulated, LargeCacheLosesEveryResidentPanel) {
  // Fig. 7's n=2000 end: every temporal matrix still sits in an 8 MB cache,
  // so a Loop-1 crash loses all completed panels and recomputes them inside
  // recover() before the run resumes at the crashed unit.
  mm::MmWorkload w(mm_problem(96, 16, 8192));
  const core::ScenarioResult res = run_scenario(w, alg_config(w, "point:mm:loop1_end:4"));
  EXPECT_EQ(res.recomputation.units_lost, 3u);
  EXPECT_EQ(res.recomputation.partial_units, 1u);
  EXPECT_EQ(res.restart_unit, 4u);
  EXPECT_TRUE(res.verified);
}

TEST(MmEmulated, ChecksumCorrectionRepairsSingleElementWithoutRecompute) {
  // A seeded single-bit flip lands in a mantissa bit of one element of a
  // completed temporal matrix; the online checksum test detects it at the
  // next unit, and recovery repairs it from the durable checksums instead of
  // recomputing. (Flips into exponent bits or checksum lines fail the
  // correction and recompute the unit.)
  mm::MmWorkloadConfig cfg = mm_problem(64, 16, 0);
  cfg.cache_bytes = 0;
  mm::MmWorkload w(cfg);
  const core::ScenarioResult res = run_scenario(w, alg_config(w, "flip:10"));
  EXPECT_EQ(res.recomputation.flips, 1u);
  EXPECT_EQ(res.recomputation.flips_detected, 1u);
  EXPECT_EQ(res.recomputation.units_corrected, 1u);
  EXPECT_EQ(res.recomputation.units_lost, 0u);
  EXPECT_TRUE(res.verified);
}

TEST(MmEmulated, NonDividingRankRecoversExactly) {
  // n=50, rank 16: four panels (the last two columns wide) and four blocks.
  mm::MmWorkload w(mm_problem(50, 16, 32));
  for (const char* plan : {"point:mm:loop1_end:4", "point:mm:loop2_end:4", "fuzz:7"}) {
    const core::ScenarioResult res = run_scenario(w, alg_config(w, plan));
    EXPECT_EQ(w.num_panels(), 4u) << plan;
    EXPECT_EQ(res.work_units, 8u) << plan;
    EXPECT_TRUE(res.verified) << plan;
  }
}

class MmCrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MmCrashSweep, RecoveryCorrectEverywhere) {
  // n=80, k=16: 5 panels and 6 addition blocks; every Loop-1 and Loop-2 site.
  mm::MmWorkload w(mm_problem(80, 16, 32, 99));
  for (const char* site : {mm::MmWorkload::kPointMultEnd, mm::MmWorkload::kPointAddEnd}) {
    const bool loop2 = site == mm::MmWorkload::kPointAddEnd;
    if (!loop2 && GetParam() > 5) continue;
    const std::string plan = std::string("point:") + site + ":" + std::to_string(GetParam());
    const core::ScenarioResult res = run_scenario(w, alg_config(w, plan));
    EXPECT_EQ(res.crashes, 1u) << plan;
    EXPECT_EQ(res.crash_unit, (loop2 ? 5 : 0) + GetParam() - 1) << plan;
    EXPECT_TRUE(res.verified) << plan;
  }
}

INSTANTIATE_TEST_SUITE_P(Sites, MmCrashSweep, ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------------------------------- MC --

mc::XsConfig xs_data() {
  mc::XsConfig c;
  c.n_nuclides = 12;
  c.gridpoints_per_nuclide = 256;
  c.seed = 5;
  return c;
}

mc::McWorkloadConfig mc_problem(mc::XsFlushPolicy policy, std::uint64_t lookups,
                                std::uint64_t interval) {
  mc::McWorkloadConfig cfg;
  cfg.data = xs_data();
  cfg.lookups = lookups;
  cfg.interval = interval;
  cfg.seed = 77;
  cfg.policy = policy;
  cfg.cache_bytes = 64u << 10;
  cfg.cache_ways = 4;
  return cfg;
}

TEST(McEmulated, BasicIdeaLosesTallies) {
  // Fig. 10: the basic idea restarts at the right lookup, but the counters
  // stayed in the cache and NVM holds stale ones — counts are lost and the
  // distribution diverges.
  const mc::Tally reference = mc::run_xs_native(mc::XsDataHost(xs_data()), 4000, 77);
  mc::McWorkload w(mc_problem(mc::XsFlushPolicy::kBasicIdea, 4000, 1));
  core::ScenarioRunner runner(w, alg_config(w, "point:xs:lookup_end:400"));
  const core::ScenarioResult res = runner.run();  // The runner owns the tallies' arena.
  EXPECT_EQ(res.restart_unit, 400u);  // The loop index was durable.
  EXPECT_FALSE(res.verified);
  const mc::Tally crashed = w.tally();
  EXPECT_LT(crashed.total(), reference.total());
  EXPECT_GT(mc::max_percentage_gap(crashed, reference, reference.total()), 0.5);
}

TEST(McEmulated, SelectiveFlushRecoveryIsExact) {
  // Fig. 12: crash at 10 % of the lookups, in the last lookup of a flush
  // interval; the restart re-executes that interval from its snapshot. At
  // interval=1 (a flush every lookup) it re-executes that one lookup.
  for (const std::uint64_t interval : {40, 1}) {
    mc::McWorkload w(mc_problem(mc::XsFlushPolicy::kSelective, 4000, interval));
    const core::ScenarioResult res =
        run_scenario(w, alg_config(w, "point:xs:lookup_end:400"));
    EXPECT_EQ(res.crash_unit, 400 / interval - 1) << interval;
    EXPECT_EQ(res.restart_unit, 400 / interval) << interval;
    EXPECT_EQ(res.recomputation.units_redone(), 1u) << interval;
    EXPECT_TRUE(res.verified) << interval;  // Tallies identical to the no-crash run.
  }
}

// Crash-site sweep for the selective policy: recovery is exact no matter
// where in the interval the crash lands.
class XsCrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XsCrashSweep, SelectiveRecoveryExactEverywhere) {
  mc::McWorkload w(mc_problem(mc::XsFlushPolicy::kSelective, 2000, 20));
  const core::ScenarioResult res = run_scenario(
      w, alg_config(w, "point:xs:lookup_end:" + std::to_string(GetParam())));
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.crash_unit, (GetParam() - 1) / 20);
  EXPECT_LE(res.recomputation.units_redone(), 1u);
  EXPECT_TRUE(res.verified);
}

INSTANTIATE_TEST_SUITE_P(Sites, XsCrashSweep, ::testing::Values(1, 19, 20, 21, 777, 1999, 2000));

}  // namespace
}  // namespace adcc

// Tests for the algorithm-directed crash-consistent CG (paper Fig. 2) — the
// core contribution: invariant-based detection and bounded recomputation.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "cg/cg.hpp"
#include "cg/cg_cc.hpp"
#include "linalg/spgen.hpp"
#include "linalg/vec_ops.hpp"

namespace adcc::cg {
namespace {

memsim::CacheConfig cache_kb(std::size_t kb, std::size_t ways = 8) {
  memsim::CacheConfig c;
  c.ways = ways;
  c.size_bytes = kb << 10;
  return c;
}

struct Problem {
  linalg::CsrMatrix a;
  std::vector<double> b;
};

Problem problem(std::size_t n, std::uint64_t seed = 31) {
  return {linalg::make_spd(n, 9, seed), linalg::make_rhs(n, seed + 1)};
}

CgCcConfig config(std::size_t iters, std::size_t cache_kib) {
  CgCcConfig cfg;
  cfg.n_iters = iters;
  cfg.cache = cache_kb(cache_kib);
  return cfg;
}

TEST(CgCc, UncrashedRunMatchesPlainCg) {
  const Problem p = problem(500);
  CgCrashConsistent cc(p.a, p.b, config(8, 1024));
  EXPECT_FALSE(cc.run());
  const auto plain = cg_solve(p.a, p.b, 8);
  EXPECT_LT(linalg::max_abs_diff(cc.solution(), plain.x), 1e-12);
}

TEST(CgCc, CrashFiresAtArmedIteration) {
  const Problem p = problem(500);
  CgCrashConsistent cc(p.a, p.b, config(10, 512));
  cc.sim().scheduler().arm_at_point(CgCrashConsistent::kPointPUpdated, 6);
  EXPECT_TRUE(cc.run());
  EXPECT_EQ(cc.completed_iters(), 5u);  // Iteration 6 was interrupted.
  EXPECT_TRUE(cc.sim().crashed());
}

TEST(CgCc, RecoveryProducesCorrectFinalSolution) {
  const Problem p = problem(800);
  const std::size_t iters = 10;
  CgCrashConsistent cc(p.a, p.b, config(iters, 256));
  cc.sim().scheduler().arm_at_point(CgCrashConsistent::kPointPUpdated, 7);
  ASSERT_TRUE(cc.run());
  const CgRecovery rec = cc.recover_and_resume();
  cc.finish();
  const auto plain = cg_solve(p.a, p.b, iters);
  EXPECT_LT(linalg::max_abs_diff(cc.solution(), plain.x), 1e-9);
  EXPECT_EQ(rec.crash_iter, 7u);
  EXPECT_GE(rec.restart_iter, 1u);
  EXPECT_LE(rec.restart_iter, 7u);
  EXPECT_EQ(rec.iters_lost, rec.crash_iter - rec.restart_iter + 1);
}

TEST(CgCc, SmallProblemInLargeCacheLosesEverything) {
  // The paper's Class S/W observation: when the whole working set fits in the
  // cache, nothing was ever evicted to NVM and all iterations are lost.
  const Problem p = problem(150);
  CgCrashConsistent cc(p.a, p.b, config(12, 4096));
  cc.sim().scheduler().arm_at_point(CgCrashConsistent::kPointPUpdated, 12);
  ASSERT_TRUE(cc.run());
  const CgRecovery rec = cc.recover_and_resume();
  EXPECT_EQ(rec.restart_iter, 1u);
  EXPECT_EQ(rec.iters_lost, 12u);
}

TEST(CgCc, LargeProblemInSmallCacheLosesFewIterations) {
  // The paper's Class B/C observation: streaming evicts older history rows, so
  // only the most recent iteration(s) are volatile at crash time.
  const Problem p = problem(4000);
  CgCrashConsistent cc(p.a, p.b, config(10, 128));
  cc.sim().scheduler().arm_at_point(CgCrashConsistent::kPointPUpdated, 9);
  ASSERT_TRUE(cc.run());
  const CgRecovery rec = cc.recover_and_resume();
  EXPECT_LE(rec.iters_lost, 3u);
  EXPECT_GE(rec.iters_lost, 1u);
  cc.finish();
  const auto plain = cg_solve(p.a, p.b, 10);
  EXPECT_LT(linalg::max_abs_diff(cc.solution(), plain.x), 1e-9);
}

TEST(CgCc, RecomputationShrinksWithProblemSize) {
  // Fig. 3's monotone trend, at test scale: bigger input ⇒ fewer lost
  // iterations under the same cache.
  std::vector<std::size_t> sizes = {200, 1000, 4000};
  std::vector<std::size_t> lost;
  for (const std::size_t n : sizes) {
    const Problem p = problem(n);
    CgCrashConsistent cc(p.a, p.b, config(10, 128));
    cc.sim().scheduler().arm_at_point(CgCrashConsistent::kPointPUpdated, 9);
    ASSERT_TRUE(cc.run());
    lost.push_back(cc.recover_and_resume().iters_lost);
  }
  EXPECT_GE(lost.front(), lost.back());
  EXPECT_LE(lost.back(), 3u);
}

TEST(CgCc, DurableIterationCounterIsFlushedEveryIteration) {
  const Problem p = problem(500);
  CgCrashConsistent cc(p.a, p.b, config(6, 256));
  cc.sim().scheduler().arm_at_point(CgCrashConsistent::kPointIterEnd, 4);
  ASSERT_TRUE(cc.run());
  const CgRecovery rec = cc.recover_and_resume();
  // The counter is flushed at the top of each iteration, so detection starts
  // at the crashed iteration, not at 0.
  EXPECT_GE(rec.candidates_checked, 1u);
  EXPECT_LE(rec.restart_iter, rec.crash_iter);
}

TEST(CgCc, DetectAndResumeTimesAreReported) {
  const Problem p = problem(1000);
  CgCrashConsistent cc(p.a, p.b, config(8, 128));
  cc.sim().scheduler().arm_at_point(CgCrashConsistent::kPointPUpdated, 7);
  ASSERT_TRUE(cc.run());
  const CgRecovery rec = cc.recover_and_resume();
  EXPECT_GT(rec.detect_seconds, 0.0);
  EXPECT_GT(rec.resume_seconds, 0.0);
  EXPECT_GT(cc.avg_iter_seconds(), 0.0);
}

TEST(CgCc, RecoverWithoutCrashIsRejected) {
  const Problem p = problem(200);
  CgCrashConsistent cc(p.a, p.b, config(4, 256));
  EXPECT_FALSE(cc.run());
  EXPECT_THROW(cc.recover_and_resume(), ContractViolation);
}

TEST(CgCc, AccessCountTriggerAlsoRecovers) {
  const Problem p = problem(800);
  CgCrashConsistent cc(p.a, p.b, config(8, 128));
  cc.sim().scheduler().arm_at_access(10'000);
  if (cc.run()) {
    const CgRecovery rec = cc.recover_and_resume();
    cc.finish();
    const auto plain = cg_solve(p.a, p.b, 8);
    EXPECT_LT(linalg::max_abs_diff(cc.solution(), plain.x), 1e-9);
    EXPECT_GE(rec.crash_iter, 1u);
  } else {
    FAIL() << "10k line accesses should interrupt this configuration";
  }
}

// Crash-point sweep: recovery must be correct wherever the crash lands.
class CgCrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CgCrashSweep, RecoveryCorrectAtEveryCrashSite) {
  const Problem p = problem(700, 77);
  const std::size_t iters = 9;
  CgCrashConsistent cc(p.a, p.b, config(iters, 128));
  cc.sim().scheduler().arm_at_point(CgCrashConsistent::kPointPUpdated, GetParam());
  ASSERT_TRUE(cc.run());
  const CgRecovery rec = cc.recover_and_resume();
  cc.finish();
  const auto plain = cg_solve(p.a, p.b, iters);
  EXPECT_LT(linalg::max_abs_diff(cc.solution(), plain.x), 1e-9);
  EXPECT_EQ(rec.crash_iter, GetParam());
}

INSTANTIATE_TEST_SUITE_P(CrashIterations, CgCrashSweep, ::testing::Values(1, 2, 3, 5, 8, 9));

}  // namespace
}  // namespace adcc::cg

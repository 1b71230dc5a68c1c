// Cross-module integration tests: each memsim crash-consistent algorithm
// recovers from a mid-run crash to the uncrashed answer, and the umbrella
// header exposes every layer. The seven-mode adapters' per-mode checks live
// in test_adapters.cpp.
#include <gtest/gtest.h>

#include "core/adcc.hpp"

namespace adcc {
namespace {

TEST(Integration, CgMemsimCrashRecoveryMatchesGolden) {
  const std::size_t n = 500, iters = 8;
  const auto a = linalg::make_spd(n, 9, 3);
  const auto b = linalg::make_rhs(n, 4);
  const auto golden = cg::cg_solve(a, b, iters);

  cg::CgCcConfig cfg;
  cfg.n_iters = iters;
  cfg.cache.ways = 8;
  cfg.cache.size_bytes = 128u << 10;
  cg::CgCrashConsistent cc(a, b, cfg);
  cc.sim().scheduler().arm_at_point(cg::CgCrashConsistent::kPointPUpdated, 5);
  ASSERT_TRUE(cc.run());
  cc.recover_and_resume();
  cc.finish();
  EXPECT_LT(linalg::max_abs_diff(cc.solution(), golden.x), 1e-9);
}

TEST(Integration, MmMemsimCrashRecoveryMatchesGolden) {
  const std::size_t n = 64, k = 16;
  linalg::Matrix a(n, n), b(n, n), golden(n, n);
  a.fill_random(10, -1, 1);
  b.fill_random(11, -1, 1);
  linalg::gemm_reference(a, b, golden);

  mm::MmCcConfig cfg;
  cfg.n = n;
  cfg.rank_k = k;
  cfg.cache.ways = 4;
  cfg.cache.size_bytes = 32u << 10;
  mm::MmCrashConsistent mmcc(a, b, cfg);
  mmcc.sim().scheduler().arm_at_point(mm::MmCrashConsistent::kPointMultEnd, 3);
  ASSERT_TRUE(mmcc.run());
  mmcc.recover_and_resume();
  EXPECT_LT(linalg::Matrix::max_abs_diff(mmcc.result(), golden), 1e-10);
}

TEST(Integration, XsCrashRecoveryExactUnderSelectiveFlushing) {
  mc::XsConfig dc;
  dc.n_nuclides = 10;
  dc.gridpoints_per_nuclide = 128;
  dc.seed = 2;
  const mc::XsDataHost data(dc);

  mc::XsCcConfig cfg;
  cfg.total_lookups = 3000;
  cfg.policy = mc::XsFlushPolicy::kSelective;
  cfg.flush_interval = 30;
  cfg.cache.ways = 4;
  cfg.cache.size_bytes = 32u << 10;
  cfg.rng_seed = 5;

  mc::XsCrashConsistent nocrash(data, cfg);
  ASSERT_FALSE(nocrash.run());

  mc::XsCrashConsistent crashed(data, cfg);
  crashed.sim().scheduler().arm_at_point(mc::XsCrashConsistent::kPointLookupEnd, 300);
  ASSERT_TRUE(crashed.run());
  crashed.recover_and_resume();
  EXPECT_EQ(crashed.tally().counts, nocrash.tally().counts);
}

TEST(Integration, UmbrellaHeaderExposesAllLayers) {
  // Compile-time integration: one object of each namespace's flagship type.
  memsim::CacheConfig cc;
  EXPECT_GT(cc.num_sets(), 0u);
  EXPECT_EQ(core::all_modes().size(), 7u);
  EXPECT_GE(mc::kChannels, 5);
  SUCCEED();
}

}  // namespace
}  // namespace adcc

// Tests for the crash-consistent ABFT matrix multiplication (paper Fig. 6).
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "linalg/gemm.hpp"
#include "mm/mm_cc.hpp"

namespace adcc::mm {
namespace {

using linalg::Matrix;

MmCcConfig config(std::size_t n, std::size_t k, std::size_t cache_kib) {
  MmCcConfig cfg;
  cfg.n = n;
  cfg.rank_k = k;
  cfg.cache.ways = 4;
  cfg.cache.size_bytes = cache_kib << 10;
  return cfg;
}

struct Inputs {
  Matrix a, b, cref;
};

Inputs inputs(std::size_t n, std::uint64_t seed = 17) {
  Inputs in{Matrix(n, n), Matrix(n, n), Matrix(n, n)};
  in.a.fill_random(seed, -1, 1);
  in.b.fill_random(seed + 1, -1, 1);
  linalg::gemm_reference(in.a, in.b, in.cref);
  return in;
}

TEST(MmCc, UncrashedRunMatchesReference) {
  const Inputs in = inputs(64);
  MmCrashConsistent mm(in.a, in.b, config(64, 16, 1024));
  EXPECT_FALSE(mm.run());
  EXPECT_LT(Matrix::max_abs_diff(mm.result(), in.cref), 1e-10);
}

TEST(MmCc, PanelCountHandlesNonDividingRank) {
  const Inputs in = inputs(50);
  MmCrashConsistent mm(in.a, in.b, config(50, 16, 1024));  // ceil(50/16) = 4
  EXPECT_EQ(mm.num_panels(), 4u);
  EXPECT_FALSE(mm.run());
  EXPECT_LT(Matrix::max_abs_diff(mm.result(), in.cref), 1e-10);
}

TEST(MmCc, Loop1CrashRecoversAndCompletes) {
  const Inputs in = inputs(96);
  MmCrashConsistent mm(in.a, in.b, config(96, 16, 32));
  mm.sim().scheduler().arm_at_point(MmCrashConsistent::kPointMultEnd, 4);
  ASSERT_TRUE(mm.run());
  const MmRecovery rec = mm.recover_and_resume();
  EXPECT_EQ(rec.crash_phase, 1);
  EXPECT_EQ(rec.crash_unit, 4u);
  EXPECT_GE(rec.units_recomputed, 1u);  // At least the freshest panel died.
  EXPECT_LT(Matrix::max_abs_diff(mm.result(), in.cref), 1e-10);
}

TEST(MmCc, Loop2CrashRecoversAndCompletes) {
  const Inputs in = inputs(96);
  MmCrashConsistent mm(in.a, in.b, config(96, 16, 32));
  mm.sim().scheduler().arm_at_point(MmCrashConsistent::kPointAddEnd, 3);
  ASSERT_TRUE(mm.run());
  const MmRecovery rec = mm.recover_and_resume();
  EXPECT_EQ(rec.crash_phase, 2);
  EXPECT_EQ(rec.crash_unit, 3u);
  EXPECT_LT(Matrix::max_abs_diff(mm.result(), in.cref), 1e-10);
}

TEST(MmCc, Loop1CrashWithTinyCacheLosesMultiplePanels) {
  // The paper's small-input case (n = 2000): several temporal matrices still
  // have volatile lines at crash time → more than one lost multiplication.
  const Inputs in = inputs(64);
  MmCrashConsistent mm(in.a, in.b, config(64, 8, 16));  // Ctemp_s ≈ 33 KB > 16 KB cache.
  mm.sim().scheduler().arm_at_point(MmCrashConsistent::kPointMultEnd, 4);
  ASSERT_TRUE(mm.run());
  const MmRecovery rec = mm.recover_and_resume();
  EXPECT_GE(rec.units_recomputed, 1u);
  EXPECT_LT(Matrix::max_abs_diff(mm.result(), in.cref), 1e-10);
}

TEST(MmCc, ChecksumCorrectionRepairsSingleElementWithoutRecompute) {
  const Inputs in = inputs(48);
  MmCrashConsistent mm(in.a, in.b, config(48, 16, 16));
  ASSERT_FALSE(mm.run());
  // Fault injection: one durable element of panel 2 is damaged, then the
  // machine "dies". Recovery must repair it purely from checksums.
  mm.corrupt_element_for_test(2, 5, 7, 1234.5);
  mm.sim().crash();
  const MmRecovery rec = mm.recover_and_resume();
  EXPECT_GE(rec.units_corrected, 1u);
  EXPECT_LT(Matrix::max_abs_diff(mm.result(), in.cref), 1e-10);
}

TEST(MmCc, RecoveryReportsTimings) {
  const Inputs in = inputs(64);
  MmCrashConsistent mm(in.a, in.b, config(64, 16, 32));
  mm.sim().scheduler().arm_at_point(MmCrashConsistent::kPointMultEnd, 2);
  ASSERT_TRUE(mm.run());
  const MmRecovery rec = mm.recover_and_resume();
  EXPECT_GT(rec.detect_seconds, 0.0);
  EXPECT_GE(rec.resume_seconds, 0.0);
  EXPECT_GT(mm.avg_mult_seconds(), 0.0);
}

TEST(MmCc, InvalidConfigRejected) {
  const Inputs in = inputs(16);
  MmCcConfig bad = config(16, 32, 64);  // rank > n
  EXPECT_THROW(MmCrashConsistent(in.a, in.b, bad), ContractViolation);
}

TEST(MmCc, ResultBeforeCompletionRejected) {
  const Inputs in = inputs(32);
  MmCrashConsistent mm(in.a, in.b, config(32, 8, 64));
  EXPECT_THROW(mm.result(), ContractViolation);
}

// Crash sweep over both loops and several sites.
struct MmCrashCase {
  const char* point;
  std::uint64_t occurrence;
};

class MmCrashSweep : public ::testing::TestWithParam<MmCrashCase> {};

TEST_P(MmCrashSweep, RecoveryCorrectEverywhere) {
  const Inputs in = inputs(80, 99);
  MmCrashConsistent mm(in.a, in.b, config(80, 16, 32));
  mm.sim().scheduler().arm_at_point(GetParam().point, GetParam().occurrence);
  ASSERT_TRUE(mm.run());
  mm.recover_and_resume();
  EXPECT_LT(Matrix::max_abs_diff(mm.result(), in.cref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, MmCrashSweep,
    ::testing::Values(MmCrashCase{MmCrashConsistent::kPointMultEnd, 1},
                      MmCrashCase{MmCrashConsistent::kPointMultEnd, 3},
                      MmCrashCase{MmCrashConsistent::kPointMultEnd, 5},
                      MmCrashCase{MmCrashConsistent::kPointAddEnd, 1},
                      MmCrashCase{MmCrashConsistent::kPointAddEnd, 2},
                      MmCrashCase{MmCrashConsistent::kPointAddEnd, 4}),
    [](const auto& info) {
      return std::string(info.param.point[3] == 'l' && info.param.point[7] == '1' ? "Mult"
                                                                                  : "Add") +
             std::to_string(info.param.occurrence);
    });

}  // namespace
}  // namespace adcc::mm

// Tests for dense GEMM kernels.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "linalg/gemm.hpp"

namespace adcc::linalg {
namespace {

TEST(Matrix, RowMajorIndexing) {
  Matrix m(2, 3);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.row(1)[2], 5.0);
  EXPECT_EQ(m.size_bytes(), 48u);
}

TEST(Matrix, FillRandomDeterministic) {
  Matrix a(4, 4), b(4, 4);
  a.fill_random(9, -1, 1);
  b.fill_random(9, -1, 1);
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 0.0);
  double mn = 1e9, mx = -1e9;
  for (double v : a.flat()) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_GE(mn, -1.0);
  EXPECT_LT(mx, 1.0);
}

TEST(Matrix, SetZero) {
  Matrix m(3, 3);
  m.fill_random(1);
  m.set_zero();
  for (double v : m.flat()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Matrix, MaxAbsDiffShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 3);
  EXPECT_THROW(Matrix::max_abs_diff(a, b), ContractViolation);
}

TEST(Gemm, MatchesReferenceSmall) {
  Matrix a(7, 7), b(7, 7), c(7, 7), cref(7, 7);
  a.fill_random(1, -1, 1);
  b.fill_random(2, -1, 1);
  gemm(a, b, c);
  gemm_reference(a, b, cref);
  EXPECT_LT(Matrix::max_abs_diff(c, cref), 1e-12);
}

TEST(Gemm, RectangularShapes) {
  Matrix a(5, 9), b(9, 3), c(5, 3), cref(5, 3);
  a.fill_random(3);
  b.fill_random(4);
  gemm(a, b, c);
  gemm_reference(a, b, cref);
  EXPECT_LT(Matrix::max_abs_diff(c, cref), 1e-12);
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(3, 4), b(5, 3), c(3, 3);
  EXPECT_THROW(gemm(a, b, c), ContractViolation);
}

TEST(GemmPanel, SumOfPanelsEqualsFullProduct) {
  const std::size_t n = 33;  // Deliberately not divisible by the panel width.
  Matrix a(n, n), b(n, n), c(n, n), cref(n, n);
  a.fill_random(5, -1, 1);
  b.fill_random(6, -1, 1);
  c.set_zero();
  const std::size_t k = 8;
  for (std::size_t s = 0; s < n; s += k) {
    gemm_panel(a, s, std::min(k, n - s), b, s, c, /*accumulate=*/true);
  }
  gemm_reference(a, b, cref);
  EXPECT_LT(Matrix::max_abs_diff(c, cref), 1e-11);
}

TEST(GemmPanel, NonAccumulatingOverwrites) {
  Matrix a(4, 4), b(4, 4), c(4, 4);
  a.fill_random(7);
  b.fill_random(8);
  c.fill_random(9);  // Garbage that must be overwritten.
  gemm_panel(a, 0, 4, b, 0, c, /*accumulate=*/false);
  Matrix cref(4, 4);
  gemm_reference(a, b, cref);
  EXPECT_LT(Matrix::max_abs_diff(c, cref), 1e-12);
}

TEST(GemmPanel, PanelBoundsValidated) {
  Matrix a(4, 4), b(4, 4), c(4, 4);
  EXPECT_THROW(gemm_panel(a, 2, 3, b, 0, c, true), ContractViolation);
  EXPECT_THROW(gemm_panel(a, 0, 2, b, 3, c, true), ContractViolation);
}

// Property sweep: blocked/panel GEMM equals the reference for many (n, k).
struct GemmCase {
  std::size_t n;
  std::size_t k;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, PanelDecompositionIsExact) {
  const auto [n, k] = GetParam();
  Matrix a(n, n), b(n, n), c(n, n), cref(n, n);
  a.fill_random(n * 3 + 1, -2, 2);
  b.fill_random(n * 7 + 5, -2, 2);
  c.set_zero();
  for (std::size_t s = 0; s < n; s += k) {
    gemm_panel(a, s, std::min(k, n - s), b, s, c, true);
  }
  gemm_reference(a, b, cref);
  EXPECT_LT(Matrix::max_abs_diff(c, cref), 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSweep,
                         ::testing::Values(GemmCase{16, 4}, GemmCase{17, 4}, GemmCase{32, 32},
                                           GemmCase{45, 7}, GemmCase{64, 16}, GemmCase{100, 33}),
                         [](const auto& info) {
                           // Built up incrementally: the chained `"n" + str + ...`
                           // spelling trips GCC 12's -Wrestrict false positive
                           // (GCC bug 105651).
                           std::string name = "n";
                           name += std::to_string(info.param.n);
                           name += "_k";
                           name += std::to_string(info.param.k);
                           return name;
                         });

}  // namespace
}  // namespace adcc::linalg

// Tests for the plain CG kernel: init, step, solve and the true residual.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "cg/cg.hpp"
#include "linalg/spgen.hpp"
#include "linalg/vec_ops.hpp"

namespace adcc::cg {
namespace {

struct Problem {
  linalg::CsrMatrix a;
  std::vector<double> b;
};

Problem make_problem(std::size_t n = 600) {
  return {linalg::make_spd(n, 9, 21), linalg::make_rhs(n, 22)};
}

TEST(CgInit, StateMatchesDefinition) {
  const Problem p = make_problem(100);
  CgState s;
  cg_init(p.a, p.b, s);
  EXPECT_EQ(s.iter, 0u);
  EXPECT_DOUBLE_EQ(s.rho, linalg::dot(p.b, p.b));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(s.r[i], p.b[i]);
    EXPECT_DOUBLE_EQ(s.p[i], p.b[i]);
    EXPECT_DOUBLE_EQ(s.z[i], 0.0);
  }
}

TEST(CgStep, ReducesResidualNorm) {
  const Problem p = make_problem();
  CgState s;
  cg_init(p.a, p.b, s);
  const double before = std::sqrt(s.rho);
  for (int i = 0; i < 5; ++i) cg_step(p.a, s);
  EXPECT_LT(std::sqrt(s.rho), before);
  EXPECT_EQ(s.iter, 5u);
}

TEST(CgSolve, ConvergesTowardSolution) {
  const Problem p = make_problem();
  const auto res5 = cg_solve(p.a, p.b, 5);
  const auto res40 = cg_solve(p.a, p.b, 40);
  EXPECT_LT(res40.residual_norm, res5.residual_norm);
  EXPECT_LT(res40.residual_norm, 1e-6 * linalg::norm2(p.b));
}

TEST(CgSolve, InternalResidualTracksTrueResidual) {
  const Problem p = make_problem(300);
  CgState s;
  cg_init(p.a, p.b, s);
  for (int i = 0; i < 10; ++i) cg_step(p.a, s);
  const double true_r = true_residual(p.a, p.b, s.z);
  EXPECT_NEAR(std::sqrt(s.rho), true_r, 1e-8 * linalg::norm2(p.b) + 1e-10);
}

TEST(CgSolve, RhsSizeMismatchThrows) {
  const Problem p = make_problem(100);
  std::vector<double> bad(50, 1.0);
  EXPECT_THROW(cg_solve(p.a, bad, 3), ContractViolation);
}

TEST(TrueResidual, ZeroForExactSolution) {
  // A = I system: x = b exactly.
  std::vector<std::size_t> rp = {0, 1, 2};
  std::vector<std::uint32_t> ci = {0, 1};
  std::vector<double> v = {1.0, 1.0};
  linalg::CsrMatrix eye(2, std::move(rp), std::move(ci), std::move(v));
  std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(true_residual(eye, b, b), 0.0);
}

}  // namespace
}  // namespace adcc::cg

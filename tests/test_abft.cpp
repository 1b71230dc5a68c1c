// Tests for ABFT checksum encodings, verification and correction. The Fig. 5
// rank-k ABFT GEMM itself is MmWorkload's native engine (test_adapters.cpp).
#include <gtest/gtest.h>

#include "abft/checksum.hpp"
#include "linalg/gemm.hpp"

namespace adcc::abft {
namespace {

using linalg::Matrix;

Matrix random_square(std::size_t n, std::uint64_t seed) {
  Matrix m(n, n);
  m.fill_random(seed, -1.0, 1.0);
  return m;
}

TEST(Encode, ColumnChecksumLastRowHoldsColumnSums) {
  Matrix a(3, 4);
  a.fill_random(1);
  const Matrix ac = encode_column_checksum(a);
  ASSERT_EQ(ac.rows(), 4u);
  ASSERT_EQ(ac.cols(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    double s = 0;
    for (std::size_t i = 0; i < 3; ++i) s += a(i, j);
    EXPECT_NEAR(ac(3, j), s, 1e-14);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(ac(i, j), a(i, j));
  }
}

TEST(Encode, RowChecksumLastColumnHoldsRowSums) {
  Matrix b(4, 3);
  b.fill_random(2);
  const Matrix br = encode_row_checksum(b);
  ASSERT_EQ(br.rows(), 4u);
  ASSERT_EQ(br.cols(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 3; ++j) s += b(i, j);
    EXPECT_NEAR(br(i, 3), s, 1e-14);
  }
}

Matrix full_checksum_product(std::size_t n, std::uint64_t seed) {
  const Matrix a = random_square(n, seed);
  const Matrix b = random_square(n, seed + 1);
  const Matrix ac = encode_column_checksum(a);
  const Matrix br = encode_row_checksum(b);
  Matrix cf(n + 1, n + 1);
  linalg::gemm(ac, br, cf);
  return cf;
}

TEST(Verify, ProductChecksumsConsistent) {
  const Matrix cf = full_checksum_product(12, 7);
  EXPECT_TRUE(verify_full_checksums(cf).consistent());
}

TEST(Verify, DetectsSingleCorruptElementInRowAndColumn) {
  Matrix cf = full_checksum_product(12, 7);
  cf(3, 5) += 1.0;
  const auto rep = verify_full_checksums(cf);
  ASSERT_EQ(rep.bad_rows.size(), 1u);
  ASSERT_EQ(rep.bad_cols.size(), 1u);
  EXPECT_EQ(rep.bad_rows[0], 3u);
  EXPECT_EQ(rep.bad_cols[0], 5u);
}

TEST(Verify, DetectsCorruptChecksumEntryItself) {
  Matrix cf = full_checksum_product(10, 3);
  cf(2, 10) += 1.0;  // Damage the row-checksum column.
  EXPECT_FALSE(verify_full_checksums(cf).consistent());
}

TEST(Verify, RowOnlyModeIgnoresColumns) {
  Matrix cf = full_checksum_product(10, 3);
  const auto rep = verify_row_checksums(cf, /*has_checksum_row=*/true);
  EXPECT_TRUE(rep.bad_rows.empty());
}

TEST(Verify, ToleratesFloatingPointNoise) {
  Matrix cf = full_checksum_product(64, 5);
  cf(1, 1) += 1e-14;  // Below tolerance: must stay consistent.
  EXPECT_TRUE(verify_full_checksums(cf).consistent());
}

TEST(Correct, RepairsSingleElement) {
  Matrix cf = full_checksum_product(12, 9);
  const double original = cf(4, 6);
  cf(4, 6) += 3.0;
  const auto rep = verify_full_checksums(cf);
  EXPECT_EQ(try_correct(cf, rep), 1u);
  EXPECT_NEAR(cf(4, 6), original, 1e-9);
  EXPECT_TRUE(verify_full_checksums(cf).consistent());
}

TEST(Correct, RepairsTwoIsolatedErrorsWithDistinctDeltas) {
  Matrix cf = full_checksum_product(12, 9);
  const double e46 = cf(4, 6);
  const double e57 = cf(5, 7);
  cf(4, 6) += 3.0;
  cf(5, 7) += 2.0;  // Distinct rows, columns, and discrepancies → matchable.
  const auto rep = verify_full_checksums(cf);
  EXPECT_EQ(try_correct(cf, rep), 2u);
  EXPECT_NEAR(cf(4, 6), e46, 1e-9);
  EXPECT_NEAR(cf(5, 7), e57, 1e-9);
  EXPECT_TRUE(verify_full_checksums(cf).consistent());
}

TEST(Correct, RefusesAmbiguousEqualDeltaErrors) {
  Matrix cf = full_checksum_product(12, 9);
  cf(4, 6) += 3.0;
  cf(5, 7) += 3.0;  // Equal discrepancies: row↔column pairing is ambiguous.
  const auto rep = verify_full_checksums(cf);
  EXPECT_EQ(try_correct(cf, rep), 0u);
}

TEST(Correct, RepairsThreeIsolatedErrors) {
  Matrix cf = full_checksum_product(16, 5);
  cf(1, 2) += 1.0;
  cf(6, 9) -= 2.5;
  cf(11, 0) += 4.0;
  const auto rep = verify_full_checksums(cf);
  EXPECT_EQ(try_correct(cf, rep), 3u);
  EXPECT_TRUE(verify_full_checksums(cf).consistent());
}

TEST(Correct, RefusesRowWithTwoBadElements) {
  Matrix cf = full_checksum_product(12, 9);
  cf(4, 6) += 3.0;
  cf(4, 8) += 2.0;  // One bad row, two bad columns.
  const auto rep = verify_full_checksums(cf);
  EXPECT_EQ(try_correct(cf, rep), 0u);
}

TEST(Correct, NoopOnConsistentMatrix) {
  Matrix cf = full_checksum_product(8, 2);
  const auto rep = verify_full_checksums(cf);
  EXPECT_EQ(try_correct(cf, rep), 0u);
}

TEST(StripChecksums, DropsLastRowAndColumn) {
  const Matrix cf = full_checksum_product(6, 1);
  const Matrix c = strip_checksums(cf);
  EXPECT_EQ(c.rows(), 6u);
  EXPECT_EQ(c.cols(), 6u);
  EXPECT_DOUBLE_EQ(c(2, 3), cf(2, 3));
}

}  // namespace
}  // namespace adcc::abft

// The checksum loops start on 32-byte boundaries, so their timing does not
// move with the size of earlier translation units (see
// kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "abft/checksum.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace adcc::abft {

using linalg::Matrix;

Matrix encode_column_checksum(const Matrix& a) {
  Matrix ac(a.rows() + 1, a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) ac(i, j) = a(i, j);
  }
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) s += a(i, j);
    ac(a.rows(), j) = s;
  }
  return ac;
}

Matrix encode_row_checksum(const Matrix& b) {
  Matrix br(b.rows(), b.cols() + 1);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < b.cols(); ++j) {
      br(i, j) = b(i, j);
      s += b(i, j);
    }
    br(i, b.cols()) = s;
  }
  return br;
}

namespace {

bool sums_match(double sum, double checksum, double magnitude, std::size_t terms,
                const ChecksumTolerance& tol) {
  // Scale grows with the accumulated magnitude and the number of summed terms;
  // sqrt(terms) reflects the expected error growth of random-sign rounding.
  const double scale =
      magnitude * tol.rel * std::sqrt(static_cast<double>(terms) + 1.0) + tol.abs;
  return std::fabs(sum - checksum) <= scale;
}

}  // namespace

ChecksumReport verify_row_checksums(const Matrix& cf, bool has_checksum_row,
                                    const ChecksumTolerance& tol) {
  ADCC_CHECK(cf.cols() >= 2, "checksum matrix too small");
  ChecksumReport rep;
  const std::size_t data_rows = has_checksum_row ? cf.rows() - 1 : cf.rows();
  const std::size_t data_cols = cf.cols() - 1;
  for (std::size_t i = 0; i < data_rows; ++i) {
    double s = 0.0;
    double mag = 0.0;
    for (std::size_t j = 0; j < data_cols; ++j) {
      s += cf(i, j);
      mag += std::fabs(cf(i, j));
    }
    if (!sums_match(s, cf(i, data_cols), mag + std::fabs(cf(i, data_cols)), data_cols, tol)) {
      rep.bad_rows.push_back(i);
    }
  }
  return rep;
}

ChecksumReport verify_full_checksums(const Matrix& cf, const ChecksumTolerance& tol) {
  ADCC_CHECK(cf.rows() >= 2 && cf.cols() >= 2, "checksum matrix too small");
  ChecksumReport rep = verify_row_checksums(cf, /*has_checksum_row=*/true, tol);
  const std::size_t data_rows = cf.rows() - 1;
  const std::size_t data_cols = cf.cols() - 1;
  for (std::size_t j = 0; j < data_cols; ++j) {
    double s = 0.0;
    double mag = 0.0;
    for (std::size_t i = 0; i < data_rows; ++i) {
      s += cf(i, j);
      mag += std::fabs(cf(i, j));
    }
    if (!sums_match(s, cf(data_rows, j), mag + std::fabs(cf(data_rows, j)), data_rows, tol)) {
      rep.bad_cols.push_back(j);
    }
  }
  return rep;
}

namespace {

double row_delta(const Matrix& cf, std::size_t r) {
  const std::size_t data_cols = cf.cols() - 1;
  double s = 0.0;
  for (std::size_t j = 0; j < data_cols; ++j) s += cf(r, j);
  return s - cf(r, data_cols);
}

double col_delta(const Matrix& cf, std::size_t c) {
  const std::size_t data_rows = cf.rows() - 1;
  double s = 0.0;
  for (std::size_t i = 0; i < data_rows; ++i) s += cf(i, c);
  return s - cf(data_rows, c);
}

}  // namespace

std::size_t try_correct(Matrix& cf, const ChecksumReport& report, const ChecksumTolerance& tol) {
  if (report.consistent()) return 0;
  // Isolated-error pattern: k bad rows, k bad columns, and a unique matching
  // between them by discrepancy magnitude.
  if (report.bad_rows.size() != report.bad_cols.size()) return 0;

  const std::size_t k = report.bad_rows.size();
  std::vector<double> rdelta(k), cdelta(k);
  double scale = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    rdelta[i] = row_delta(cf, report.bad_rows[i]);
    cdelta[i] = col_delta(cf, report.bad_cols[i]);
    scale = std::max({scale, std::fabs(rdelta[i]), std::fabs(cdelta[i])});
  }
  const double match_tol = 64.0 * tol.rel * scale + tol.abs;

  // Greedy unique matching: each bad row must match exactly one unused bad
  // column with (near-)equal delta; any ambiguity aborts the correction.
  std::vector<std::size_t> match(k, k);
  std::vector<bool> col_used(k, false);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t found = k;
    for (std::size_t j = 0; j < k; ++j) {
      if (col_used[j] || std::fabs(rdelta[i] - cdelta[j]) > match_tol) continue;
      if (found != k) return 0;  // Two candidate columns: ambiguous.
      found = j;
    }
    if (found == k) return 0;  // No candidate: not an isolated-error pattern.
    match[i] = found;
    col_used[found] = true;
  }

  Matrix backup = cf;
  for (std::size_t i = 0; i < k; ++i) {
    cf(report.bad_rows[i], report.bad_cols[match[i]]) -= rdelta[i];
  }
  if (!verify_full_checksums(cf, tol).consistent()) {
    cf = backup;  // The pattern was not actually isolated errors.
    return 0;
  }
  return k;
}

Matrix strip_checksums(const Matrix& cf) {
  ADCC_CHECK(cf.rows() >= 2 && cf.cols() >= 2, "not a checksum matrix");
  Matrix c(cf.rows() - 1, cf.cols() - 1);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) c(i, j) = cf(i, j);
  }
  return c;
}

}  // namespace adcc::abft

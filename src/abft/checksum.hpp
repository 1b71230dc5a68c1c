// ABFT checksum encodings for matrix multiplication (paper Eq. 3–6).
//
// For C = A·B (A: m×k, B: k×n):
//   Ac = [A ; vᵀA]   — column-checksum matrix, (m+1)×k, last row = column sums
//   Br = [B, Bw]     — row-checksum matrix, k×(n+1), last column = row sums
//   Cf = Ac·Br       — full-checksum matrix, (m+1)×(n+1): last row holds column
//                      sums of C, last column holds row sums of C.
// v and w are all-ones vectors (the paper's "typical" choice).
//
// The checksum relationship (Eq. 6) lets us *detect* any inconsistent element
// and *correct* it when it is the unique bad element in its row or column —
// exactly the machinery the paper redeploys from soft-error tolerance to crash
// consistency.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"

namespace adcc::abft {

/// Encodes the (m+1)×k column-checksum matrix of A (Eq. 3).
linalg::Matrix encode_column_checksum(const linalg::Matrix& a);

/// Encodes the k×(n+1) row-checksum matrix of B (Eq. 4).
linalg::Matrix encode_row_checksum(const linalg::Matrix& b);

/// Verification tolerance: |sum − checksum| ≤ tol_rel · scale, where scale
/// grows with the magnitudes involved (floating-point sums of n terms).
struct ChecksumTolerance {
  double rel = 1e-9;
  double abs = 1e-9;
};

/// Result of verifying a full-checksum matrix.
struct ChecksumReport {
  std::vector<std::size_t> bad_rows;  ///< rows whose row-sum ≠ row-checksum
  std::vector<std::size_t> bad_cols;  ///< cols whose col-sum ≠ col-checksum
  bool consistent() const { return bad_rows.empty() && bad_cols.empty(); }
};

/// Checks every row of `cf` against its last-column checksum. `cf` is
/// interpreted as a full- or row-checksum matrix: rows 0..rows-2 if
/// `has_checksum_row`, else all rows.
ChecksumReport verify_row_checksums(const linalg::Matrix& cf, bool has_checksum_row,
                                    const ChecksumTolerance& tol = {});

/// Checks rows AND columns of a full-checksum matrix (Eq. 6).
ChecksumReport verify_full_checksums(const linalg::Matrix& cf, const ChecksumTolerance& tol = {});

/// Attempts checksum-directed correction of isolated element errors.
///
/// A single corrupted element (r, c) makes exactly row r and column c
/// inconsistent, and the row discrepancy Σrow − checksum equals the column
/// discrepancy. k isolated errors in distinct rows AND distinct columns are
/// therefore correctable by matching row deltas to column deltas (unique
/// within tolerance) and subtracting the delta at each matched position.
/// Returns the number of corrected elements (0 if the pattern is ambiguous
/// or the post-correction verification still fails — the caller recomputes,
/// the paper's crash case).
std::size_t try_correct(linalg::Matrix& cf, const ChecksumReport& report,
                        const ChecksumTolerance& tol = {});

/// Strips checksums: returns the m×n data part of a full-checksum matrix.
linalg::Matrix strip_checksums(const linalg::Matrix& cf);

}  // namespace adcc::abft

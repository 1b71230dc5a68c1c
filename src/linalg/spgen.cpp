#include "linalg/spgen.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace adcc::linalg {

CgProblemShape shape_of(CgClass cls) {
  switch (cls) {
    case CgClass::S: return {1400, 7};
    case CgClass::W: return {7000, 8};
    case CgClass::A: return {14000, 11};
    case CgClass::B: return {75000, 13};
    case CgClass::C: return {150000, 15};
  }
  ADCC_CHECK(false, "unknown class");
}

std::string name_of(CgClass cls) {
  switch (cls) {
    case CgClass::S: return "S";
    case CgClass::W: return "W";
    case CgClass::A: return "A";
    case CgClass::B: return "B";
    case CgClass::C: return "C";
  }
  ADCC_CHECK(false, "unknown class");
}

CsrMatrix make_spd(std::size_t n, std::size_t nz_per_row, std::uint64_t seed) {
  ADCC_CHECK(n >= 2, "matrix too small");
  ADCC_CHECK(nz_per_row >= 2, "need at least two nonzeros per row");
  SplitMix64 rng(seed);

  // Sample strictly-upper entries, (nz_per_row-1)/2 per row rounded up, then
  // mirror. Duplicates within a row are merged by summation.
  const std::size_t upper_per_row = std::max<std::size_t>(1, (nz_per_row - 1) / 2);
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows(n);
  for (std::size_t r = 0; r + 1 < n; ++r) {
    for (std::size_t t = 0; t < upper_per_row; ++t) {
      const std::size_t span = n - r - 1;
      const auto c = static_cast<std::uint32_t>(r + 1 + rng.next_below(span));
      const double v = 2.0 * rng.next_double() - 1.0;
      rows[r].emplace_back(c, v);
      rows[c].emplace_back(static_cast<std::uint32_t>(r), v);
    }
  }

  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(n * nz_per_row);
  values.reserve(n * nz_per_row);

  for (std::size_t r = 0; r < n; ++r) {
    auto& entries = rows[r];
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Merge duplicates and accumulate |offdiag| for the dominant diagonal.
    std::vector<std::pair<std::uint32_t, double>> merged;
    for (const auto& [c, v] : entries) {
      if (!merged.empty() && merged.back().first == c) {
        merged.back().second += v;
      } else {
        merged.emplace_back(c, v);
      }
    }
    double offdiag_abs = 0.0;
    for (const auto& [c, v] : merged) offdiag_abs += std::fabs(v);
    const double diag = offdiag_abs + 1.0;

    bool diag_written = false;
    for (const auto& [c, v] : merged) {
      if (!diag_written && c > r) {
        col_idx.push_back(static_cast<std::uint32_t>(r));
        values.push_back(diag);
        diag_written = true;
      }
      col_idx.push_back(c);
      values.push_back(v);
    }
    if (!diag_written) {
      col_idx.push_back(static_cast<std::uint32_t>(r));
      values.push_back(diag);
    }
    row_ptr[r + 1] = values.size();
  }

  return CsrMatrix(n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

std::vector<double> make_rhs(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<double> b(n);
  for (double& x : b) x = rng.next_double();
  return b;
}

}  // namespace adcc::linalg

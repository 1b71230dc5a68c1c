// Rank-k ABFT matrix multiplication (paper Fig. 5) — the *original* algorithm
// the alg-* engine of mm/mm_workload extends.
//
// Computes Cf = Ac·Br by rank-k updates, verifying Cf's checksum relationship
// at the top of every iteration and attempting single-error correction when a
// verification fails.
#pragma once

#include <cstdint>

#include "abft/checksum.hpp"
#include "linalg/gemm.hpp"

namespace adcc::abft {

struct AbftGemmStats {
  std::uint64_t verifications = 0;
  std::uint64_t detected_errors = 0;
  std::uint64_t corrected_errors = 0;
};

struct AbftGemmResult {
  linalg::Matrix cf;  ///< (n+1)×(n+1) full-checksum product.
  AbftGemmStats stats;
};

/// Fig. 5: full ABFT product of square n×n matrices with rank-k updates.
/// Throws ContractViolation if an uncorrectable error is detected (soft-error
/// usage; the crash-consistent variant recomputes instead).
AbftGemmResult abft_gemm(const linalg::Matrix& a, const linalg::Matrix& b, std::size_t rank_k,
                         const ChecksumTolerance& tol = {});

/// Strips checksums: returns the m×n data part of a full-checksum matrix.
linalg::Matrix strip_checksums(const linalg::Matrix& cf);

}  // namespace adcc::abft

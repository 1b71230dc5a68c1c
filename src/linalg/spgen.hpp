// Random sparse SPD system generator, standing in for NPB CG's `makea`.
//
// Construction: a symmetric pattern with `nz_per_row` off-diagonal entries per
// row on average (values uniform in [-1,1]) plus a diagonal making the matrix
// strictly diagonally dominant — hence symmetric positive definite, the class
// CG requires. Problem classes mirror NPB CG sizes so that the Fig. 3 sweep
// crosses the simulated LLC capacity exactly like the paper's sweep does.
#pragma once

#include <cstdint>
#include <string>

#include "linalg/csr.hpp"

namespace adcc::linalg {

/// NPB CG problem classes (rows, nonzeros-per-row as in the suite).
enum class CgClass { S, W, A, B, C };

struct CgProblemShape {
  std::size_t n;
  std::size_t nz_per_row;
};

CgProblemShape shape_of(CgClass cls);
std::string name_of(CgClass cls);

/// Generates a random sparse SPD matrix (deterministic in `seed`).
CsrMatrix make_spd(std::size_t n, std::size_t nz_per_row, std::uint64_t seed = 42);

/// Right-hand side with entries in [0,1) (deterministic in `seed`).
std::vector<double> make_rhs(std::size_t n, std::uint64_t seed = 43);

}  // namespace adcc::linalg

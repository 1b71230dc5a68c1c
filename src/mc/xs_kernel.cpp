// The lookup kernel's loops start on 32-byte boundaries, so their timing does
// not move with the size of earlier translation units (see
// kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "mc/xs_kernel.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace adcc::mc {

LookupSample sample_lookup(const CounterRng& rng, std::uint64_t i, const XsDataHost& data) {
  LookupSample s;
  s.energy = rng.uniform(i, /*lane=*/0);
  const double um = rng.uniform(i, /*lane=*/1);
  const auto& cdf = data.material_cdf();
  s.material = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), um) - cdf.begin());
  if (s.material >= kMaterials) s.material = kMaterials - 1;
  return s;
}

std::size_t grid_search(const std::vector<double>& unionized, double e,
                        std::vector<std::size_t>* probes) {
  std::size_t lo = 0;
  std::size_t hi = unionized.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (probes != nullptr) probes->push_back(mid);
    if (unionized[mid] <= e) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (probes != nullptr) probes->push_back(lo);
  return lo;
}

void macro_lookup(const XsDataHost& data, double e, int material, double out[kChannels]) {
  for (int c = 0; c < kChannels; ++c) out[c] = 0.0;
  const std::size_t u = grid_search(data.unionized_energy(), e);
  const std::size_t nn = data.config().n_nuclides;
  const std::size_t gp = data.config().gridpoints_per_nuclide;
  const auto& idx = data.index_grid();
  const auto& grids = data.nuclide_grids();
  for (const auto& [nuc, density] : data.material(material)) {
    const auto base = static_cast<std::size_t>(idx[u * nn + static_cast<std::size_t>(nuc)]);
    const NuclideGridPoint& p0 = grids[static_cast<std::size_t>(nuc) * gp + base];
    const NuclideGridPoint& p1 = grids[static_cast<std::size_t>(nuc) * gp + base + 1];
    const double span = p1.energy - p0.energy;
    const double f = span > 0 ? std::clamp((e - p0.energy) / span, 0.0, 1.0) : 0.0;
    for (int c = 0; c < kChannels; ++c) {
      out[c] += density * (p0.xs[c] + f * (p1.xs[c] - p0.xs[c]));
    }
  }
}

int tally_select(const double macro_acc[kChannels], double u) {
  double cdf[kChannels];
  double acc = 0.0;
  for (int c = 0; c < kChannels; ++c) {
    ADCC_DCHECK(macro_acc[c] >= 0, "cross sections are non-negative");
    acc += macro_acc[c];
    cdf[c] = acc;
  }
  if (acc <= 0) return 0;
  // Standard inverse-CDF sampling: type c is chosen with probability
  // macro_acc[c] / Σ macro_acc — the rule consistent with the paper's Fig. 10
  // (all five types tallied ≈ equally). The paper's §III-D worked example is
  // internally off-by-one; the figure semantics win.
  for (int c = 0; c < kChannels; ++c) {
    if (u < cdf[c] / acc) return c;
  }
  return kChannels - 1;
}

}  // namespace adcc::mc

#include "common/stats.hpp"

#include <algorithm>

namespace adcc {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid), xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid) - 1, xs.end());
  return 0.5 * (hi + xs[mid - 1]);
}

}  // namespace adcc

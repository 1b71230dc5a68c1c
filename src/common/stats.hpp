// Small statistics helpers for benchmark reporting.
#pragma once

#include <vector>

namespace adcc {

/// Median of a copy of `xs` (empty → 0).
double median(std::vector<double> xs);

}  // namespace adcc

// run_xs_range's loops start on 32-byte boundaries, so their timing does not
// move with the size of earlier translation units (see
// kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "mc/mc_ckpt.hpp"

#include "kernels/backend.hpp"

namespace adcc::mc {

void run_xs_range(const XsDataHost& data, const CounterRng& rng, std::uint64_t begin,
                  std::uint64_t end, double* macro, std::uint64_t* counters,
                  std::uint64_t* index) {
  // Dispatches to the thread's active kernel backend; every backend must
  // reproduce the serial accumulation + tally order bit-exactly (tally_select
  // reads the running macro accumulator), so tallies are backend-invariant.
  core::active_kernel_backend().xs_range(data, rng, begin, end, macro, counters, index);
}

Tally run_xs_native(const XsDataHost& data, std::uint64_t lookups, std::uint64_t seed) {
  double macro[kChannels] = {};
  std::uint64_t counters[kChannels] = {};
  std::uint64_t index = 0;
  run_xs_range(data, CounterRng(seed), 0, lookups, macro, counters, &index);
  Tally t;
  for (int c = 0; c < kChannels; ++c) t.counts[static_cast<std::size_t>(c)] = counters[c];
  return t;
}

}  // namespace adcc::mc

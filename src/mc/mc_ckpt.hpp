// The XSBench lookup loop shared by every MC engine.
//
// run_xs_range is the one inner kernel: McWorkload drives it once per
// durability interval in all seven modes (each mode differing only in how it
// makes the restart state — macro_xs_vector, the five counters and the lookup
// index — durable), and the shard plans drive it per shard slice.
// run_xs_native runs it straight through with no durability at all (test case
// 1): the reference every mode's tallies must reproduce exactly.
#pragma once

#include "mc/tally.hpp"
#include "mc/xs_kernel.hpp"

namespace adcc::mc {

/// Shared inner kernel: executes lookups [begin, end) of stream `rng`,
/// accumulating into macro[kChannels] / counters[kChannels] and recording the
/// current lookup in *index. The mc workload adapter and its shard plans all
/// drive this one loop, so their per-lookup work is identical by construction.
void run_xs_range(const XsDataHost& data, const CounterRng& rng, std::uint64_t begin,
                  std::uint64_t end, double* macro, std::uint64_t* counters,
                  std::uint64_t* index);

/// Runs `lookups` lookups of stream `seed` with no durability action and
/// returns the final tallies.
Tally run_xs_native(const XsDataHost& data, std::uint64_t lookups, std::uint64_t seed);

}  // namespace adcc::mc

// Quickstart — the library in five minutes.
//
// Demonstrates the core loop of algorithm-directed crash consistency on the
// crash emulator, through the same core::FaultSurface calls the alg-* engines
// make: put data in an NVM arena, run, die, see what NVM still holds, and
// recover — without any checkpoint or log.
//
//   build/examples/quickstart
#include <cstdio>

#include "core/adcc.hpp"

using namespace adcc;

int main() {
  std::printf("ADCC quickstart: an NVM arena, a crash, and what NVM remembers\n\n");

  // 1. The persistent arena: results (512 KB) and a progress counter on a
  //    line of its own, so flushing it never drags neighbours along.
  nvm::PerfModel perf(nvm::PerfConfig{.enabled = false});
  nvm::NvmRegion region(1u << 20, perf, "quickstart.arena");
  const std::span<double> data = region.allocate<double>(1u << 16);
  const std::span<std::int64_t> progress =
      region.allocate<std::int64_t>(kCacheLine / sizeof(std::int64_t));

  // 2. A simulated machine in front of it: 256 KB LLC, 8-way, write-back LRU.
  //    The live arena is what the program sees (cache ∪ NVM); the emulator
  //    keeps what NVM alone holds.
  core::FaultSurface fault;
  fault.emulate({.size_bytes = 256u << 10, .ways = 8});
  fault.track("results", data);
  fault.track("progress", progress);

  // 3. Compute: fill the array, then announce the stores to the cache model.
  //    Older lines are evicted (and so persisted) by the cache on its own; the
  //    most recently written half is still volatile.
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i) * 0.5;
  fault.write(data);
  std::printf("filled 512 KB through a 256 KB cache\n");

  // 4. Selectively flush one critical line (the paper's whole runtime cost).
  progress[0] = static_cast<std::int64_t>(data.size());
  fault.write(progress);
  fault.persist(region, progress.data(), sizeof(std::int64_t));
  std::printf("flushed 1 cache line for the progress counter\n");

  // 5. Power failure: every dirty cache line vanishes, and the arena reverts
  //    to what NVM held.
  fault.power_fail();
  std::printf("\n*** crash ***\n\n");

  // 6. Recovery reads the arena, which now holds only what NVM held.
  std::printf("recovery sees progress = %lld (durable, because we flushed it)\n",
              static_cast<long long>(progress[0]));
  std::size_t consistent = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] == static_cast<double>(i) * 0.5) ++consistent;
  }
  std::printf("recovery finds %zu/%zu elements consistent in NVM (%.1f%%, persisted by\n"
              "eviction); the rest must be recomputed — and *algorithm knowledge*\n"
              "(invariants, checksums, statistics) is how the real solvers in this\n"
              "library decide which.\n",
              consistent, data.size(),
              100.0 * static_cast<double>(consistent) / static_cast<double>(data.size()));
  std::printf("\nNext: examples/cg_solver, examples/abft_matmul, bench/fig10_12_xs_tallies.\n");
  return 0;
}

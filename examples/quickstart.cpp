// Quickstart — the library in five minutes.
//
// Demonstrates the core loop of algorithm-directed crash consistency on the
// crash emulator: register data with the simulator, run, die, reason about
// what NVM still holds, and recover — without any checkpoint or log.
//
//   build/examples/quickstart
#include <cstdio>

#include "core/adcc.hpp"

using namespace adcc;

int main() {
  std::printf("ADCC quickstart: a tracked array, a crash, and what NVM remembers\n\n");

  // 1. A simulated machine: 256 KB LLC, 8-way, write-back LRU, NVM behind it.
  memsim::CacheConfig cache;
  cache.size_bytes = 256u << 10;
  cache.ways = 8;
  memsim::MemorySimulator sim(cache);

  // 2. Application data registered with the simulator. The live view is what
  //    the program sees (cache ∪ NVM); the durable view is what NVM holds.
  memsim::TrackedArray<double> data(sim, "results", 1u << 16);  // 512 KB > cache.

  // 3. Compute: fill the array, announcing every store to the cache model.
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.write(i, static_cast<double>(i) * 0.5);
  }

  // Older lines were evicted (and thus persisted) by the hardware cache on its
  // own; the most recently written tail is still volatile.
  std::size_t already_durable = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.durable(i) == static_cast<double>(i) * 0.5) ++already_durable;
  }
  std::printf("after filling 512 KB through a 256 KB cache:\n");
  std::printf("  %zu of %zu elements already durable via eviction (%.1f%%)\n",
              already_durable, data.size(),
              100.0 * static_cast<double>(already_durable) / static_cast<double>(data.size()));

  // 4. Selectively flush one critical line (the paper's whole runtime cost).
  memsim::TrackedScalar<std::int64_t> progress(sim, "progress", 0);
  progress.set_and_flush(static_cast<std::int64_t>(data.size()));
  std::printf("  flushed 1 cache line for the progress counter\n");

  // 5. Power failure: every dirty cache line vanishes.
  sim.crash();
  std::printf("\n*** crash ***\n\n");

  // 6. Recovery reads NVM only.
  std::printf("recovery sees progress = %lld (durable, because we flushed it)\n",
              static_cast<long long>(progress.durable()));
  std::size_t consistent = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.durable(i) == static_cast<double>(i) * 0.5) ++consistent;
  }
  std::printf("recovery finds %zu/%zu elements consistent in NVM; the rest must be\n"
              "recomputed — and *algorithm knowledge* (invariants, checksums,\n"
              "statistics) is how the real solvers in this library decide which.\n",
              consistent, data.size());
  std::printf("\nNext: examples/cg_solver, examples/abft_matmul, bench/fig10_12_xs_tallies.\n");
  return 0;
}

// Microbenchmarks (google-benchmark) for the crash emulator itself: access
// cost of the cache model, range notifications, clflush, a full CG-like
// streaming mix and a power failure, the last two through core::FaultSurface
// as the alg-* engines drive it. The emulator's throughput bounds how large
// the Fig. 3/7/10 simulations can be.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "common/align.hpp"
#include "common/rng.hpp"
#include "core/fault.hpp"
#include "memsim/memsim.hpp"
#include "nvm/nvm_region.hpp"

namespace {

using namespace adcc;
using namespace adcc::memsim;

CacheConfig llc_8mb() {
  CacheConfig c;
  c.size_bytes = 8u << 20;
  c.ways = 16;
  return c;
}

void BM_CacheAccessHit(benchmark::State& state) {
  SetAssocCache cache(llc_8mb());
  cache.access(0x10000, true);
  for (auto _ : state) benchmark::DoNotOptimize(cache.access(0x10000, false).hit);
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheAccessStreamingMiss(benchmark::State& state) {
  SetAssocCache cache(llc_8mb());
  std::uintptr_t line = 0x100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line, true).evicted);
    line += kCacheLine;
  }
}
BENCHMARK(BM_CacheAccessStreamingMiss);

void BM_CacheAccessRandom(benchmark::State& state) {
  SetAssocCache cache(llc_8mb());
  SplitMix64 rng(1);
  for (auto _ : state) {
    const std::uintptr_t line = 0x100000 + (rng.next_u64() % (1u << 24)) * kCacheLine;
    benchmark::DoNotOptimize(cache.access(line, false).hit);
  }
}
BENCHMARK(BM_CacheAccessRandom);

void BM_SimTouchRange(benchmark::State& state) {
  const auto elems = static_cast<std::size_t>(state.range(0));
  MemorySimulator sim(llc_8mb());
  AlignedArray<double> arr(elems);
  sim.register_region("a", arr.data(), elems * sizeof(double));
  for (auto _ : state) sim.on_write(arr.data(), elems * sizeof(double));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(elems * sizeof(double)));
}
BENCHMARK(BM_SimTouchRange)->Range(64, 1 << 18);

void BM_SimClflushRange(benchmark::State& state) {
  const auto elems = static_cast<std::size_t>(state.range(0));
  MemorySimulator sim(llc_8mb());
  AlignedArray<double> arr(elems);
  sim.register_region("a", arr.data(), elems * sizeof(double));
  for (auto _ : state) {
    sim.on_write(arr.data(), elems * sizeof(double));
    sim.clflush(arr.data(), elems * sizeof(double));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(elems * sizeof(double)));
}
BENCHMARK(BM_SimClflushRange)->Range(64, 1 << 16);

/// An emulated NVM arena with the CG-shaped regions of the two benches below:
/// a big read-only input A, two arena vectors p and q, and an iteration
/// counter on a line of its own, registered the way the alg-* engines do.
struct EmulatedArena {
  static constexpr std::size_t kN = 1u << 14;
  nvm::PerfModel perf{nvm::PerfConfig{.enabled = false}};
  nvm::NvmRegion region{(2 * kN + kCacheLine) * sizeof(double), perf};
  std::vector<double> a = std::vector<double>(8 * kN, 1.0);
  std::span<double> p = region.allocate<double>(kN);
  std::span<double> q = region.allocate<double>(kN);
  std::span<std::int64_t> iter = region.allocate<std::int64_t>(kCacheLine / sizeof(std::int64_t));
  core::FaultSurface fault;

  EmulatedArena() {
    fault.emulate(llc_8mb());
    fault.track_input("A", std::span<const double>(a));
    fault.track("p", p);
    fault.track("q", q);
    fault.track("i", iter);
  }
};

void BM_SimCgLikeIterationMix(benchmark::State& state) {
  // A CG-iteration-shaped access mix through core::FaultSurface, the path the
  // adapters run: stream a big RO input, read one vector, write another,
  // persist the counter line — the emulator's hot path in Fig. 3.
  EmulatedArena m;
  for (auto _ : state) {
    ++m.iter[0];
    m.fault.write(m.iter.subspan(0, 1));
    m.fault.persist(m.region, m.iter.data(), sizeof(std::int64_t));
    m.fault.read(std::span<const double>(m.a));
    m.fault.read(m.p);
    m.fault.write(m.q);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 10 *
                          EmulatedArena::kN * 8);
}
BENCHMARK(BM_SimCgLikeIterationMix);

void BM_SimPowerFail(benchmark::State& state) {
  // A crash mid-unit: p's lines are dirty in the cache, the power fails, and
  // every tracked region's durable image is copied back over the arena.
  EmulatedArena m;
  for (auto _ : state) {
    m.fault.write(m.p);
    m.fault.power_fail();
    benchmark::DoNotOptimize(m.p.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          EmulatedArena::kN * 8);
}
BENCHMARK(BM_SimPowerFail);

}  // namespace

BENCHMARK_MAIN();

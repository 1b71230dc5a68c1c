// Microbenchmarks (google-benchmark) for the persistence primitives: native
// flush, chunk CRC-32, NVM-throttled persists, checkpoint copies, DRAM-cache
// staging, and undo-log snapshots. These are the constants behind Figs. 4/8/13.
// The run's context names the flush instruction and CRC kernel the CPU got.
#include <benchmark/benchmark.h>

#include "checkpoint/chunk.hpp"
#include "checkpoint/nvm_backend.hpp"
#include "common/align.hpp"
#include "nvm/dram_cache.hpp"
#include "nvm/flush.hpp"
#include "nvm/nvm_region.hpp"
#include "pmemtx/tx.hpp"

namespace {

using namespace adcc;

nvm::PerfModel& fast_model() {
  static nvm::PerfModel m(
      nvm::PerfConfig{.dram_bw_bytes_per_s = 10e9, .bandwidth_slowdown = 1.0, .enabled = false});
  return m;
}

nvm::PerfModel& slow_model() {
  static nvm::PerfModel m(nvm::PerfConfig{.bandwidth_slowdown = 8.0});
  return m;
}

void BM_FlushRange(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  AlignedBuffer buf(bytes);
  for (auto _ : state) {
    nvm::flush_range(buf.data(), bytes);
    nvm::store_fence();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FlushRange)->Range(64, 1 << 20);

// Store to every line, then flush + fence: what NvmRegion::persist pays after
// a write. BM_FlushRange above flushes lines that are already clean.
void BM_FlushDirtyRange(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  AlignedBuffer buf(bytes);
  std::byte fill{0};
  for (auto _ : state) {
    fill = static_cast<std::byte>(static_cast<unsigned>(fill) + 1);
    for (std::size_t i = 0; i < bytes; i += kCacheLine) buf.data()[i] = fill;
    nvm::flush_range(buf.data(), bytes);
    nvm::store_fence();
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FlushDirtyRange)->Range(64, 1 << 20);

void BM_Crc32(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  AlignedBuffer buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i) buf.data()[i] = static_cast<std::byte>(i * 131);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checkpoint::crc32(buf.data(), bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32)->Range(64, 1 << 20);

void BM_PersistNvmFast(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  nvm::NvmRegion region(bytes + (1u << 16), fast_model());
  auto span = region.allocate<std::byte>(bytes);
  for (auto _ : state) region.persist(span.data(), bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PersistNvmFast)->Range(64, 1 << 20);

void BM_PersistNvmThrottled(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  nvm::NvmRegion region(bytes + (1u << 16), slow_model());
  auto span = region.allocate<std::byte>(bytes);
  for (auto _ : state) region.persist(span.data(), bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PersistNvmThrottled)->Range(64, 1 << 20);

void BM_WriteDurable(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  nvm::NvmRegion region(bytes + (1u << 16), fast_model());
  auto dst = region.allocate<std::byte>(bytes);
  AlignedBuffer src(bytes);
  for (auto _ : state) region.write_durable(dst.data(), src.data(), bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WriteDurable)->Range(4096, 4 << 20);

void BM_DramCacheStageAndDrain(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  nvm::NvmRegion region(bytes + (1u << 16), fast_model());
  nvm::DramCache dram(32u << 20, region);
  auto dst = region.allocate<std::byte>(bytes);
  AlignedBuffer src(bytes);
  for (auto _ : state) {
    dram.write(dst.data(), src.data(), bytes);
    dram.drain();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DramCacheStageAndDrain)->Range(4096, 4 << 20);

void BM_UndoLogSnapshotCommit(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  pmemtx::PersistentHeap heap(bytes + (1u << 16), 2 * bytes + (1u << 16), fast_model());
  auto span = heap.allocate<std::byte>(bytes);
  pmemtx::UndoLog log(heap);
  for (auto _ : state) {
    pmemtx::Transaction tx(log);
    tx.add(span.data(), bytes);
    span[0] = std::byte{1};
    tx.commit();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_UndoLogSnapshotCommit)->Range(4096, 4 << 20);

void BM_CheckpointSaveNvm(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  // Slot capacity covers the chunked image: payload + per-chunk headers.
  nvm::NvmRegion region(3 * bytes + (1u << 20), fast_model());
  checkpoint::NvmBackend backend(region, bytes + (64u << 10));
  AlignedBuffer obj(bytes);
  std::vector<checkpoint::ObjectView> objs = {{"obj", obj.data(), bytes}};
  std::uint64_t version = 0;
  for (auto _ : state) {
    ++version;
    backend.save(static_cast<int>(version % 2), version, objs);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSaveNvm)->Range(4096, 4 << 20);

// Persist N scattered checksum-sized ranges, one flush + fence per range: the
// paper's CLFLUSH discipline for the ABFT-MM checksums.
void BM_PersistPerRange(benchmark::State& state) {
  const auto ranges = static_cast<std::size_t>(state.range(0));
  nvm::NvmRegion region((ranges + 2) * 4096, fast_model());
  auto span = region.allocate<std::byte>(ranges * 4096);
  for (auto _ : state) {
    for (std::size_t i = 0; i < ranges; ++i) region.persist(span.data() + i * 4096, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ranges));
}
BENCHMARK(BM_PersistPerRange)->Range(8, 1024);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("flush_instruction",
                              nvm::flush_instruction_name(nvm::flush_instruction()));
  benchmark::AddCustomContext("crc32_kernel", checkpoint::crc32_kernel());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

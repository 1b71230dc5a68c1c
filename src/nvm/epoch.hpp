// Epoch-batched persistence (paper related work: Pelley et al. memory
// persistency, Joshi et al. persist barriers).
//
// Instead of flush+fence per range (NvmRegion::persist), an EpochPersister
// *stages* ranges and issues all flushes followed by a single fence at the
// epoch boundary. With CLWB/CLFLUSHOPT (see nvm::flush_instruction) the
// epoch's flushes overlap and only that fence waits for them; under CLFLUSH,
// which serializes, batching saves the per-range fences alone. Within an epoch
// persists may reorder; across epochs they are ordered — the buffered epoch
// persistency model. The paper notes such schemes are "complementary to our
// work to improve the performance of cache flushing (especially for ... ABFT
// for matrix multiplication)"; bench/micro_primitives quantifies the saving.
#pragma once

#include <cstdint>
#include <vector>

#include "nvm/nvm_region.hpp"

namespace adcc::nvm {

struct EpochStats {
  std::uint64_t staged_ranges = 0;
  std::uint64_t epochs = 0;
  std::uint64_t lines_flushed = 0;
};

class EpochPersister {
 public:
  explicit EpochPersister(NvmRegion& region) : region_(region) {}

  /// Registers [p, p+bytes) (arena memory) for persistence at the next epoch
  /// boundary. The data is NOT durable until commit_epoch() returns.
  void stage(const void* p, std::size_t bytes);

  /// Flushes every staged range, then issues one fence; charges the region's
  /// perf model for the flushed lines. Empty epochs are free.
  void commit_epoch();

  std::size_t pending() const { return staged_.size(); }
  const EpochStats& stats() const { return stats_; }

  /// Any staged-but-uncommitted ranges are NOT persisted; destruction without
  /// commit models a crash inside an epoch (the epoch never happened).
  ~EpochPersister() = default;

 private:
  struct Range {
    const void* p;
    std::size_t bytes;
  };
  NvmRegion& region_;
  std::vector<Range> staged_;
  EpochStats stats_;
};

}  // namespace adcc::nvm

// DramCache — the 32 MB DRAM staging cache of the heterogeneous NVM/DRAM
// system (paper §III-A).
//
// The evaluation-relevant property of the hetero system is its *cost
// structure*: making data durable requires flushing CPU caches AND draining
// the DRAM cache, i.e. an extra copy that runs at NVM bandwidth. We model the
// DRAM cache as a write-back staging buffer: writes land in DRAM at full
// speed; `drain()` (the paper's "DRAM cache flushing (using memory copy)")
// pushes staged bytes through to an NvmRegion at throttled speed. Writes that
// exceed the free staging capacity force a partial drain first, so sustained
// traffic beyond 32 MB runs at NVM speed, as it would on real hardware.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/align.hpp"
#include "nvm/nvm_region.hpp"

namespace adcc::nvm {

struct DramCacheStats {
  std::uint64_t staged_bytes = 0;
  std::uint64_t drained_bytes = 0;
  std::uint64_t forced_drains = 0;
};

class DramCache {
 public:
  DramCache(std::size_t capacity_bytes, NvmRegion& backing);

  /// Writes [src, src+bytes) "to NVM through the DRAM cache": the data is
  /// copied into the staging buffer (DRAM speed) and `dst` (arena memory)
  /// remembers where it must land. Data is NOT durable until drain().
  void write(void* dst, const void* src, std::size_t bytes);

  /// Flushes everything staged through to NVM: the second copy, at NVM speed,
  /// plus persist of the destination ranges.
  void drain();

  /// Power failure: staged-but-undrained data is DRAM and dies. Crash
  /// injection calls this so recovery can only see what reached NVM.
  void discard();

  std::size_t capacity() const { return staging_.size(); }
  std::size_t pending() const { return pending_bytes_; }
  const DramCacheStats& stats() const { return stats_; }

 private:
  struct Pending {
    std::size_t staging_off;
    void* dst;
    std::size_t bytes;
  };

  void drain_locked();

  AlignedBuffer staging_;
  std::size_t staging_used_ = 0;
  std::size_t pending_bytes_ = 0;
  std::vector<Pending> queue_;
  NvmRegion& backing_;
  DramCacheStats stats_;
};

}  // namespace adcc::nvm

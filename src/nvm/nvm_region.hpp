// NvmRegion — a persistent-memory arena for the *native* (non-simulated)
// execution mode used by the runtime-overhead benchmarks.
//
// In native mode the program runs at full speed on host DRAM; durability
// operations (persist = flush + fence, and bulk writes into the arena) are
// performed with real flush instructions and charged to a PerfModel so that a
// "slow NVM" configuration costs what Quartz would make it cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/align.hpp"
#include "nvm/flush.hpp"
#include "nvm/perf_model.hpp"

namespace adcc::nvm {

struct RegionStats {
  std::uint64_t persist_calls = 0;
  std::uint64_t persisted_bytes = 0;
  std::uint64_t persisted_lines = 0;
  std::uint64_t bulk_writes = 0;
  std::uint64_t bulk_bytes = 0;
};

class NvmRegion {
 public:
  /// Creates an arena of `bytes` capacity charged against `model`.
  NvmRegion(std::size_t bytes, PerfModel& model, std::string name = "nvm");

  NvmRegion(const NvmRegion&) = delete;
  NvmRegion& operator=(const NvmRegion&) = delete;

  /// Bump-allocates `n` objects of T (cache-line aligned). Never freed
  /// individually; the arena is the unit of lifetime (like a pmem pool).
  template <typename T>
  std::span<T> allocate(std::size_t n) {
    void* p = allocate_bytes(n * sizeof(T), alignof(T));
    return {static_cast<T*>(p), n};
  }

  void* allocate_bytes(std::size_t bytes, std::size_t align = kCacheLine);

  /// Rewinds the bump allocator, invalidating all prior allocations. Benchmark
  /// harnesses use this to reuse one arena across repetitions without paying
  /// the zero-fill cost again.
  void reset() { used_ = 0; }

  /// Copies [src, src+bytes) into the arena at `dst` (must be arena memory)
  /// and makes it durable: memcpy + flush_range + fence, with NVM bandwidth
  /// charged. This is the primitive checkpoints are built from.
  void write_durable(void* dst, const void* src, std::size_t bytes);

  /// Persists arena bytes already written in place: flush + fence + charge.
  void persist(const void* p, std::size_t bytes);

  /// True if p and all of [p, p+bytes) lie inside the arena.
  bool contains(const void* p, std::size_t bytes = 1) const;
  std::size_t capacity() const { return buf_.size(); }
  std::size_t used() const { return used_; }
  const std::string& name() const { return name_; }

  PerfModel& perf_model() { return model_; }
  const RegionStats& stats() const { return stats_; }

 private:
  AlignedBuffer buf_;
  std::size_t used_ = 0;
  PerfModel& model_;
  std::string name_;
  RegionStats stats_;
};

}  // namespace adcc::nvm

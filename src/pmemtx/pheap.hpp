// PersistentHeap — a pmemobj-pool-like container: one NVM arena holding user
// data plus the undo-log area used by pmemtx transactions.
#pragma once

#include <cstddef>
#include <span>

#include "nvm/nvm_region.hpp"

namespace adcc::pmemtx {

class PersistentHeap {
 public:
  /// `data_bytes` of user space and `log_bytes` reserved for the undo log.
  PersistentHeap(std::size_t data_bytes, std::size_t log_bytes, nvm::PerfModel& model);

  /// Allocates `n` objects of T from persistent space.
  template <typename T>
  std::span<T> allocate(std::size_t n) {
    return region_.allocate<T>(n);
  }

  nvm::NvmRegion& region() { return region_; }

  /// The raw log area (owned by UndoLog).
  std::span<std::byte> log_area() { return {log_area_, log_bytes_}; }

  bool contains(const void* p, std::size_t bytes = 1) const { return region_.contains(p, bytes); }

 private:
  nvm::NvmRegion region_;
  std::byte* log_area_;
  std::size_t log_bytes_;
};

}  // namespace adcc::pmemtx

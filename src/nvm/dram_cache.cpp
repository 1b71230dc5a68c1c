#include "nvm/dram_cache.hpp"

#include <cstring>

#include "common/check.hpp"

namespace adcc::nvm {

DramCache::DramCache(std::size_t capacity_bytes, NvmRegion& backing)
    : staging_(capacity_bytes), backing_(backing) {
  ADCC_CHECK(capacity_bytes >= kCacheLine, "DRAM cache must hold at least one line");
}

void DramCache::write(void* dst, const void* src, std::size_t bytes) {
  ADCC_CHECK(backing_.contains(dst, bytes),
             "DramCache::write destination must be NVM arena memory");
  std::size_t done = 0;
  while (done < bytes) {
    if (staging_used_ == staging_.size()) {
      ++stats_.forced_drains;
      drain_locked();
    }
    const std::size_t chunk = std::min(bytes - done, staging_.size() - staging_used_);
    std::memcpy(staging_.data() + staging_used_, static_cast<const std::byte*>(src) + done, chunk);
    queue_.push_back({staging_used_, static_cast<std::byte*>(dst) + done, chunk});
    staging_used_ += chunk;
    pending_bytes_ += chunk;
    stats_.staged_bytes += chunk;
    done += chunk;
  }
}

void DramCache::drain() { drain_locked(); }

void DramCache::discard() {
  queue_.clear();
  staging_used_ = 0;
  pending_bytes_ = 0;
}

void DramCache::drain_locked() {
  for (const Pending& p : queue_) {
    // The second copy: staging → NVM, at NVM speed (write_durable charges the
    // perf model and flushes the destination lines).
    backing_.write_durable(p.dst, staging_.data() + p.staging_off, p.bytes);
    stats_.drained_bytes += p.bytes;
  }
  queue_.clear();
  staging_used_ = 0;
  pending_bytes_ = 0;
}

}  // namespace adcc::nvm

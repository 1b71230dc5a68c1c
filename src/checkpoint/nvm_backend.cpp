#include "checkpoint/nvm_backend.hpp"

#include <cstring>

#include "common/check.hpp"

namespace adcc::checkpoint {

NvmBackend::NvmBackend(nvm::NvmRegion& region, std::size_t capacity_per_slot)
    : region_(region) {
  for (std::span<std::byte>& slot : slots_) slot = region_.allocate<std::byte>(capacity_per_slot);
  meta_ = region_.allocate<std::uint64_t>(2);
  meta_[0] = 0;
  meta_[1] = 0;
  region_.persist(meta_.data(), meta_.size_bytes());
}

void NvmBackend::begin_slot(int slot, std::size_t image_bytes) {
  ADCC_CHECK(image_bytes <= slots_[slot].size(), "checkpoint exceeds slot capacity");
}

void NvmBackend::write_span(int slot, std::size_t offset, const void* src,
                            std::size_t bytes) {
  // memcpy + flush + fence + NVM bandwidth charge, one channel at a time.
  std::lock_guard<std::mutex> lock(media_mu_);
  region_.write_durable(slots_[slot].data() + offset, src, bytes);
}

void NvmBackend::finish_slot(int) {}

void NvmBackend::commit_marker(int slot, std::uint64_t version) {
  meta_[0] = static_cast<std::uint64_t>(slot);
  meta_[1] = version;
  region_.persist(meta_.data(), meta_.size_bytes());
}

std::size_t NvmBackend::read_span(int slot, std::size_t offset, void* dst,
                                  std::size_t bytes) const {
  if (offset >= slots_[slot].size()) return 0;
  const std::size_t n = std::min(bytes, slots_[slot].size() - offset);
  std::memcpy(dst, slots_[slot].data() + offset, n);
  return n;
}

std::pair<int, std::uint64_t> NvmBackend::latest() const {
  return {static_cast<int>(meta_[0]), meta_[1]};
}

}  // namespace adcc::checkpoint

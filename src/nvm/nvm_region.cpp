#include "nvm/nvm_region.hpp"

#include <cstring>

#include "common/check.hpp"

namespace adcc::nvm {

NvmRegion::NvmRegion(std::size_t bytes, PerfModel& model, std::string name)
    : buf_(round_up(bytes, kCacheLine)), model_(model), name_(std::move(name)) {
  ADCC_CHECK(bytes > 0, "NVM region must be non-empty");
}

void* NvmRegion::allocate_bytes(std::size_t bytes, std::size_t align) {
  const std::size_t a = std::max(align, kCacheLine);
  const std::size_t start = round_up(used_, a);
  ADCC_CHECK(start + bytes <= buf_.size(), "NVM region exhausted");
  used_ = start + round_up(bytes, kCacheLine);
  return buf_.data() + start;
}

void NvmRegion::write_durable(void* dst, const void* src, std::size_t bytes) {
  ADCC_CHECK(contains(dst, bytes), "write_durable destination must be arena memory");
  std::memcpy(dst, src, bytes);
  persist(dst, bytes);
  ++stats_.bulk_writes;
  stats_.bulk_bytes += bytes;
}

void NvmRegion::persist(const void* p, std::size_t bytes) {
  ADCC_CHECK(contains(p, bytes), "persist target must be arena memory");
  flush_range(p, bytes);
  store_fence();
  const std::size_t lines = flush_line_count(p, bytes);
  model_.charge_flush_lines(lines);
  ++stats_.persist_calls;
  stats_.persisted_bytes += bytes;
  stats_.persisted_lines += lines;
}

bool NvmRegion::contains(const void* p, std::size_t bytes) const {
  const auto base = reinterpret_cast<std::uintptr_t>(buf_.data());
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  return addr >= base && addr - base < buf_.size() && bytes <= buf_.size() - (addr - base);
}

}  // namespace adcc::nvm

#include "memsim/memsim.hpp"

#include <cstring>

#include "common/check.hpp"

namespace adcc::memsim {

namespace {

// The cache model's line addresses: region registration index + 1 (so no
// address is 0, the cache's invalid tag) above bit kRegionShift; below it the
// region's start line plus the byte offset within the region. The cache puts
// consecutive lines in consecutive sets, so the start line alone decides
// where a region lands: a pseudo-random one per region keeps separate regions
// at unrelated set offsets instead of all colliding from set 0.
constexpr unsigned kRegionShift = 40;
constexpr std::uintptr_t kOffsetMask = (std::uintptr_t{1} << kRegionShift) - 1;
constexpr unsigned kStartBits = 30;  // Starts below 1 GiB: enough for any set count.
constexpr std::size_t kMaxRegionBytes =
    (std::size_t{1} << kRegionShift) - (std::size_t{1} << kStartBits);

/// Line-aligned start of region `index` below bit kRegionShift.
std::uintptr_t region_start(RegionId index) {
  const std::uint64_t h = (index + 1) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::uintptr_t>(h >> (64 - kStartBits)) & ~std::uintptr_t{kCacheLine - 1};
}

}  // namespace

MemorySimulator::MemorySimulator(const CacheConfig& cfg) : cache_(cfg) {}

RegionId MemorySimulator::register_region(std::string name, void* base, std::size_t bytes,
                                          bool read_only) {
  ADCC_CHECK(base != nullptr && bytes > 0, "region must be non-empty");
  ADCC_CHECK(bytes <= kMaxRegionBytes, "region exceeds the cache model's offset range");
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  ADCC_CHECK(addr % kCacheLine == 0, "regions must be cache-line aligned (use AlignedArray)");
  // Reject overlap with any registered region.
  for (const Region& r : regions_) {
    const bool disjoint = addr + bytes <= r.base || r.base + r.bytes <= addr;
    ADCC_CHECK(disjoint, "regions must not overlap");
  }
  Region r;
  r.name = std::move(name);
  r.base = addr;
  r.bytes = bytes;
  r.read_only = read_only;
  if (!read_only) {
    r.durable = AlignedBuffer(bytes);
    std::memcpy(r.durable.data(), base, bytes);
  }
  regions_.push_back(std::move(r));
  const RegionId id = regions_.size() - 1;
  by_base_[addr] = id;
  return id;
}

MemorySimulator::Region* MemorySimulator::region_of(std::uintptr_t addr) {
  auto it = by_base_.upper_bound(addr);
  if (it == by_base_.begin()) return nullptr;
  --it;
  Region& r = regions_[it->second];
  if (addr < r.base || addr >= r.base + r.bytes) return nullptr;
  return &r;
}

const MemorySimulator::Region* MemorySimulator::region_of(std::uintptr_t addr) const {
  return const_cast<MemorySimulator*>(this)->region_of(addr);
}

std::uintptr_t MemorySimulator::model_addr(const void* p, std::size_t bytes) const {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const Region* r = region_of(addr);
  ADCC_CHECK(r != nullptr, "memsim access outside any tracked region");
  ADCC_CHECK(addr + bytes <= r->base + r->bytes, "memsim access crosses a region end");
  const auto index = static_cast<RegionId>(r - regions_.data());
  return ((std::uintptr_t{index} + 1) << kRegionShift) + region_start(index) + (addr - r->base);
}

RegionId MemorySimulator::region_of_line(std::uintptr_t line) {
  return (line >> kRegionShift) - 1;
}

void MemorySimulator::writeback_line(std::uintptr_t line) {
  const RegionId index = region_of_line(line);
  Region& r = regions_[index];
  if (r.read_only) return;
  // Clip the 64B line to the region (regions are line-aligned; the final line
  // may be partially owned if bytes is not a line multiple).
  const std::size_t off = (line & kOffsetMask) - region_start(index);
  const std::size_t n = std::min<std::size_t>(kCacheLine, r.bytes - off);
  std::memcpy(r.durable.data() + off, reinterpret_cast<const std::byte*>(r.base) + off, n);
  ++stats_.writebacks;
}

void MemorySimulator::account_access(std::uintptr_t addr, std::size_t bytes, bool is_write) {
  const std::uintptr_t first = addr & ~static_cast<std::uintptr_t>(kCacheLine - 1);
  const std::uintptr_t last =
      (addr + bytes - 1) & ~static_cast<std::uintptr_t>(kCacheLine - 1);
  for (std::uintptr_t line = first; line <= last; line += kCacheLine) {
    ++stats_.lines_touched;
    const AccessResult res = cache_.access(line, is_write);
    if (res.evicted && res.evicted_dirty) writeback_line(res.evicted_line);
  }
}

void MemorySimulator::maybe_crash_on_access() {
  if (scheduler_.on_access(stats_.accesses())) {
    crash();
    throw CrashException("<access-trigger>", stats_.accesses());
  }
}

void MemorySimulator::on_read(const void* p, std::size_t bytes) {
  if (bytes == 0 || crashed_) return;
  ++stats_.reads;
  account_access(model_addr(p, bytes), bytes, /*is_write=*/false);
  maybe_crash_on_access();
}

void MemorySimulator::on_write(const void* p, std::size_t bytes) {
  if (bytes == 0 || crashed_) return;
  ++stats_.writes;
  account_access(model_addr(p, bytes), bytes, /*is_write=*/true);
  maybe_crash_on_access();
}

void MemorySimulator::clflush(const void* p, std::size_t bytes) {
  if (bytes == 0 || crashed_) return;
  const std::uintptr_t addr = model_addr(p, bytes);
  const std::uintptr_t first = addr & ~static_cast<std::uintptr_t>(kCacheLine - 1);
  const std::uintptr_t last =
      (addr + bytes - 1) & ~static_cast<std::uintptr_t>(kCacheLine - 1);
  for (std::uintptr_t line = first; line <= last; line += kCacheLine) {
    ++stats_.flush_lines;
    if (cache_.flush_line(line)) {
      writeback_line(line);
      ++stats_.flush_writebacks;
    }
  }
}

void MemorySimulator::sfence() { ++stats_.fences; }

void MemorySimulator::crash_point(const std::string& name) {
  ++stats_.crash_points;
  if (scheduler_.on_point(name)) {
    crash();
    throw CrashException(name, stats_.accesses());
  }
}

void MemorySimulator::crash() {
  crash_census_ = dirty_line_census();  // Record what is about to die.
  cache_.invalidate_all();  // Dirty lines die with the cache: NVM keeps stale bytes.
  crashed_ = true;
}

void MemorySimulator::restore_all() {
  for (Region& r : regions_) {
    if (r.read_only) continue;  // Live bytes were never diverged for RO regions.
    std::memcpy(reinterpret_cast<void*>(r.base), r.durable.data(), r.bytes);
  }
}

void MemorySimulator::durable_read(const void* p, void* out, std::size_t bytes) const {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const Region* r = region_of(addr);
  ADCC_CHECK(r != nullptr, "durable_read outside any tracked region");
  ADCC_CHECK(addr + bytes <= r->base + r->bytes, "durable_read crosses region end");
  if (r->read_only) {
    std::memcpy(out, p, bytes);
    return;
  }
  std::memcpy(out, r->durable.data() + (addr - r->base), bytes);
}

void MemorySimulator::reset_after_crash() {
  cache_.invalidate_all();
  scheduler_.disarm();
  crashed_ = false;
}

std::vector<MemorySimulator::RegionCensus> MemorySimulator::dirty_line_census() const {
  std::vector<RegionCensus> out;
  for (const Region& r : regions_) {
    out.push_back({r.name, lines_spanned(reinterpret_cast<void*>(r.base), r.bytes), 0});
  }
  for (const std::uintptr_t line : cache_.dirty_lines()) ++out[region_of_line(line)].dirty_lines;
  return out;
}

}  // namespace adcc::memsim

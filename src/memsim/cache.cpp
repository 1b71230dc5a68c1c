#include "memsim/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace adcc::memsim {

SetAssocCache::SetAssocCache(const CacheConfig& cfg) : cfg_(cfg), sets_(cfg.num_sets()) {
  ADCC_CHECK(cfg_.line_bytes == kCacheLine, "only 64B lines are supported");
  ADCC_CHECK(cfg_.ways >= 1, "associativity must be >= 1");
  ADCC_CHECK(sets_ >= 1, "cache must have at least one set");
  ADCC_CHECK(std::has_single_bit(sets_), "number of sets must be a power of two");
  entries_.resize(sets_ * cfg_.ways);
}

std::size_t SetAssocCache::set_index(std::uintptr_t line_addr) const {
  // Consecutive lines fill consecutive sets; where each range starts is the
  // caller's address choice (MemorySimulator's per-region start line).
  return static_cast<std::size_t>(line_addr / cfg_.line_bytes) & (sets_ - 1);
}

SetAssocCache::Entry* SetAssocCache::find(std::uintptr_t line_addr) {
  Entry* base = entries_.data() + set_index(line_addr) * cfg_.ways;
  for (std::size_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].tag == line_addr) return &base[w];
  }
  return nullptr;
}

const SetAssocCache::Entry* SetAssocCache::find(std::uintptr_t line_addr) const {
  return const_cast<SetAssocCache*>(this)->find(line_addr);
}

AccessResult SetAssocCache::access(std::uintptr_t line_addr, bool is_write) {
  ADCC_DCHECK(line_addr % cfg_.line_bytes == 0, "access address must be line-aligned");
  ++tick_;
  AccessResult res;
  if (Entry* e = find(line_addr)) {
    e->lru = tick_;
    e->dirty = e->dirty || is_write;
    res.hit = true;
    ++stats_.hits;
    return res;
  }
  ++stats_.misses;
  // Miss: pick an invalid way, else the LRU way.
  Entry* base = entries_.data() + set_index(line_addr) * cfg_.ways;
  Entry* victim = nullptr;
  for (std::size_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].tag == 0) {
      victim = &base[w];
      break;
    }
    if (victim == nullptr || base[w].lru < victim->lru) victim = &base[w];
  }
  if (victim->tag != 0) {
    res.evicted = true;
    res.evicted_line = victim->tag;
    res.evicted_dirty = victim->dirty;
    ++stats_.evictions;
    if (victim->dirty) ++stats_.dirty_evictions;
  }
  victim->tag = line_addr;
  victim->lru = tick_;
  victim->dirty = is_write;
  return res;
}

bool SetAssocCache::flush_line(std::uintptr_t line_addr) {
  ++stats_.flushes;
  if (Entry* e = find(line_addr)) {
    const bool was_dirty = e->dirty;
    e->tag = 0;
    e->dirty = false;
    e->lru = 0;
    if (was_dirty) ++stats_.dirty_flushes;
    return was_dirty;
  }
  return false;
}

bool SetAssocCache::contains(std::uintptr_t line_addr) const { return find(line_addr) != nullptr; }

bool SetAssocCache::dirty(std::uintptr_t line_addr) const {
  const Entry* e = find(line_addr);
  return e != nullptr && e->dirty;
}

void SetAssocCache::invalidate_all() {
  for (Entry& e : entries_) e = {};
}

std::vector<std::uintptr_t> SetAssocCache::dirty_lines() const {
  std::vector<std::uintptr_t> out;
  for (const Entry& e : entries_) {
    if (e.tag != 0 && e.dirty) out.push_back(e.tag);
  }
  return out;
}

std::size_t SetAssocCache::resident() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.tag != 0) ++n;
  }
  return n;
}

}  // namespace adcc::memsim

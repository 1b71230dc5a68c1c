// Set-associative write-back LRU cache model.
//
// This is the cache the paper's PIN-based "crash emulator" models: the point is
// not timing but *which lines are dirty in the cache when the machine dies*.
// The model is line-granular: a line is identified by an opaque line-aligned
// address, and consecutive lines map to consecutive sets. MemorySimulator
// hands it region-relative addresses (registration index in the high bits, a
// per-region start line plus the offset below), never host addresses, so
// placement is deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/align.hpp"

namespace adcc::memsim {

struct CacheConfig {
  std::size_t size_bytes = 8u << 20;  ///< Total capacity (default 8 MB: Xeon E5606 LLC).
  std::size_t ways = 16;              ///< Associativity.
  std::size_t line_bytes = kCacheLine;

  std::size_t num_sets() const { return size_bytes / (ways * line_bytes); }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
  std::uint64_t flushes = 0;        ///< flush_line calls.
  std::uint64_t dirty_flushes = 0;  ///< flush_line calls that wrote back a dirty line.
};

/// Result of one access: whether it hit, and the line evicted to make room (if
/// any) together with its dirty bit.
struct AccessResult {
  bool hit = false;
  bool evicted = false;
  std::uintptr_t evicted_line = 0;
  bool evicted_dirty = false;
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Touches the line containing `line_addr` (must be line-aligned).
  AccessResult access(std::uintptr_t line_addr, bool is_write);

  /// CLFLUSH semantics: if resident, invalidate; returns whether the line was
  /// resident and dirty (caller must then write it back). Flushing an absent
  /// line is a no-op (NVM already holds its latest value in a write-back
  /// hierarchy where every store was announced to the model).
  bool flush_line(std::uintptr_t line_addr);

  /// True if the line is currently resident.
  bool contains(std::uintptr_t line_addr) const;
  /// True if resident and dirty.
  bool dirty(std::uintptr_t line_addr) const;

  /// Drops all cache state *without* write-back: this is the crash.
  void invalidate_all();

  /// Enumerates all resident dirty lines (diagnostics / drain).
  std::vector<std::uintptr_t> dirty_lines() const;

  /// Number of resident lines.
  std::size_t resident() const;

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uintptr_t tag = 0;  ///< Full line address; 0 = invalid.
    std::uint64_t lru = 0;
    bool dirty = false;
  };

  std::size_t set_index(std::uintptr_t line_addr) const;
  Entry* find(std::uintptr_t line_addr);
  const Entry* find(std::uintptr_t line_addr) const;

  CacheConfig cfg_;
  std::size_t sets_;
  std::vector<Entry> entries_;  ///< sets_ * ways, set-major.
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace adcc::memsim

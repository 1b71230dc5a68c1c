// MemorySimulator — the reproduction of the paper's PIN-based crash emulator.
//
// The simulated application runs on ordinary host memory (the *live* image:
// this is what "CPU + cache + NVM" together present to the program). Every
// load/store to a registered region is announced to the simulator, which
// drives a set-associative write-back LRU cache model. For every region the
// simulator additionally keeps a *durable* image: the bytes NVM would hold.
//
//   - A dirty line is written back (live → durable, 64 B memcpy) when the
//     cache model evicts it, or when the program issues clflush().
//   - crash() discards all cache state without write-back. After a crash the
//     durable image is exactly the NVM content the paper's emulator reports.
//   - Recovery code reads durable bytes (durable_read / restore) — never the
//     live image, which conceptually died with the machine.
//
// The cache model never sees host addresses: each line is placed by its
// region's registration order and its offset within the region, so which
// lines conflict — and every statistic and durable image that follows — is a
// pure function of the access trace, not of where the allocator (or ASLR)
// put the regions. Accesses outside every registered region are rejected.
//
// The simulator is intentionally single-threaded: crash-state reasoning needs
// a deterministic access interleaving (the paper's PIN tool is sequential for
// the same reason).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/align.hpp"
#include "memsim/cache.hpp"
#include "memsim/crash.hpp"

namespace adcc::memsim {

using RegionId = std::size_t;

struct SimStats {
  std::uint64_t reads = 0;            ///< Notification calls.
  std::uint64_t writes = 0;
  std::uint64_t lines_touched = 0;    ///< Line-granular accesses (the crash-trigger "instruction" count).
  std::uint64_t writebacks = 0;       ///< Dirty lines copied live→durable on eviction.
  std::uint64_t flush_lines = 0;      ///< Lines passed to clflush.
  std::uint64_t flush_writebacks = 0;
  std::uint64_t fences = 0;
  std::uint64_t crash_points = 0;

  std::uint64_t accesses() const { return lines_touched; }
};

class MemorySimulator {
 public:
  explicit MemorySimulator(const CacheConfig& cfg = {});

  MemorySimulator(const MemorySimulator&) = delete;
  MemorySimulator& operator=(const MemorySimulator&) = delete;

  // ---- Region management -------------------------------------------------

  /// Registers [base, base+bytes) for tracking. The durable image is
  /// initialized from the current live bytes (data written before
  /// registration is considered already persistent, like data present at
  /// program start). `read_only` regions keep no separate durable copy.
  RegionId register_region(std::string name, void* base, std::size_t bytes,
                           bool read_only = false);

  // ---- Access notification (the "PIN hooks") -----------------------------

  /// Announces a read/write of [p, p+bytes), which must lie inside one
  /// registered region (ContractViolation otherwise).
  void on_read(const void* p, std::size_t bytes);
  void on_write(const void* p, std::size_t bytes);

  /// CLFLUSH of every line overlapping [p, p+bytes): dirty resident lines are
  /// written back to the durable image, then invalidated.
  void clflush(const void* p, std::size_t bytes);

  /// Store fence. Ordering is implicit in the sequential model; counted for
  /// statistics parity with real persistence code.
  void sfence();

  /// Names a program point; fires the crash if the scheduler says so.
  void crash_point(const std::string& name);

  // ---- Crash & recovery --------------------------------------------------

  CrashScheduler& scheduler() { return scheduler_; }

  /// Simulates power loss: all cache state (including dirty lines) vanishes.
  /// Does NOT throw; crash_point/on_* throw CrashException via the scheduler.
  void crash();

  bool crashed() const { return crashed_; }

  /// Copies every region's durable image over its live bytes (recovery
  /// reload).
  void restore_all();

  /// Reads `bytes` at live address `p` from the durable image (no cache
  /// effects; this is the recovery process inspecting NVM).
  void durable_read(const void* p, void* out, std::size_t bytes) const;

  /// Typed convenience over durable_read.
  template <typename T>
  T durable_value(const T* p) const {
    T v;
    durable_read(p, &v, sizeof(T));
    return v;
  }

  /// Re-arms the simulator after a crash for the recovery run: cache is empty,
  /// crashed flag cleared, scheduler disarmed.
  void reset_after_crash();

  // ---- Introspection -----------------------------------------------------

  /// Per-region census of cache-resident dirty lines — the paper's emulator
  /// "outputs the values of data in caches and main memory"; this is the
  /// summary view: how much of each region would die if the machine did.
  struct RegionCensus {
    std::string name;
    std::size_t total_lines = 0;
    std::size_t dirty_lines = 0;   ///< Volatile: newer in cache than in NVM.
  };
  std::vector<RegionCensus> dirty_line_census() const;

  /// The census captured at the instant of the last crash() — what the cache
  /// held when the machine died (empty if no crash has happened).
  const std::vector<RegionCensus>& census_at_crash() const { return crash_census_; }

  const SimStats& stats() const { return stats_; }
  const CacheStats& cache_stats() const { return cache_.stats(); }

  /// Total accesses so far (the crash-trigger "instruction" counter).
  std::uint64_t access_count() const { return stats_.accesses(); }

 private:
  struct Region {
    std::string name;
    std::uintptr_t base = 0;
    std::size_t bytes = 0;
    bool read_only = false;
    AlignedBuffer durable;  ///< Empty for read-only regions.
  };

  /// Region containing address, or nullptr.
  Region* region_of(std::uintptr_t addr);
  const Region* region_of(std::uintptr_t addr) const;

  /// The cache model's address for [p, p+bytes): region index and offset,
  /// independent of placement. Rejects untracked or region-crossing ranges.
  std::uintptr_t model_addr(const void* p, std::size_t bytes) const;
  /// The region a cache-model line address belongs to.
  static RegionId region_of_line(std::uintptr_t line);

  void writeback_line(std::uintptr_t line);
  void account_access(std::uintptr_t addr, std::size_t bytes, bool is_write);
  void maybe_crash_on_access();

  SetAssocCache cache_;
  CrashScheduler scheduler_;
  std::vector<Region> regions_;
  std::map<std::uintptr_t, RegionId> by_base_;  ///< base → index into regions_.
  SimStats stats_;
  std::vector<RegionCensus> crash_census_;
  bool crashed_ = false;
};

}  // namespace adcc::memsim

// UndoLog — the cost-faithful reproduction of the Intel PMEM (libpmemobj)
// undo-log transaction mechanism, the paper's "state of the art" baseline.
//
// Protocol (identical ordering to libpmemobj):
//   add_range(p, n):  copy the OLD bytes of [p, p+n) into the log, persist the
//                     log entry (flush + fence, charged at NVM speed), bump the
//                     persisted entry count — only then may the caller store.
//   commit():         persist every registered user range, then persist
//                     state = IDLE (log truncation).
//   crash before commit → recover() walks entries in reverse applying old
//                     bytes, then truncates; the transaction never happened.
//
// The overhead the paper measures (329 % for CG, 4.3×/5.5× preliminary) is the
// old-value copy + per-range flush traffic; both are reproduced here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pmemtx/pheap.hpp"

namespace adcc::pmemtx {

struct UndoLogStats {
  std::uint64_t transactions = 0;
  std::uint64_t ranges_logged = 0;   ///< add_range calls.
  std::uint64_t chunks_logged = 0;   ///< 4 KB log chunks (PMDK ulog granularity).
  std::uint64_t bytes_logged = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t recoveries = 0;
};

class UndoLog {
 public:
  explicit UndoLog(PersistentHeap& heap);

  /// Starts a transaction. Nested transactions are not supported (the paper's
  /// workloads use one transaction per loop iteration).
  void begin();

  /// Snapshots [p, p+bytes) (heap memory) before modification. Large ranges
  /// are chunked at PMDK's ulog granularity (4 KB), each chunk persisted with
  /// its own header update and fence — the cost structure responsible for the
  /// multi-x slowdowns the paper measured with the Intel PMEM library.
  void add_range(void* p, std::size_t bytes);

  /// PMDK-like snapshot chunk size.
  static constexpr std::size_t kSnapshotChunk = 4096;

  /// Makes all registered ranges durable and truncates the log.
  void commit();

  /// Rolls back the active transaction immediately (explicit abort).
  void abort();

  /// Post-restart recovery: if the log holds an uncommitted transaction,
  /// re-applies old values in reverse order and truncates. Returns the number
  /// of ranges rolled back (0 if the log was clean).
  std::size_t recover();

  bool in_tx() const { return active_; }
  const UndoLogStats& stats() const { return stats_; }

 private:
  // Log layout: [Header][entry hdr | old bytes]*  (entries cache-line padded).
  struct Header {
    std::uint64_t state;        // 0 idle, 1 active
    std::uint64_t num_entries;  // persisted entries
    std::uint64_t used_bytes;   // offset of free space past the header
  };
  struct EntryHeader {
    std::uint64_t dst_off;  // offset of target in heap region
    std::uint64_t bytes;
  };

  Header* header();
  std::byte* payload();
  std::size_t payload_capacity() const;
  void apply_reverse();
  void persist(const void* p, std::size_t n);

  PersistentHeap& heap_;
  std::byte* area_;
  std::size_t area_bytes_;
  bool active_ = false;
  // Ranges registered in the current tx (volatile bookkeeping, as in PMDK).
  std::vector<std::pair<void*, std::size_t>> tx_ranges_;
  UndoLogStats stats_;
};

}  // namespace adcc::pmemtx

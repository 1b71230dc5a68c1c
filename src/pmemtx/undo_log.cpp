#include "pmemtx/undo_log.hpp"

#include <cstring>

#include "common/align.hpp"
#include "common/check.hpp"

namespace adcc::pmemtx {

UndoLog::UndoLog(PersistentHeap& heap) : heap_(heap) {
  auto area = heap_.log_area();
  area_ = area.data();
  area_bytes_ = area.size();
  ADCC_CHECK(area_bytes_ > sizeof(Header) + kCacheLine, "log area too small");
  Header* h = header();
  h->state = 0;
  h->num_entries = 0;
  h->used_bytes = round_up(sizeof(Header), kCacheLine);
  persist(h, sizeof(Header));
}

UndoLog::Header* UndoLog::header() { return reinterpret_cast<Header*>(area_); }
std::byte* UndoLog::payload() { return area_; }
std::size_t UndoLog::payload_capacity() const { return area_bytes_; }

void UndoLog::persist(const void* p, std::size_t n) { heap_.region().persist(p, n); }

void UndoLog::begin() {
  ADCC_CHECK(!active_, "nested transactions are not supported");
  Header* h = header();
  h->state = 1;
  h->num_entries = 0;
  h->used_bytes = round_up(sizeof(Header), kCacheLine);
  persist(h, sizeof(Header));
  active_ = true;
  tx_ranges_.clear();
  ++stats_.transactions;
}

void UndoLog::add_range(void* p, std::size_t bytes) {
  ADCC_CHECK(active_, "add_range outside a transaction");
  ADCC_CHECK(heap_.contains(p, bytes), "add_range target must live in the persistent heap");
  // PMDK's ulog snapshots in fixed-size chunks; each chunk is persisted (flush
  // + fence) and published via a persisted header update before the caller may
  // store to it.
  auto* base = static_cast<std::byte*>(p);
  std::size_t done = 0;
  while (done < bytes) {
    const std::size_t chunk = std::min(kSnapshotChunk, bytes - done);
    Header* h = header();
    const std::size_t entry_bytes = round_up(sizeof(EntryHeader) + chunk, kCacheLine);
    ADCC_CHECK(h->used_bytes + entry_bytes <= payload_capacity(), "undo log exhausted");

    auto* eh = reinterpret_cast<EntryHeader*>(payload() + h->used_bytes);
    // Emulated pool: targets are identified by their in-process address (a
    // real pmem pool would store the pool-relative offset; the cost structure
    // is the same and this library's pools live exactly as long as the
    // process).
    eh->dst_off = reinterpret_cast<std::uintptr_t>(base + done);
    eh->bytes = chunk;
    std::memcpy(reinterpret_cast<std::byte*>(eh) + sizeof(EntryHeader), base + done, chunk);

    // Persist entry payload first, then make it visible by bumping the counter.
    persist(eh, sizeof(EntryHeader) + chunk);
    h->used_bytes += entry_bytes;
    h->num_entries += 1;
    persist(h, sizeof(Header));

    done += chunk;
    ++stats_.chunks_logged;
  }
  tx_ranges_.emplace_back(p, bytes);
  ++stats_.ranges_logged;
  stats_.bytes_logged += bytes;
}

void UndoLog::commit() {
  ADCC_CHECK(active_, "commit outside a transaction");
  // Persist the new values of every registered range.
  for (const auto& [p, n] : tx_ranges_) persist(p, n);
  Header* h = header();
  h->state = 0;
  h->num_entries = 0;
  h->used_bytes = round_up(sizeof(Header), kCacheLine);
  persist(h, sizeof(Header));
  active_ = false;
  tx_ranges_.clear();
  ++stats_.commits;
}

void UndoLog::apply_reverse() {
  Header* h = header();
  // Walk forward collecting entry offsets, then apply in reverse.
  std::vector<std::size_t> offsets;
  std::size_t off = round_up(sizeof(Header), kCacheLine);
  for (std::uint64_t i = 0; i < h->num_entries; ++i) {
    offsets.push_back(off);
    const auto* eh = reinterpret_cast<const EntryHeader*>(payload() + off);
    off += round_up(sizeof(EntryHeader) + eh->bytes, kCacheLine);
  }
  for (auto it = offsets.rbegin(); it != offsets.rend(); ++it) {
    auto* eh = reinterpret_cast<EntryHeader*>(payload() + *it);
    auto* dst = reinterpret_cast<std::byte*>(static_cast<std::uintptr_t>(eh->dst_off));
    std::memcpy(dst, reinterpret_cast<std::byte*>(eh) + sizeof(EntryHeader), eh->bytes);
    persist(dst, eh->bytes);
  }
  h->state = 0;
  h->num_entries = 0;
  h->used_bytes = round_up(sizeof(Header), kCacheLine);
  persist(h, sizeof(Header));
}

void UndoLog::abort() {
  ADCC_CHECK(active_, "abort outside a transaction");
  apply_reverse();
  active_ = false;
  tx_ranges_.clear();
  ++stats_.aborts;
}

std::size_t UndoLog::recover() {
  Header* h = header();
  if (h->state == 0) return 0;
  const std::size_t rolled_back = static_cast<std::size_t>(h->num_entries);
  apply_reverse();
  active_ = false;
  tx_ranges_.clear();
  ++stats_.recoveries;
  return rolled_back;
}

}  // namespace adcc::pmemtx

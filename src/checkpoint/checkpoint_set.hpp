// CheckpointSet — application-facing manager of the chunked durability engine.
//
// Registers the critical data objects once, then `save()` chunk-serializes
// them all to the backend with alternating slots and monotonically increasing
// versions (classic double buffering: a crash mid-save leaves the previous
// checkpoint committed). Every save reuses the engine's dirty-chunk filter:
// the payload CRC is computed per chunk anyway (it goes into the chunk
// header), so chunks whose CRC matches what this slot already holds are
// skipped for free — incremental checkpointing is this filter, not a second
// implementation.
//
// `restore()` loads the newest committed checkpoint back into the registered
// objects and returns its version (0 = nothing to restore). Before loading it
// probes the in-flight slot(s) for chunks of an interrupted save — the
// detected-torn-write classification surfaced to recovery accounting via
// last_restore(). A torn slot that is in fact COMPLETE (the crash landed
// between the last chunk write and the marker commit) is *salvaged*: the
// interrupted save is verified chunk by chunk, loaded, and re-committed,
// recovering a newer checkpoint than the marker knows about. A saved layout
// that does not match the registered objects raises checkpoint::LayoutMismatch
// instead of silently memcpy-ing over live objects; integrity failures raise
// checkpoint::TornCheckpoint.
//
// The optional point hook is fired once per chunk persisted ("ckpt_chunk")
// and per chunk loaded ("ckpt_restore") — workload adapters route it into
// their FaultSurface so crash plans can land inside the durability path
// (crash-mid-checkpoint, crash-during-recovery).
//
// `save_async()` is the asynchronous variant: it snapshots every chunk into a
// staging arena (double-buffered against the live objects, so the workload may
// mutate them immediately) and returns as soon as the job is queued on the
// backend's drain ring; `wait_durable()` — or a later save that needs the ring
// slot back — completes the handshake. With ChunkConfig::async_depth > 1 a
// RING of staging arenas lets bursty units stage save K+1..K+depth-1 while
// save K still drains; the backend serializes the drains strictly FIFO, so
// the (slot, version) marker commit order — and crash semantics — match
// back-to-back synchronous saves. A crash mid-drain (point "ckpt_drain", or
// abort_async's power failure) leaves the same torn, uncommitted slot a
// synchronous crash-mid-save leaves; a crash mid-staging (points "ckpt_stage"
// / "ring_stage") leaves the backend untouched. When the backend is
// configured with ChunkConfig::async (--ckpt_async), plain save() dispatches
// to save_async() — adapters inherit overlap for free.
//
// ChunkConfig::dirty_commit (--ckpt_dirty_commit) switches eligible saves
// from whole-slot alternation to the in-place dirty-chunk commit: the save
// targets the slot already holding the committed image, rewrites only the
// chunks whose payload CRC changed, refreshes the untouched chunks' epoch
// stamps (header-only writes), and still commits the marker last. Eligible
// means the target slot's CRC cache fully describes its image (a prior full
// save landed there); the first saves of a run alternate classically. The
// trade: a crash mid-save tears the committed image itself — restore() then
// salvages the interrupted save if it completed, or falls back to the aged
// image in the other slot and re-commits it (returning an OLDER version than
// the marker — the documented dirty-commit recovery trade).
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "checkpoint/backend.hpp"

namespace adcc::checkpoint {

/// Application-facing manager of the chunked durability engine: object
/// registration, double-buffered versioned saves (sync or async, ring depth
/// N), dirty-chunk in-place commits, and restore with torn-save
/// classification + torn-slot salvage. See the file comment.
class CheckpointSet {
 public:
  using PointHook = std::function<void(const char*)>;

  explicit CheckpointSet(Backend& backend, PointHook point_hook = {})
      : backend_(backend), point_hook_(std::move(point_hook)) {}

  /// Registers an object; must happen before the first save. Zero-byte
  /// objects are legal (they participate in the layout but carry no chunks).
  void add(std::string name, void* data, std::size_t bytes);

  template <typename T>
  void add(std::string name, std::span<T> s) {
    add(std::move(name), s.data(), s.size_bytes());
  }

  /// Checkpoints all registered objects; returns the new version. Chunks
  /// unchanged since this slot's previous image are skipped (CRC filter).
  /// Dispatches to save_async() when the backend's ChunkConfig::async is set.
  std::uint64_t save();

  /// Asynchronous save: snapshots the objects into a staging arena
  /// (synchronously — the caller may mutate them the moment this returns) and
  /// queues the drain on the backend's ring. Returns the new version, which
  /// is durable only once wait_durable() (or a later save that joins it)
  /// returns without throwing. When the ring is full (async_depth saves in
  /// flight) the oldest drain is completed first — a failure of an OLDER
  /// pending save is rethrown here, with the version rolled back to just
  /// before the failed save (the saves queued behind it never touched media).
  std::uint64_t save_async();

  /// Joins every in-flight drain, if any; idempotent. Returns the newest
  /// durable version. Rethrows the first drain failure (after rolling the
  /// version back so a retried save targets the same uncommitted slot).
  std::uint64_t wait_durable();

  /// Power-failure emulation: cancels the in-flight drain without committing
  /// it (the slot keeps the chunks already drained — detectably torn), drops
  /// the queued ring entries (their slots were never touched), and realigns
  /// the version with the backend's committed marker. Workload inject_crash()
  /// calls this before discarding volatile state; harmless when idle.
  void abort_async() noexcept;

  /// True between save_async() and the join — the window in which the caller
  /// overlaps useful work with the drain(s).
  bool async_pending() const { return !pending_.empty(); }

  /// Restores the newest recoverable checkpoint; returns its version
  /// (0 = no checkpoint, objects untouched). Prefers a salvageable
  /// interrupted save NEWER than the committed marker (re-committing it);
  /// under dirty_commit a torn committed slot falls back to the aged other
  /// slot. Throws LayoutMismatch / TornCheckpoint per Backend::load; details
  /// land in last_restore().
  std::uint64_t restore();

  /// Restores a specific committed version — the coordinated-rollback
  /// primitive: a group coordinator's global marker records the exact slot
  /// version each shard must rewind to, which may be OLDER than the shard's
  /// own newest commit (the shard saved ahead of a global commit the crash
  /// interrupted). With the double-buffered slot discipline the previous
  /// version's image is still intact in the other slot, so the requested
  /// version is found by scanning slot headers. Never salvages: a global
  /// marker must reference exactly-committed shard images. Returns `want` on
  /// success; `want == 0` restores nothing (caller reinitializes) and
  /// returns 0. Aborts if no slot holds a committed image of version `want`.
  std::uint64_t restore_version(std::uint64_t want);

  struct SaveStats {
    std::size_t chunks_written = 0;
    std::size_t chunks_skipped = 0;   ///< Clean under the CRC filter.
    std::size_t chunks_stamped = 0;   ///< Clean, epoch-stamped in place.
    std::size_t payload_bytes_written = 0;
  };
  const SaveStats& last_save() const { return save_stats_; }

  struct RestoreStats {
    std::uint64_t version = 0;
    std::size_t chunks_loaded = 0;
    std::size_t chunks_probed = 0;   ///< Torn-classifier scan of in-flight slots.
    std::size_t torn_chunks = 0;     ///< Detected chunks of an uncommitted save.
    /// Chunks of an interrupted-but-complete save recovered past the
    /// committed marker by torn-slot salvage (0 = classic restore).
    std::size_t salvaged_chunks = 0;
  };
  const RestoreStats& last_restore() const { return restore_stats_; }

  std::size_t payload_bytes() const { return total_bytes(objs_); }
  std::uint64_t version() const { return version_; }

 private:
  using CrcCache = std::vector<std::optional<std::uint32_t>>;

  int save_slot(bool in_place) const;
  const ChunkLayout& layout();
  /// This slot's payload-CRC cache, sized for the current layout. Joins the
  /// whole ring first when (re)allocation is needed — the drain worker
  /// updates cache entries in place, so resizing under a live ring is unsafe.
  std::shared_ptr<CrcCache>& slot_cache(int slot);
  /// True when dirty_commit may target the committed slot in place: a prior
  /// full save landed there, nothing has invalidated its CRC cache since, AND
  /// the other slot still holds a committed image — an in-place save tears
  /// the image it rewrites, so it is only safe with a fallback on media.
  bool in_place_eligible() const;
  /// Records whether `slot` holds a committed (restorable) image.
  void note_slot_commit(int slot, bool committed);
  /// Consumes the OLDEST ring entry: folds its receipt into the stats and the
  /// committed-slot tracking, or — on a drain failure — invalidates the
  /// failed slot's cache, drops the (never-run) entries queued behind it,
  /// rolls the version back to just before the failed save, and rethrows.
  void complete_oldest();

  /// One staging arena: a snapshot image's payload bytes plus ObjectViews
  /// into them. Shared with the backend drain as its keepalive, so the drain
  /// stays memory-safe even if this CheckpointSet dies mid-flight (the
  /// backend's destructor joins the thread; see Backend::teardown_drain).
  /// With async_depth > 1 a small pool of arenas backs the ring; an arena is
  /// reusable once the drain released it (use_count back to 1).
  struct Staged {
    std::vector<std::byte> bytes;
    std::vector<ObjectView> views;
  };

  /// One save queued on the backend's drain ring, oldest first.
  struct Pending {
    std::uint64_t version = 0;
    int slot = 0;
  };

  Backend& backend_;
  PointHook point_hook_;
  std::vector<ObjectView> objs_;
  std::uint64_t version_ = 0;
  bool frozen_ = false;
  std::shared_ptr<const ChunkLayout> layout_;  ///< Memo (objects freeze at first save).
  std::size_t layout_chunk_bytes_ = 0;
  std::vector<std::shared_ptr<Staged>> arenas_;  ///< Staging pool (<= depth + 1).
  std::deque<Pending> pending_;                  ///< Saves in the drain ring.
  SaveStats save_stats_;
  RestoreStats restore_stats_;

  /// Slot of the newest committed (or predictively, newest enqueued) save;
  /// -1 before the first commit. Alternating saves target the other slot,
  /// dirty commits this one.
  int committed_slot_ = -1;
  /// Slot of the newest FACTUALLY committed save — the value committed_slot_
  /// falls back to when the predictions above are walked back by a drain
  /// failure or an abort.
  int durable_slot_ = -1;

  /// Per-slot payload CRC of the chunk each slot currently holds (nullopt =
  /// unknown → must write). Shared with the engine, which consults AND
  /// updates it in place as chunks land on media — queued ring drains always
  /// filter against the true slot state, not a stale snapshot. Volatile by
  /// design: a fresh process rebuilds it with one full save.
  std::array<std::shared_ptr<CrcCache>, kSlotCount> slot_crcs_;
  /// True when the slot's cache fully describes its committed image (set
  /// when a save to the slot is enqueued/completed, cleared on failure or
  /// abort) — the dirty-commit eligibility bit, maintained strictly on the
  /// caller's thread so eligibility never reads cache entries a drain may be
  /// writing.
  std::array<bool, kSlotCount> cache_full_{};
  /// True when the slot holds a committed image a restore could fall back to
  /// (set on commit/enqueue, cleared pessimistically on failure or abort).
  /// Gates dirty-commit eligibility: the double buffer must never rewrite
  /// the ONLY committed image in place.
  std::array<bool, kSlotCount> slot_has_commit_{};
};

}  // namespace adcc::checkpoint

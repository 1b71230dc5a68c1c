// Checkpoint backends — the paper's traditional-checkpoint baselines, rebuilt
// as media behind one shared chunk engine.
//
// A checkpoint is an atomic durable copy of a set of application objects.
// Three media are modelled, matching the paper's test cases (2)-(4):
//   * FileBackend   — local hard drive (pwrite + fdatasync, optional device
//                     bandwidth model)
//   * NvmBackend    — NVM-only main memory (memcpy + flush + fence)
//   * HeteroBackend — heterogeneous NVM/DRAM (copy into the DRAM cache, then
//                     drain the DRAM cache through to NVM)
//
// save()/load() are now NON-virtual: the base class owns the chunk engine
// (layout, CRC32 integrity headers, the WritePipeline fan-out across
// --ckpt_threads workers, per-chunk compression ahead of the device queue,
// dirty-chunk filtering, and the commit order), and a medium implements only
// the span primitives below — "persist this chunk span", "read this span",
// "commit the (slot, version) marker".
//
// All backends remain double-buffer safe: CheckpointSet alternates slots and
// the version marker is committed last, so a crash mid-checkpoint leaves the
// previous checkpoint intact — and, new with the chunk format, the *torn*
// slot is detectable (mixed chunk versions / CRC mismatches) instead of being
// silent garbage. Since format 2, a torn slot that is in fact COMPLETE
// (every chunk CRC-valid and epoch-coherent at the interrupted save's
// version — the crash landed between the last chunk and the commit) is also
// *salvageable*: load_salvage() recovers the interrupted save instead of
// falling back a full slot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checkpoint/chunk.hpp"

namespace adcc::checkpoint {

/// Slots per backend: every medium double-buffers, and CheckpointSet
/// alternates between the two so a crash mid-save keeps the last commit.
inline constexpr int kSlotCount = 2;

/// Base of every durable-image integrity failure the chunk engine reports.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// load() found evidence of an interrupted save: a broken slot/chunk header,
/// a payload CRC mismatch, or a chunk newer than its slot's committed image.
class TornCheckpoint : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// The registered objects do not match the saved layout (object count or
/// sizes differ) — restoring would memcpy over live objects at wrong offsets.
class LayoutMismatch : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// Crash-point names the engine announces through ChunkHooks::point — the
/// crash-mid-checkpoint / crash-during-recovery sites of the crash-plan
/// grammar (point:ckpt_chunk[:K], point:ckpt_restore[:K]).
inline constexpr const char* kPointChunkSaved = "ckpt_chunk";
inline constexpr const char* kPointChunkLoaded = "ckpt_restore";

/// Asynchronous-checkpoint crash sites: per chunk snapshotted into the staging
/// arena (save_async's synchronous prologue, point:ckpt_stage[:K]) and per
/// chunk persisted by the background drain thread (point:ckpt_drain[:K]). A
/// drain-thread crash is captured and rethrown at the join (wait_durable / the
/// next save), leaving the slot torn and the marker uncommitted — exactly the
/// evidence a synchronous crash-mid-checkpoint leaves.
inline constexpr const char* kPointChunkStaged = "ckpt_stage";
inline constexpr const char* kPointChunkDrained = "ckpt_drain";

/// Per chunk compressed on a pipeline worker (point:ckpt_compress[:K], fired
/// only when --ckpt_compress is active) — a crash here dies before the
/// chunk's device write, torn-slot evidence one chunk earlier than ckpt_chunk.
inline constexpr const char* kPointChunkCompressed = "ckpt_compress";

/// Per save admitted into a ring of staging arenas deeper than one
/// (point:ring_stage[:K], fired by CheckpointSet::save_async when
/// --ckpt_async_depth > 1): a crash here loses the newly staged image while
/// older ring entries are still draining — the burst-crash window unique to
/// depth > 1.
inline constexpr const char* kPointRingStaged = "ring_stage";

/// Optional per-chunk callbacks (and per-save options) threaded through
/// save()/load().
struct ChunkHooks {
  /// Fired once per chunk persisted (save, kPointChunkSaved) or verified and
  /// copied back (load, kPointChunkLoaded). May throw — the fault surface's
  /// crash points inside the durability path ride this; a throw mid-save
  /// leaves a torn slot with the marker uncommitted. Calls are serialized
  /// across pipeline workers.
  std::function<void(const char*)> point;
  /// save() only: the caller's per-slot payload-CRC cache (nullopt = unknown).
  /// The engine both CONSULTS it (a chunk whose fresh CRC matches is clean
  /// — skipped, or epoch-stamped under in_place) and UPDATES it in
  /// place as chunks land on media, so queued ring drains always filter
  /// against the true slot state, not a stale snapshot. Entries are touched
  /// only from the save's executing threads (disjoint per chunk); FIFO drain
  /// order serializes cross-save access.
  std::shared_ptr<std::vector<std::optional<std::uint32_t>>> crc_cache;
  /// save() only: dirty-chunk double-buffered commit (--ckpt_dirty_commit).
  /// The save targets the slot holding the committed image; clean chunks get
  /// a header-only epoch stamp instead of being skipped, dirty chunks are
  /// rewritten in place, and the marker still commits last. A crash mid-save
  /// tears the committed image — recovery salvages the interrupted save or
  /// falls back to the (aged) other slot.
  bool in_place = false;
};

/// What one save() did: how many chunks it wrote, skipped or stamped
/// (CheckpointSet feeds its incremental stats from this; the CRC cache is
/// updated in place via ChunkHooks).
struct SaveReceipt {
  std::size_t written = 0;
  std::size_t skipped = 0;          ///< Unchanged, not rewritten (kClean).
  std::size_t stamped = 0;          ///< Clean, epoch-stamped in place (in_place).
  std::size_t payload_bytes = 0;    ///< Raw payload bytes of written chunks.
  std::size_t stored_bytes = 0;     ///< Post-codec bytes through the device queue.
};

/// Result of the cheap torn-save classifier (chunk-header scan, no payloads).
/// Besides counting torn evidence, the scan sizes up the salvage candidate:
/// the newest epoch any chunk reached, and whether EVERY chunk holds a
/// header-valid copy whose [version, epoch] interval covers it.
struct TornProbe {
  std::size_t chunks_probed = 0;
  std::size_t torn_chunks = 0;  ///< Chunks of an interrupted newer save.
  std::uint64_t base = 0;       ///< The slot's own committed header version.
  std::uint64_t salvage_version = 0;  ///< Max epoch across valid chunk headers.
  std::size_t salvage_chunks = 0;     ///< Chunks written AT salvage_version.
  /// True when every chunk's header is CRC-valid with
  /// version <= salvage_version <= epoch — the interrupted save finished its
  /// chunk writes, so load_salvage() can recover it (payload CRCs pending).
  bool salvage_ready = false;
  bool torn() const { return torn_chunks > 0; }
};

/// Cumulative traffic counters every backend maintains across saves/loads
/// (payload bytes only — chunk/slot headers are engine bookkeeping).
struct BackendStats {
  std::uint64_t saves = 0;
  std::uint64_t loads = 0;
  std::uint64_t bytes_saved = 0;     ///< Raw payload bytes written (headers excluded).
  std::uint64_t bytes_stored = 0;    ///< Post-codec bytes through the device queue.
  std::uint64_t bytes_loaded = 0;
  std::uint64_t chunks_written = 0;
  std::uint64_t chunks_skipped = 0;  ///< Dirty-filtered (clean) chunks.
  std::uint64_t chunks_stamped = 0;  ///< Epoch-stamped in place (dirty commit).
  std::uint64_t chunks_loaded = 0;
};

/// One completed (or failed / skipped) entry of the asynchronous drain ring,
/// consumed strictly FIFO via take_drain_outcome().
struct DrainOutcome {
  int slot = 0;
  std::uint64_t version = 0;
  std::optional<SaveReceipt> receipt;  ///< Engaged: the save committed.
  std::exception_ptr error;            ///< Engaged: the save failed mid-flight.
  /// True when the job never ran: it was queued behind a failed drain (its
  /// slot is untouched) — the ring stops at the first failure.
  bool skipped = false;
};

/// The chunk engine: non-virtual save/load/probe over the per-medium span
/// primitives below. Owns layout, CRC32 integrity headers, per-chunk
/// compression, the WritePipeline fan-out, dirty-chunk filtering, the commit
/// order, and the asynchronous drain ring; a medium implements only
/// "persist/read this span" and the (slot, version) marker.
class Backend {
 public:
  /// Out of line (with the destructor): the drain ring member is an
  /// incomplete type here.
  Backend();
  /// Backstop only: cancels and joins a still-pending drain so a subclass
  /// that forgot teardown_drain() hits abort_drain()'s bounded race instead
  /// of std::thread's guaranteed std::terminate. By this point the derived
  /// span primitives are already destroyed, so every subclass destructor must
  /// STILL call teardown_drain() first (see below). Defined out of line: the
  /// drain ring is an incomplete type here.
  virtual ~Backend();

  /// Chunk size / pipeline width / codec for subsequent saves
  /// (chunk_bytes, --ckpt_threads, --ckpt_compress, ...).
  void configure_chunks(const ChunkConfig& cfg);
  const ChunkConfig& chunk_config() const { return chunks_; }

  /// Durably stores the objects as `slot` and then durably records
  /// (slot, version) as the newest checkpoint. Chunks are serialized (and,
  /// with a codec configured, compressed) on the configured pipeline workers
  /// at deterministic image offsets (images are byte-identical across worker
  /// counts); the marker commit stays last. `layout`, when given, must be
  /// ChunkLayout::make(objs, chunk_bytes) — CheckpointSet passes its memoized
  /// copy so per-unit saves skip the rebuild.
  SaveReceipt save(int slot, std::uint64_t version, std::span<const ObjectView> objs,
                   const ChunkHooks& hooks = {}, const ChunkLayout* layout = nullptr);

  /// Enqueues an asynchronous save with the same contract as save(),
  /// returning as soon as the job is queued on the drain ring. One worker
  /// thread processes jobs strictly FIFO — save K fully commits (chunks,
  /// header, marker) before save K+1 touches media, so crash semantics are
  /// those of back-to-back synchronous saves with at most one save mid-flight
  /// on the medium. `objs` must point at memory that is stable for the
  /// drain's lifetime (CheckpointSet's staging arenas — `keepalive` owns it
  /// so the caller may be destroyed mid-drain); hook callbacks fire on the
  /// drain thread with kPointChunkSaved rewritten to kPointChunkDrained.
  /// Callers bound the ring depth themselves by consuming outcomes.
  void save_async(int slot, std::uint64_t version, std::vector<ObjectView> objs,
                  ChunkHooks hooks = {}, std::shared_ptr<const ChunkLayout> layout = nullptr,
                  std::shared_ptr<const void> keepalive = nullptr);

  /// Queued + running + completed-but-unconsumed drain jobs.
  std::size_t drains_pending() const;

  /// Blocks for the OLDEST ring entry's outcome and consumes it. After a
  /// failed job, the jobs queued behind it are returned as `skipped` (they
  /// never touched their slots). Must not be called with an empty ring.
  DrainOutcome take_drain_outcome();

  /// Re-arms the ring after a failure has been fully consumed. Between a
  /// job's failure and this call every enqueued job is skipped, even ones
  /// that arrive after the failure (the enqueuer raced the error) — the
  /// stop-at-first-failure contract covers the whole failure window.
  void acknowledge_drain_failure();

  /// Power-failure emulation: cooperatively cancels the in-flight drain job
  /// (the remaining chunks are never written; the slot stays torn with the
  /// marker uncommitted), discards the queued jobs and any unconsumed
  /// outcomes, and joins the worker. No-op when the ring is empty. Never
  /// throws.
  void abort_drain() noexcept;

  /// Verifies, decompresses and loads the slot image back into the object
  /// pointers. Throws LayoutMismatch when the saved object table does not
  /// match `objs` (no object is modified), and TornCheckpoint on any
  /// integrity failure (objects already verified may have been copied).
  /// Returns the version stored with the slot.
  std::uint64_t load(int slot, std::span<const ObjectView> objs, const ChunkHooks& hooks = {});

  /// Torn-slot salvage: loads the slot at the interrupted-but-complete
  /// version `want` a probe_torn() scan reported salvage-ready (chunks are
  /// accepted when their [version, epoch] interval covers `want`; both the
  /// stored CRC and the post-decompression payload CRC must verify). The
  /// caller re-commits the marker afterwards (recommit) to make the salvage
  /// durable. Throws TornCheckpoint when a payload fails verification.
  std::uint64_t load_salvage(int slot, std::uint64_t want, std::span<const ObjectView> objs,
                             const ChunkHooks& hooks = {});

  /// Re-commits the (slot, version) marker outside a save — the restore-side
  /// commit that makes a successful salvage (or a dirty-commit fallback to
  /// the aged slot) the newest checkpoint.
  void recommit(int slot, std::uint64_t version) { commit_marker(slot, version); }

  /// Chunk-header scan classifying whether `slot` holds pieces of a save that
  /// never committed, and whether that save is complete enough to salvage
  /// (see TornProbe). Payloads are not read; missing/blank slots probe clean.
  /// Torn evidence is counted against the slot's own committed header version
  /// unless `base_override` is given (dirty-commit restores pass the marker
  /// version: the slot's header may itself belong to the interrupted save).
  TornProbe probe_torn(int slot, std::span<const ObjectView> objs,
                       std::optional<std::uint64_t> base_override = std::nullopt);

  /// Newest committed (slot, version); version 0 means "no checkpoint yet".
  virtual std::pair<int, std::uint64_t> latest() const = 0;

  /// Raw slot image bytes (tests / crash inspection). Returns bytes read.
  std::size_t read_image(int slot, std::span<std::byte> out) const;

  const BackendStats& stats() const { return stats_; }

 protected:
  /// Every derived destructor MUST call this before tearing anything down
  /// (closing fds, removing scratch files, releasing arenas): it aborts and
  /// joins an in-flight drain so the drain thread cannot call the derived
  /// class's span primitives — or touch its files — mid-destruction. The base
  /// destructor cannot do this itself (the derived vtable is already gone).
  void teardown_drain() noexcept { abort_drain(); }

  // ---- The per-medium surface -------------------------------------------
  /// Prepares `slot` to receive an image of `image_bytes` (open/size the
  /// file, check arena capacity). Existing slot content must be preserved
  /// where not overwritten — the dirty-chunk filter depends on it.
  virtual void begin_slot(int slot, std::size_t image_bytes) = 0;
  /// Durably writes [offset, offset+bytes) of the slot image. Must be safe to
  /// call concurrently from pipeline workers (disjoint spans).
  virtual void write_span(int slot, std::size_t offset, const void* src,
                          std::size_t bytes) = 0;
  /// Save epilogue (e.g. fdatasync) before the marker commit.
  virtual void finish_slot(int slot) = 0;
  /// Durably records (slot, version) as the newest checkpoint — the commit
  /// point, always last.
  virtual void commit_marker(int slot, std::uint64_t version) = 0;
  /// Best-effort read of the slot image; returns bytes actually read (short
  /// or 0 when the slot holds no such data).
  virtual std::size_t read_span(int slot, std::size_t offset, void* dst,
                                std::size_t bytes) const = 0;

  BackendStats stats_;
  ChunkConfig chunks_;

 private:
  SaveReceipt do_save(int slot, std::uint64_t version, std::span<const ObjectView> objs,
                      const ChunkHooks& hooks, const ChunkLayout* memo,
                      const char* point_name, const std::atomic<bool>* cancel);
  std::uint64_t do_load(int slot, std::span<const ObjectView> objs, const ChunkHooks& hooks,
                        std::optional<std::uint64_t> salvage);

  // ---- Async drain ring (one worker, strict FIFO) ------------------------
  struct DrainJob;
  struct Ring;
  void drain_worker();
  void ensure_worker();

  std::unique_ptr<Ring> ring_;
};

}  // namespace adcc::checkpoint

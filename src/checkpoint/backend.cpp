#include "checkpoint/backend.hpp"

#include <cstring>

#include "checkpoint/write_pipeline.hpp"
#include "common/check.hpp"
#include "core/telemetry.hpp"

namespace adcc::checkpoint {

namespace {

std::string slot_str(int slot) { return "slot " + std::to_string(slot); }

/// Internal unwind used to stop a cancelled drain: abort_drain() flips the
/// cancel flag, the drain's per-chunk check throws this, the WritePipeline
/// aborts the remaining chunks, and the ring worker swallows it (a cancelled
/// drain is the emulated power failure, not an error).
struct DrainCancelled {};

/// Serializes the slot prologue: SlotHeader + object-size table.
std::vector<std::byte> make_header_image(const ChunkLayout& layout, std::uint64_t version,
                                         std::size_t chunk_bytes) {
  SlotHeader h;
  h.magic = kSlotMagic;
  h.format = kChunkFormat;
  h.version = version;
  h.chunk_bytes = chunk_bytes;
  h.payload_bytes = layout.payload_bytes;
  h.object_count = static_cast<std::uint32_t>(layout.object_bytes.size());
  h.chunk_count = static_cast<std::uint32_t>(layout.chunks.size());
  h.table_crc = crc32(layout.object_bytes.data(),
                      layout.object_bytes.size() * sizeof(std::uint64_t));
  h.header_crc = slot_header_crc(h);

  std::vector<std::byte> image(layout.header_bytes);
  std::memcpy(image.data(), &h, sizeof(h));
  std::memcpy(image.data() + sizeof(h), layout.object_bytes.data(),
              layout.object_bytes.size() * sizeof(std::uint64_t));
  return image;
}

}  // namespace

Backend::Backend() = default;

Backend::~Backend() { abort_drain(); }

// ---- Async drain ring ----------------------------------------------------

/// One queued asynchronous save, exactly the save_async() arguments plus the
/// caller's telemetry binding (each job re-binds on the worker).
struct Backend::DrainJob {
  int slot = 0;
  std::uint64_t version = 0;
  std::vector<ObjectView> objs;
  ChunkHooks hooks;
  std::shared_ptr<const ChunkLayout> layout;
  std::shared_ptr<const void> keepalive;
  core::TelemetryBinding binding;
};

/// The drain ring: a FIFO job queue, one worker thread, and the outcomes
/// awaiting consumption. Jobs run strictly in order — save K fully commits
/// before save K+1 touches media — so crash semantics match back-to-back
/// synchronous saves with at most one save mid-flight on the medium.
struct Backend::Ring {
  mutable std::mutex mu;
  std::condition_variable cv;
  std::deque<DrainJob> queue;
  std::deque<DrainOutcome> done;
  bool running = false;  ///< A job is executing right now.
  bool failed = false;   ///< A job failed; later jobs skip until acknowledged.
  bool stop = false;
  std::atomic<bool> cancel{false};  ///< Cancels the executing job's chunks.
  std::thread worker;
};

void Backend::ensure_worker() {
  if (!ring_) ring_ = std::make_unique<Ring>();
  Ring& r = *ring_;
  if (r.worker.joinable()) return;
  r.stop = false;
  r.cancel.store(false, std::memory_order_relaxed);
  r.worker = std::thread([this] { drain_worker(); });
}

void Backend::drain_worker() {
  Ring& r = *ring_;
  std::unique_lock<std::mutex> lock(r.mu);
  for (;;) {
    r.cv.wait(lock, [&] { return r.stop || !r.queue.empty(); });
    if (r.stop) return;
    DrainJob job = std::move(r.queue.front());
    r.queue.pop_front();
    if (r.failed) {
      // A job enqueued after the failure landed (the enqueuer had not yet
      // consumed the error): it must not touch media either. Stop-at-first-
      // failure holds until the caller acknowledges the failed outcome.
      DrainOutcome skip;
      skip.slot = job.slot;
      skip.version = job.version;
      skip.skipped = true;
      r.done.push_back(std::move(skip));
      r.cv.notify_all();
      continue;
    }
    r.running = true;
    lock.unlock();

    DrainOutcome out;
    out.slot = job.slot;
    out.version = job.version;
    bool failed = false;
    {
      // The job inherits its enqueuer's telemetry binding under a "/drain"
      // track so its stage scopes merge into the owning cell and get their
      // own trace timeline; ckpt/drain is the drain's wall time (it overlaps
      // the compute it hides — that overlap is the point of async).
      const core::TelemetryBind bind(job.binding, "/drain");
      const core::StageTimer timer("ckpt/drain");
      try {
        out.receipt = do_save(job.slot, job.version, job.objs, job.hooks,
                              job.layout ? job.layout.get() : nullptr, kPointChunkDrained,
                              &r.cancel);
      } catch (const DrainCancelled&) {
        // The emulated power failure: neither a receipt nor an error — the
        // chunks already persisted are the torn evidence recovery will probe.
      } catch (...) {
        out.error = std::current_exception();
        failed = true;
      }
    }

    lock.lock();
    r.running = false;
    r.done.push_back(std::move(out));
    if (failed) {
      // The ring stops at the first failure: the jobs queued behind it never
      // ran (their slots are untouched) — surface them as skipped outcomes so
      // the caller can roll its version bookkeeping back precisely. The
      // `failed` latch extends the same treatment to jobs that arrive after
      // this conversion, until acknowledge_drain_failure().
      r.failed = true;
      while (!r.queue.empty()) {
        DrainOutcome skip;
        skip.slot = r.queue.front().slot;
        skip.version = r.queue.front().version;
        skip.skipped = true;
        r.queue.pop_front();
        r.done.push_back(std::move(skip));
      }
    }
    r.cv.notify_all();
  }
}

void Backend::save_async(int slot, std::uint64_t version, std::vector<ObjectView> objs,
                         ChunkHooks hooks, std::shared_ptr<const ChunkLayout> layout,
                         std::shared_ptr<const void> keepalive) {
  ensure_worker();
  DrainJob job;
  job.slot = slot;
  job.version = version;
  job.objs = std::move(objs);
  job.hooks = std::move(hooks);
  job.layout = std::move(layout);
  job.keepalive = std::move(keepalive);
  job.binding = core::Telemetry::current_binding();
  {
    std::lock_guard<std::mutex> lock(ring_->mu);
    ring_->queue.push_back(std::move(job));
  }
  ring_->cv.notify_all();
}

std::size_t Backend::drains_pending() const {
  if (!ring_) return 0;
  std::lock_guard<std::mutex> lock(ring_->mu);
  return ring_->queue.size() + (ring_->running ? 1 : 0) + ring_->done.size();
}

DrainOutcome Backend::take_drain_outcome() {
  ADCC_CHECK(drains_pending() > 0, "no drain outcome to take");
  Ring& r = *ring_;
  std::unique_lock<std::mutex> lock(r.mu);
  r.cv.wait(lock, [&] { return !r.done.empty(); });
  DrainOutcome out = std::move(r.done.front());
  r.done.pop_front();
  return out;
}

void Backend::acknowledge_drain_failure() {
  if (!ring_) return;
  std::lock_guard<std::mutex> lock(ring_->mu);
  ring_->failed = false;
}

void Backend::abort_drain() noexcept {
  if (!ring_) return;
  Ring& r = *ring_;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    // Queued jobs die unstarted (their slots were never touched); the
    // executing job is cancelled cooperatively between chunks. A job that
    // finished (or died) before the cancel landed is equally swallowed: the
    // caller declared a power failure, so the committed-or-torn distinction
    // is left to the marker and recovery's probe, as on real hardware.
    r.queue.clear();
    r.stop = true;
    r.cancel.store(true, std::memory_order_relaxed);
  }
  r.cv.notify_all();
  if (r.worker.joinable()) r.worker.join();
  std::lock_guard<std::mutex> lock(r.mu);
  r.done.clear();
  r.failed = false;
  r.stop = false;
  r.cancel.store(false, std::memory_order_relaxed);
}

// ---- Save ----------------------------------------------------------------

void Backend::configure_chunks(const ChunkConfig& cfg) {
  ADCC_CHECK(cfg.chunk_bytes > 0, "chunk size must be positive");
  ADCC_CHECK(cfg.threads >= 1, "checkpoint pipeline needs at least one worker");
  ADCC_CHECK(cfg.async_depth >= 1, "async ring depth must be at least 1");
  chunks_ = cfg;
}

SaveReceipt Backend::save(int slot, std::uint64_t version, std::span<const ObjectView> objs,
                          const ChunkHooks& hooks, const ChunkLayout* memo) {
  return do_save(slot, version, objs, hooks, memo, kPointChunkSaved, nullptr);
}

SaveReceipt Backend::do_save(int slot, std::uint64_t version, std::span<const ObjectView> objs,
                             const ChunkHooks& hooks, const ChunkLayout* memo,
                             const char* point_name, const std::atomic<bool>* cancel) {
  ADCC_CHECK(slot >= 0 && slot < kSlotCount, "checkpoint slot out of range");
  ChunkLayout built;
  if (memo == nullptr) {
    built = ChunkLayout::make(objs, chunks_.chunk_bytes);
    memo = &built;
  }
  const ChunkLayout& layout = *memo;
  begin_slot(slot, layout.image_bytes);

  // Each chunk's outcome, recorded by the worker that handled it and tallied
  // into the receipt once the pipeline has joined.
  enum class Fate : unsigned char { kClean, kWritten, kStamped };
  std::vector<Fate> fates(layout.chunks.size(), Fate::kClean);
  std::vector<std::uint32_t> stored_bytes(layout.chunks.size(), 0);

  auto* cache = hooks.crc_cache.get();
  ADCC_CHECK(cache == nullptr || cache->size() == layout.chunks.size(),
             "per-slot CRC cache does not match the layout");
  const bool compressing = chunks_.compress.codec != Codec::kRaw;

  std::mutex point_mu;
  const auto fire_point = [&](const char* name) {
    if (!hooks.point) return;
    // Serialized: the fault surface's one-shot occurrence counting (and its
    // CrashException) must not race across pipeline workers.
    std::lock_guard<std::mutex> lock(point_mu);
    hooks.point(name);
  };

  WritePipeline pipeline(chunks_.threads);
  pipeline.run(layout.chunks.size(), [&](std::size_t i, ChunkScratch& scratch) {
    const ChunkLayout::Chunk& c = layout.chunks[i];
    // Cancelled drains stop between chunks: the chunks already persisted stay
    // persisted (the torn image a power failure leaves), nothing else lands.
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) throw DrainCancelled{};
    scratch.raw.resize(sizeof(ChunkHeader) + c.payload_bytes);
    const auto* src = static_cast<const std::byte*>(objs[c.object].data) + c.object_offset;
    {
      const core::StageTimer timer("ckpt/stage");
      std::memcpy(scratch.raw.data() + sizeof(ChunkHeader), src, c.payload_bytes);
    }
    std::uint32_t crc;
    {
      const core::StageTimer timer("ckpt/crc");
      crc = crc32(scratch.raw.data() + sizeof(ChunkHeader), c.payload_bytes);
    }
    const bool clean = cache != nullptr && (*cache)[i].has_value() && *(*cache)[i] == crc;
    if (clean && !hooks.in_place) return;  // Fate::kClean.
    if (clean && hooks.in_place) {
      // Dirty-chunk commit: the payload on media already matches — advance
      // only the header's epoch stamp so the copy stays provably valid for
      // this version (the salvage coherence interval). An on-media header
      // that fails validation falls through to a full rewrite.
      ChunkHeader h;
      if (read_span(slot, c.image_offset, &h, sizeof(h)) == sizeof(h) &&
          h.magic == kChunkMagic && h.header_crc == chunk_header_crc(h) &&
          h.object == c.object && h.index == c.index &&
          h.payload_bytes == c.payload_bytes && h.payload_crc == crc) {
        h.epoch = version;
        h.header_crc = chunk_header_crc(h);
        {
          const core::StageTimer timer("ckpt/queue");
          write_span(slot, c.image_offset, &h, sizeof(h));
        }
        fates[i] = Fate::kStamped;
        fire_point(point_name);
        return;
      }
    }

    ChunkHeader h;
    h.magic = kChunkMagic;
    h.object = c.object;
    h.index = c.index;
    h.payload_bytes = c.payload_bytes;
    h.version = version;
    h.epoch = version;
    h.stored_bytes = c.payload_bytes;
    h.codec = static_cast<std::uint32_t>(Codec::kRaw);
    h.payload_crc = crc;
    h.stored_crc = crc;

    std::byte* out = scratch.raw.data();
    std::size_t out_bytes = scratch.raw.size();
    if (compressing) {
      std::size_t packed;
      {
        const core::StageTimer timer("ckpt/compress");
        packed = lz_compress(scratch.raw.data() + sizeof(ChunkHeader), c.payload_bytes,
                             scratch.packed, chunks_.compress.level);
      }
      if (packed > 0) {
        h.codec = static_cast<std::uint32_t>(Codec::kLz);
        h.stored_bytes = static_cast<std::uint32_t>(packed);
        h.stored_crc = crc32(scratch.packed.data(), packed);
        const auto* hp = reinterpret_cast<const std::byte*>(&h);
        scratch.packed.insert(scratch.packed.begin(), hp, hp + sizeof(h));
        out = scratch.packed.data();
        out_bytes = sizeof(h) + packed;
      }
      fire_point(kPointChunkCompressed);
    }
    h.header_crc = chunk_header_crc(h);
    std::memcpy(out, &h, sizeof(h));
    {
      // ckpt/queue is the device-facing cost: the medium write plus any
      // device-bandwidth throttle wait. The sweep surfaces it as t_io.
      const core::StageTimer timer("ckpt/queue");
      write_span(slot, c.image_offset, out, out_bytes);
    }
    stored_bytes[i] = h.stored_bytes;
    fates[i] = Fate::kWritten;
    // Cache update strictly AFTER the media write: a crash between the two
    // leaves a stale (pessimistic) entry, never an optimistic one that would
    // let a later save skip a chunk the media does not actually hold.
    if (cache != nullptr) (*cache)[i] = crc;
    fire_point(point_name);
  });

  SaveReceipt receipt;
  for (std::size_t i = 0; i < layout.chunks.size(); ++i) {
    switch (fates[i]) {
      case Fate::kWritten:
        ++receipt.written;
        receipt.payload_bytes += layout.chunks[i].payload_bytes;
        receipt.stored_bytes += stored_bytes[i];
        break;
      case Fate::kClean:
        ++receipt.skipped;
        break;
      case Fate::kStamped:
        ++receipt.stamped;
        break;
    }
  }

  // Slot header after every chunk, marker after the slot is whole — a crash
  // anywhere above leaves the previous checkpoint committed and this slot
  // detectably torn (chunks newer than its header). A cancellation landing
  // after the last chunk must stop here too: the emulated power failure may
  // never reach the commit point.
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) throw DrainCancelled{};
  {
    const core::StageTimer timer("ckpt/commit");
    const std::vector<std::byte> header = make_header_image(layout, version, chunks_.chunk_bytes);
    write_span(slot, 0, header.data(), header.size());
    finish_slot(slot);
    commit_marker(slot, version);
  }
  if (core::Telemetry* tel = core::Telemetry::current()) {
    tel->count("ckpt/chunks_written", receipt.written);
    tel->count("ckpt/chunks_skipped", receipt.skipped);
    if (hooks.in_place) tel->count("ckpt/chunks_stamped", receipt.stamped);
  }

  ++stats_.saves;
  stats_.bytes_saved += receipt.payload_bytes;
  stats_.bytes_stored += receipt.stored_bytes;
  stats_.chunks_written += receipt.written;
  stats_.chunks_skipped += receipt.skipped;
  stats_.chunks_stamped += receipt.stamped;
  return receipt;
}

// ---- Load / salvage ------------------------------------------------------

std::uint64_t Backend::load(int slot, std::span<const ObjectView> objs,
                            const ChunkHooks& hooks) {
  return do_load(slot, objs, hooks, std::nullopt);
}

std::uint64_t Backend::load_salvage(int slot, std::uint64_t want,
                                    std::span<const ObjectView> objs,
                                    const ChunkHooks& hooks) {
  ADCC_CHECK(want > 0, "salvage target version must be positive");
  return do_load(slot, objs, hooks, want);
}

std::uint64_t Backend::do_load(int slot, std::span<const ObjectView> objs,
                               const ChunkHooks& hooks,
                               std::optional<std::uint64_t> salvage) {
  ADCC_CHECK(slot >= 0 && slot < kSlotCount, "checkpoint slot out of range");

  SlotHeader h;
  if (read_span(slot, 0, &h, sizeof(h)) != sizeof(h) || h.magic != kSlotMagic ||
      h.format != kChunkFormat || h.header_crc != slot_header_crc(h)) {
    throw TornCheckpoint(slot_str(slot) + " holds no consistent checkpoint header");
  }
  std::vector<std::uint64_t> table(h.object_count);
  const std::size_t table_bytes = table.size() * sizeof(std::uint64_t);
  if (read_span(slot, sizeof(SlotHeader), table.data(), table_bytes) != table_bytes ||
      crc32(table.data(), table_bytes) != h.table_crc) {
    throw TornCheckpoint(slot_str(slot) + " has a corrupt object table");
  }
  // The explicit layout contract: a mismatched object set must fail loudly
  // BEFORE any byte is copied over a live object.
  if (table.size() != objs.size()) {
    throw LayoutMismatch(slot_str(slot) + " holds " + std::to_string(table.size()) +
                         " objects, caller registered " + std::to_string(objs.size()));
  }
  for (std::size_t i = 0; i < objs.size(); ++i) {
    if (table[i] != objs[i].bytes) {
      throw LayoutMismatch(slot_str(slot) + " object '" + objs[i].name + "' was saved with " +
                           std::to_string(table[i]) + " bytes, caller registered " +
                           std::to_string(objs[i].bytes));
    }
  }

  // Offsets from the *saved* chunk size, so images survive a chunk_bytes
  // reconfiguration between save and load.
  const ChunkLayout layout = ChunkLayout::make(objs, static_cast<std::size_t>(h.chunk_bytes));
  ADCC_CHECK(layout.chunks.size() == h.chunk_count,
             "slot header chunk count disagrees with its own layout");

  std::vector<std::byte> stored;
  std::vector<std::byte> raw;
  std::size_t payload_loaded = 0;
  for (std::size_t i = 0; i < layout.chunks.size(); ++i) {
    const ChunkLayout::Chunk& c = layout.chunks[i];
    const std::string where = slot_str(slot) + " object " + std::to_string(c.object) +
                              " chunk " + std::to_string(c.index);
    ChunkHeader ch;
    if (read_span(slot, c.image_offset, &ch, sizeof(ch)) != sizeof(ch)) {
      throw TornCheckpoint(slot_str(slot) + " is truncated at chunk " + std::to_string(i));
    }
    if (ch.magic != kChunkMagic || ch.header_crc != chunk_header_crc(ch) ||
        ch.object != c.object || ch.index != c.index || ch.payload_bytes != c.payload_bytes ||
        ch.stored_bytes > c.payload_bytes) {
      throw TornCheckpoint(where + " has a torn header");
    }
    if (salvage.has_value()) {
      // Salvage accepts any copy whose coherence interval covers the target:
      // written at <= want, stamped valid through >= want.
      if (ch.version > *salvage || ch.epoch < *salvage) {
        throw TornCheckpoint(where + " does not cover the salvage version");
      }
    } else if (ch.version > h.version) {
      throw TornCheckpoint(where + " belongs to an uncommitted newer save (torn write)");
    }
    stored.resize(ch.stored_bytes);
    if (read_span(slot, c.image_offset + sizeof(ChunkHeader), stored.data(), stored.size()) !=
        stored.size()) {
      throw TornCheckpoint(where + " has truncated stored bytes");
    }
    if (crc32(stored.data(), stored.size()) != ch.stored_crc) {
      throw TornCheckpoint(where + " fails its stored CRC (torn write)");
    }
    const std::byte* payload = stored.data();
    if (ch.codec == static_cast<std::uint32_t>(Codec::kLz)) {
      raw.resize(c.payload_bytes);
      if (!lz_decompress(stored.data(), stored.size(), raw.data(), c.payload_bytes)) {
        throw TornCheckpoint(where + " fails to decompress");
      }
      // Both CRCs verify on load: the stored bytes above, the decompressed
      // payload here — a codec bug can never silently corrupt a restore.
      if (crc32(raw.data(), c.payload_bytes) != ch.payload_crc) {
        throw TornCheckpoint(where + " fails its payload CRC after decompression");
      }
      payload = raw.data();
    } else {
      if (ch.codec != static_cast<std::uint32_t>(Codec::kRaw) ||
          ch.stored_bytes != c.payload_bytes) {
        throw TornCheckpoint(where + " has an unknown payload codec");
      }
      if (ch.payload_crc != ch.stored_crc) {
        throw TornCheckpoint(where + " fails its payload CRC (torn write)");
      }
    }
    std::memcpy(static_cast<std::byte*>(objs[c.object].data) + c.object_offset, payload,
                c.payload_bytes);
    payload_loaded += c.payload_bytes;
    ++stats_.chunks_loaded;
    if (hooks.point) hooks.point(kPointChunkLoaded);
  }

  ++stats_.loads;
  stats_.bytes_loaded += payload_loaded;
  return salvage.value_or(h.version);
}

TornProbe Backend::probe_torn(int slot, std::span<const ObjectView> objs,
                              std::optional<std::uint64_t> base_override) {
  ADCC_CHECK(slot >= 0 && slot < kSlotCount, "checkpoint slot out of range");
  TornProbe probe;

  // The slot's own committed version is the baseline; an unreadable or absent
  // header means nothing was ever committed here (baseline 0).
  std::uint64_t base = 0;
  std::size_t layout_chunk_bytes = chunks_.chunk_bytes;
  SlotHeader h;
  if (read_span(slot, 0, &h, sizeof(h)) == sizeof(h) && h.magic == kSlotMagic) {
    if (h.format == kChunkFormat && h.header_crc == slot_header_crc(h)) {
      base = h.version;
      // Scan at the offsets the slot was actually cut with (load() supports
      // chunk_bytes reconfiguration between save and load; so must the torn
      // classifier).
      if (h.chunk_bytes > 0) layout_chunk_bytes = static_cast<std::size_t>(h.chunk_bytes);
    } else {
      ++probe.torn_chunks;  // A half-written slot header is torn evidence itself.
    }
  }
  probe.base = base;
  // Dirty-commit restores probe the marker slot itself: its header may belong
  // to the interrupted save, so torn evidence counts against the marker.
  if (base_override.has_value()) base = *base_override;

  const ChunkLayout layout = ChunkLayout::make(objs, layout_chunk_bytes);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  intervals.reserve(layout.chunks.size());
  bool all_valid = true;
  for (const ChunkLayout::Chunk& c : layout.chunks) {
    ChunkHeader ch;
    if (read_span(slot, c.image_offset, &ch, sizeof(ch)) != sizeof(ch)) {
      all_valid = false;
      break;
    }
    ++probe.chunks_probed;
    if (ch.magic != kChunkMagic) {  // Blank / never-written span.
      all_valid = false;
      continue;
    }
    const bool header_ok = ch.header_crc == chunk_header_crc(ch) && ch.object == c.object &&
                           ch.index == c.index && ch.payload_bytes == c.payload_bytes &&
                           ch.stored_bytes <= c.payload_bytes && ch.epoch >= ch.version;
    if (!header_ok || ch.version > base) ++probe.torn_chunks;
    if (header_ok) {
      intervals.emplace_back(ch.version, ch.epoch);
    } else {
      all_valid = false;
    }
  }

  // Salvage candidacy: the newest epoch any chunk reached, reachable only if
  // EVERY chunk's coherence interval covers it (the interrupted save finished
  // its chunk writes; payload CRCs are verified by load_salvage).
  all_valid = all_valid && intervals.size() == layout.chunks.size();
  if (all_valid && !intervals.empty()) {
    std::uint64_t target = 0;
    for (const auto& [version, epoch] : intervals) target = std::max(target, epoch);
    probe.salvage_version = target;
    probe.salvage_ready = true;
    for (const auto& [version, epoch] : intervals) {
      if (version > target || epoch < target) probe.salvage_ready = false;
      if (version == target) ++probe.salvage_chunks;
    }
    if (!probe.salvage_ready) {
      probe.salvage_version = 0;
      probe.salvage_chunks = 0;
    }
  }
  return probe;
}

std::size_t Backend::read_image(int slot, std::span<std::byte> out) const {
  return read_span(slot, 0, out.data(), out.size());
}

}  // namespace adcc::checkpoint

#include "checkpoint/checkpoint_set.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "core/telemetry.hpp"

namespace adcc::checkpoint {

void CheckpointSet::add(std::string name, void* data, std::size_t bytes) {
  ADCC_CHECK(!frozen_, "objects must be registered before the first save");
  ADCC_CHECK(data != nullptr || bytes == 0, "non-empty object needs a pointer");
  objs_.push_back({std::move(name), data, bytes});
}

int CheckpointSet::save_slot(bool in_place) const {
  if (in_place) return committed_slot_;
  // Alternate away from the committed image; before the first commit the
  // version parity seeds the alternation (save 1 targets slot 1).
  if (committed_slot_ >= 0) return 1 - committed_slot_;
  return static_cast<int>((version_ + 1) % 2);
}

bool CheckpointSet::in_place_eligible() const {
  if (committed_slot_ < 0) return false;
  const auto s = static_cast<std::size_t>(committed_slot_);
  // The other slot must hold a committed fallback: an in-place save tears the
  // committed image it rewrites, and a crash mid-save must still leave SOME
  // restorable checkpoint (the first saves of a run alternate classically).
  const auto other = static_cast<std::size_t>(1 - committed_slot_);
  return slot_has_commit_[other] && cache_full_[s];
}

void CheckpointSet::note_slot_commit(int slot, bool committed) {
  slot_has_commit_[static_cast<std::size_t>(slot)] = committed;
}

const ChunkLayout& CheckpointSet::layout() {
  // A pure function of (objects, chunk size); objects freeze at the first
  // save, so the memo only invalidates on a chunk-size reconfiguration.
  const std::size_t chunk_bytes = backend_.chunk_config().chunk_bytes;
  if (!layout_ || layout_chunk_bytes_ != chunk_bytes) {
    layout_ = std::make_shared<const ChunkLayout>(ChunkLayout::make(objs_, chunk_bytes));
    layout_chunk_bytes_ = chunk_bytes;
  }
  return *layout_;
}

std::shared_ptr<CheckpointSet::CrcCache>& CheckpointSet::slot_cache(int slot) {
  auto& cache = slot_crcs_[static_cast<std::size_t>(slot)];
  const std::size_t chunks = layout().chunks.size();
  if (cache && cache->size() == chunks) return cache;
  if (cache) {
    // Replacing a cache (chunk-size reconfiguration) would orphan entries a
    // queued drain still updates in place — join the whole ring first.
    wait_durable();
  }
  cache = std::make_shared<CrcCache>(chunks, std::nullopt);
  cache_full_[static_cast<std::size_t>(slot)] = false;
  return cache;
}

std::uint64_t CheckpointSet::save() {
  if (backend_.chunk_config().async) return save_async();
  ADCC_CHECK(!objs_.empty(), "no objects registered");
  wait_durable();  // An in-flight ring commits (or surfaces its crash) first.
  frozen_ = true;
  const bool in_place = backend_.chunk_config().dirty_commit && in_place_eligible();
  const int slot = save_slot(in_place);
  const std::shared_ptr<CrcCache> cache = slot_cache(slot);
  CrcCache& crcs = *cache;
  ++version_;

  ChunkHooks hooks;
  hooks.point = point_hook_;
  hooks.crc_cache = cache;
  hooks.in_place = in_place;

  SaveReceipt receipt;
  try {
    receipt = backend_.save(slot, version_, objs_, hooks, &layout());
  } catch (...) {
    // The save died mid-flight (crash point, medium failure): some chunks of
    // the new image may be in the slot, so everything we believed about it is
    // suspect. Forget it — the next save to this slot rewrites in full — and
    // roll the version back so a retried save targets this same slot again
    // instead of advancing onto the committed one (the double buffer must
    // keep protecting the last marker).
    crcs.assign(crcs.size(), std::nullopt);
    cache_full_[static_cast<std::size_t>(slot)] = false;
    note_slot_commit(slot, false);
    --version_;
    throw;
  }

  // The engine updated the CRC cache in place as chunks landed.
  save_stats_ = {receipt.written, receipt.skipped, receipt.stamped, receipt.payload_bytes};
  committed_slot_ = durable_slot_ = slot;
  cache_full_[static_cast<std::size_t>(slot)] = true;
  note_slot_commit(slot, true);
  return version_;
}

std::uint64_t CheckpointSet::save_async() {
  ADCC_CHECK(!objs_.empty(), "no objects registered");
  frozen_ = true;
  const auto depth = static_cast<std::size_t>(std::max(1, backend_.chunk_config().async_depth));
  // Ring admission: with the ring full, the oldest drain completes (or
  // surfaces its crash — complete_oldest rolls the version back) before a
  // new save stages. Depth 1 is the classic one-in-flight handshake.
  while (pending_.size() >= depth) complete_oldest();

  const ChunkLayout& layout = this->layout();
  const bool in_place = backend_.chunk_config().dirty_commit && in_place_eligible();
  const int slot = save_slot(in_place);
  const std::shared_ptr<CrcCache> cache = slot_cache(slot);

  // Stage: snapshot every chunk's payload into a free arena of the staging
  // pool (one released by an already-consumed drain, or a fresh one — the
  // pool is bounded by the ring depth).
  std::shared_ptr<Staged> arena;
  for (const std::shared_ptr<Staged>& a : arenas_) {
    if (a.use_count() == 1) {
      arena = a;
      break;
    }
  }
  if (!arena) {
    arena = std::make_shared<Staged>();
    arenas_.push_back(arena);
  }
  arena->bytes.resize(layout.payload_bytes);
  std::vector<std::size_t> object_base(objs_.size(), 0);  // Payload offset of object i.
  for (std::size_t i = 1; i < objs_.size(); ++i) {
    object_base[i] = object_base[i - 1] + objs_[i - 1].bytes;
  }
  arena->views.clear();
  for (std::size_t i = 0; i < objs_.size(); ++i) {
    arena->views.push_back({objs_[i].name, arena->bytes.data() + object_base[i], objs_[i].bytes});
  }
  ++version_;
  try {
    const core::StageTimer timer("ckpt/stage");
    for (const ChunkLayout::Chunk& c : layout.chunks) {
      std::memcpy(arena->bytes.data() + object_base[c.object] + c.object_offset,
                  static_cast<const std::byte*>(objs_[c.object].data) + c.object_offset,
                  c.payload_bytes);
      if (point_hook_) point_hook_(kPointChunkStaged);
    }
    // Ring admission point: per save staged into a ring deeper than one —
    // the burst-crash window unique to depth > 1 (older arenas still drain,
    // this snapshot dies with the power before its drain is even queued).
    if (depth > 1 && point_hook_) point_hook_(kPointRingStaged);
  } catch (...) {
    // A crash between stage and enqueue touches nothing durable: the slot
    // (and the CRC cache describing it) is exactly as the last save left it,
    // so only the version bump rolls back.
    --version_;
    throw;
  }

  ChunkHooks hooks;
  hooks.point = point_hook_;
  hooks.crc_cache = cache;
  hooks.in_place = in_place;
  backend_.save_async(slot, version_, arena->views, std::move(hooks), layout_, arena);
  pending_.push_back({version_, slot});
  // Predictive tracking: the drains are strictly FIFO, so by the time any
  // LATER ring entry targets a slot, this save has fully committed and its
  // in-place cache updates are done. Failures walk these back.
  committed_slot_ = slot;
  cache_full_[static_cast<std::size_t>(slot)] = true;
  note_slot_commit(slot, true);
  return version_;
}

void CheckpointSet::complete_oldest() {
  ADCC_CHECK(!pending_.empty(), "no pending async save to complete");
  const Pending p = pending_.front();
  pending_.pop_front();
  DrainOutcome outcome = backend_.take_drain_outcome();
  ADCC_CHECK(outcome.version == p.version && outcome.slot == p.slot,
             "drain ring outcome out of step with the pending queue");
  if (outcome.error) {
    // The ring stops at the first failure: the saves queued behind it never
    // touched media — consume their skipped outcomes and drop them. The
    // failed slot holds an unknown mix of old and new chunks; forget it.
    cache_full_[static_cast<std::size_t>(p.slot)] = false;
    note_slot_commit(p.slot, false);
    while (!pending_.empty()) {
      const DrainOutcome skipped = backend_.take_drain_outcome();
      ADCC_CHECK(skipped.skipped && skipped.version == pending_.front().version,
                 "drain ring ran a job queued behind a failure");
      cache_full_[static_cast<std::size_t>(pending_.front().slot)] = false;
      // Dropped unstarted: the slot image is intact, but the predictive
      // commit bit set at its enqueue no longer holds.
      note_slot_commit(pending_.front().slot, false);
      pending_.pop_front();
    }
    backend_.acknowledge_drain_failure();
    auto& cache = slot_crcs_[static_cast<std::size_t>(p.slot)];
    if (cache) cache->assign(cache->size(), std::nullopt);
    // Roll back to just before the failed save so a retry targets the same
    // uncommitted slot; the dropped younger saves never happened.
    version_ = p.version - 1;
    committed_slot_ = durable_slot_;
    // The durable slot factually holds a commit — unless the failed save was
    // an in-place rewrite of that very slot, which is now torn.
    if (durable_slot_ >= 0 && durable_slot_ != p.slot) note_slot_commit(durable_slot_, true);
    std::rethrow_exception(outcome.error);
  }
  ADCC_CHECK(!outcome.skipped && outcome.receipt.has_value(),
             "drain ring skipped a save with no preceding failure");
  const SaveReceipt& receipt = *outcome.receipt;
  save_stats_ = {receipt.written, receipt.skipped, receipt.stamped, receipt.payload_bytes};
  committed_slot_ = durable_slot_ = outcome.slot;
  cache_full_[static_cast<std::size_t>(outcome.slot)] = true;
  note_slot_commit(outcome.slot, true);
}

std::uint64_t CheckpointSet::wait_durable() {
  while (!pending_.empty()) complete_oldest();
  return version_;
}

void CheckpointSet::abort_async() noexcept {
  if (pending_.empty()) return;
  const Pending front = pending_.front();
  backend_.abort_drain();
  // Only the oldest in-flight save may have touched media — it may even have
  // fully committed before the cancel landed; the durable marker is the
  // arbiter. Every younger queued save died unstarted, slots untouched.
  bool front_committed = false;
  try {
    const auto [slot, ver] = backend_.latest();
    front_committed = slot == front.slot && ver == front.version;
  } catch (...) {
  }
  for (const Pending& p : pending_) {
    // The predictive eligibility set at enqueue no longer holds for dropped
    // saves (their slots keep their PRE-enqueue images).
    cache_full_[static_cast<std::size_t>(p.slot)] = false;
    note_slot_commit(p.slot, false);
  }
  pending_.clear();
  if (front_committed) {
    version_ = front.version;
    committed_slot_ = durable_slot_ = front.slot;
    cache_full_[static_cast<std::size_t>(front.slot)] = true;
    note_slot_commit(front.slot, true);
  } else {
    // The front save died mid-drain: its slot is detectably torn.
    auto& cache = slot_crcs_[static_cast<std::size_t>(front.slot)];
    if (cache) cache->assign(cache->size(), std::nullopt);
    version_ = front.version - 1;
    committed_slot_ = durable_slot_;
    // The durable slot's image is intact unless the torn front save was an
    // in-place rewrite of that very slot.
    if (durable_slot_ >= 0 && durable_slot_ != front.slot) {
      note_slot_commit(durable_slot_, true);
    }
  }
}

std::uint64_t CheckpointSet::restore() {
  ADCC_CHECK(!objs_.empty(), "no objects registered");
  // Restoring implies a crash: a drain still in flight dies with the power
  // (inject_crash normally aborted it already; this covers direct callers).
  abort_async();
  frozen_ = true;
  restore_stats_ = {};
  const auto [slot, ver] = backend_.latest();
  const bool dirty = backend_.chunk_config().dirty_commit;

  // Classify the slot(s) a save may have been writing when the power failed:
  // every slot except the committed one — plus, under dirty_commit, the
  // committed slot itself (an in-place save tears the committed image; torn
  // evidence there counts against the MARKER version, since the slot's own
  // header may already belong to the interrupted save). The same scan sizes
  // up the salvage candidate: an interrupted save that finished every chunk
  // write before the crash.
  int cand_slot = -1;
  TornProbe cand{};
  for (int s = 0; s < kSlotCount; ++s) {
    const bool is_committed = ver != 0 && s == slot;
    if (is_committed && !dirty) continue;
    const TornProbe probe = is_committed ? backend_.probe_torn(s, objs_, ver)
                                         : backend_.probe_torn(s, objs_);
    restore_stats_.chunks_probed += probe.chunks_probed;
    restore_stats_.torn_chunks += probe.torn_chunks;
    if (probe.salvage_ready && probe.salvage_version > ver &&
        (cand_slot < 0 || probe.salvage_version > cand.salvage_version)) {
      cand_slot = s;
      cand = probe;
    }
  }

  ChunkHooks hooks;
  hooks.point = point_hook_;

  // Torn-slot salvage: recover the interrupted save (strictly newer than the
  // marker's checkpoint) and re-commit it. Payload verification can still
  // fail — then the committed checkpoint below is the answer (it rewrites
  // every object the salvage attempt may have partially overwritten).
  if (cand_slot >= 0) {
    const std::uint64_t before = backend_.stats().chunks_loaded;
    try {
      const std::uint64_t got =
          backend_.load_salvage(cand_slot, cand.salvage_version, objs_, hooks);
      backend_.recommit(cand_slot, got);
      restore_stats_.version = got;
      restore_stats_.chunks_loaded =
          static_cast<std::size_t>(backend_.stats().chunks_loaded - before);
      restore_stats_.salvaged_chunks = cand.salvage_chunks;
      // The salvaged save's chunks are recovered, not lost: they no longer
      // count as torn evidence.
      restore_stats_.torn_chunks -= std::min(restore_stats_.torn_chunks, cand.torn_chunks);
      version_ = got;
      committed_slot_ = durable_slot_ = cand_slot;
      note_slot_commit(cand_slot, true);
      return got;
    } catch (const TornCheckpoint&) {
    }
  }

  if (ver == 0) return 0;

  const std::uint64_t before = backend_.stats().chunks_loaded;
  try {
    const std::uint64_t loaded = backend_.load(slot, objs_, hooks);
    restore_stats_.version = loaded;
    restore_stats_.chunks_loaded =
        static_cast<std::size_t>(backend_.stats().chunks_loaded - before);
    version_ = loaded;
    committed_slot_ = durable_slot_ = slot;
    note_slot_commit(slot, true);
    return loaded;
  } catch (const TornCheckpoint&) {
    // Under dirty_commit a crash mid-in-place-save tears the committed slot
    // itself. The aged image in the other slot is the fallback — loaded and
    // re-committed so the marker is coherent again. Returning an OLDER
    // version than the marker knew is the documented dirty-commit trade.
    if (!dirty) throw;
    for (int s = 0; s < kSlotCount; ++s) {
      if (s == slot) continue;
      const std::uint64_t start = backend_.stats().chunks_loaded;
      try {
        const std::uint64_t old = backend_.load(s, objs_, hooks);
        backend_.recommit(s, old);
        restore_stats_.version = old;
        restore_stats_.chunks_loaded =
            static_cast<std::size_t>(backend_.stats().chunks_loaded - start);
        version_ = old;
        committed_slot_ = durable_slot_ = s;
        note_slot_commit(s, true);
        note_slot_commit(slot, false);  // The marker slot the load found torn.
        return old;
      } catch (const CheckpointError&) {
        continue;
      }
    }
    throw;
  }
}

std::uint64_t CheckpointSet::restore_version(std::uint64_t want) {
  ADCC_CHECK(!objs_.empty(), "no objects registered");
  abort_async();
  frozen_ = true;
  restore_stats_ = {};
  if (want == 0) {
    // Rewinding to "before the first commit": nothing durable is trusted, the
    // caller reinitializes, and the version realigns so the next save is 1.
    version_ = 0;
    committed_slot_ = durable_slot_ = -1;
    // Pre-rewind images must not serve as dirty-commit fallbacks: their
    // versions belong to the abandoned history.
    slot_has_commit_.fill(false);
    return 0;
  }
  // The marker's version may be older than the backend's newest commit (the
  // shard saved ahead of a global commit the crash interrupted); scan the slot
  // headers for the one whose committed image is exactly `want`.
  const auto [latest_slot, latest_ver] = backend_.latest();
  int found = -1;
  if (latest_ver == want) {
    found = latest_slot;
  } else {
    for (int s = 0; s < kSlotCount; ++s) {
      SlotHeader h{};
      if (backend_.read_image(s, {reinterpret_cast<std::byte*>(&h), sizeof(h)}) != sizeof(h)) {
        continue;
      }
      if (h.magic != kSlotMagic || slot_header_crc(h) != h.header_crc) continue;
      if (h.version == want) {
        found = s;
        break;
      }
    }
  }
  ADCC_CHECK(found >= 0, "no committed slot holds the requested checkpoint version");
  // Classify the remaining slot(s) for torn-save evidence, as restore() does.
  for (int s = 0; s < kSlotCount; ++s) {
    if (s == found) continue;
    const TornProbe probe = backend_.probe_torn(s, objs_);
    restore_stats_.chunks_probed += probe.chunks_probed;
    restore_stats_.torn_chunks += probe.torn_chunks;
  }
  ChunkHooks hooks;
  hooks.point = point_hook_;
  const std::uint64_t before = backend_.stats().chunks_loaded;
  const std::uint64_t loaded = backend_.load(found, objs_, hooks);
  ADCC_CHECK(loaded == want, "slot header version does not match its committed image");
  restore_stats_.version = loaded;
  restore_stats_.chunks_loaded =
      static_cast<std::size_t>(backend_.stats().chunks_loaded - before);
  version_ = loaded;
  committed_slot_ = durable_slot_ = found;
  note_slot_commit(found, true);
  return loaded;
}

}  // namespace adcc::checkpoint

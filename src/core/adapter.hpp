// AdapterBase — the generic durability glue of the cg, mm and mc registry
// adapters, written once. The checkpoint and undo-log baselines the paper
// compares against are the same for every algorithm, so their bookkeeping
// lives here: the run cursor, the fault surface, the checkpoint set, the
// pmem-tx heap and log, and the prepare / power-cut / recovery steps around
// them. An adapter keeps only what belongs to its algorithm: its objects,
// kernels, sizing, invariants and recovery reasoning.
//
// core::ShardGroup runs three of these steps per shard (building a checkpoint
// set, cutting an engine's power, folding restore stats) through the free
// helpers below, which the base uses too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "checkpoint/checkpoint_set.hpp"
#include "common/check.hpp"
#include "common/options.hpp"
#include "core/fault.hpp"
#include "core/shard.hpp"
#include "core/workload.hpp"
#include "pmemtx/tx.hpp"

namespace adcc::core {

/// A checkpoint set on `backend` whose crash points (ckpt_chunk, ckpt_stage,
/// ckpt_drain, ckpt_restore, ...) fire through `fault`, so crash plans land
/// inside save and restore too.
std::unique_ptr<checkpoint::CheckpointSet> make_checkpoint_set(checkpoint::Backend& backend,
                                                               FaultSurface& fault);

/// What a power failure takes from one durability engine in flight: the
/// checkpoint drain is cut off first (the chunks it already pushed are the
/// torn slot recovery classifies), then the env's staged-but-undrained DRAM
/// cache contents die. Either argument may be null.
void drop_in_flight(checkpoint::CheckpointSet* ckpt, ModeEnv* env);

/// Adds the last restore's torn-classifier probes, torn chunks and salvaged
/// chunks to `rec`.
void add_restore_stats(WorkloadRecovery& rec, const checkpoint::CheckpointSet& ckpt);

/// The base of the cg/mm/mc adapters: one engine per durability family,
/// selected at prepare() from the mode.
class AdapterBase : public Workload {
 public:
  std::size_t units_done() const override { return done_; }

  /// Joins an in-flight async checkpoint drain (--ckpt_async); the other
  /// engines are durable the moment make_durable returns.
  void wait_durable() override {
    if (ckpt_) ckpt_->wait_durable();
  }
  bool durability_pending() const override { return ckpt_ && ckpt_->async_pending(); }
  FaultSurface* fault() override { return &fault_; }

  /// pmem-tx: the undo log's counters (null before a pmem-tx prepare).
  const pmemtx::UndoLogStats* tx_log_stats() const { return log_ ? &log_->stats() : nullptr; }

 protected:
  /// The prepare() prologue: binds `env`, rewinds the cursor, resets the
  /// fault surface and selects the engine. The checkpoint engine gets a fresh
  /// set in ckpt_ (the adapter registers its objects); the previous mode's set
  /// is dropped either way, since its backend dies with the old env and a
  /// stale async_pending flag must not leak into this run. `cache_bytes` > 0
  /// (--cache_mb) runs the alg-* engine under the crash emulator and is
  /// rejected for every other engine.
  void begin_prepare(ModeEnv& env, std::size_t cache_bytes, std::size_t cache_ways);

  /// The inject_crash() prologue: records the cursor at the crash, drops the
  /// in-flight drain and DRAM staging, and — emulated — leaves the arena
  /// holding only what NVM held. The adapter then clobbers its volatile state.
  void begin_crash();

  /// Restores the newest recoverable checkpoint into the registered objects
  /// and folds its stats into `rec`; returns its version (0 = none).
  std::uint64_t restore_checkpoint(WorkloadRecovery& rec);

  /// The recover() epilogue: the run restarts after the recovered cursor, and
  /// the units between it and the crash are lost on top of any the adapter
  /// counted itself.
  WorkloadRecovery finish_recovery(WorkloadRecovery rec) const;

  ModeEnv* env_ = nullptr;
  DurabilityKind engine_ = DurabilityKind::kNone;
  FaultSurface fault_;            ///< Mid-unit crash surface (emulated: alg + cache_mb).
  std::size_t done_ = 0;          ///< Completed work units.
  std::size_t crashed_done_ = 0;  ///< done_ at the last inject_crash.
  std::unique_ptr<checkpoint::CheckpointSet> ckpt_;  ///< Checkpoint engine only.
  std::unique_ptr<pmemtx::PersistentHeap> heap_;     ///< pmem-tx engine only.
  std::unique_ptr<pmemtx::UndoLog> log_;
};

/// The registry factory shared by the adapters: a single-rank W over `cfg`,
/// or with --shards > 1 a ShardGroup running Plan's partition of it, with W
/// as the fallback for the modes a group does not decompose. The crash
/// emulator runs only on the single-rank engine.
template <typename W, typename Plan, typename Config>
std::unique_ptr<Workload> make_adapter(const Options& opts, const Config& cfg) {
  const std::size_t shards = opts.get_size("shards", 1);
  if (shards <= 1) return std::make_unique<W>(cfg);
  ADCC_CHECK(cfg.cache_bytes == 0,
             "cache_mb: the crash emulator runs only under unsharded alg-* engines");
  return std::make_unique<ShardGroup>(std::make_unique<Plan>(cfg), ShardGroupConfig{shards},
                                      [cfg]() -> std::unique_ptr<Workload> {
                                        return std::make_unique<W>(cfg);
                                      });
}

}  // namespace adcc::core

// Multi-shard execution engine: domain-decomposed workloads under coordinated
// global snapshots with k-of-N crash recovery.
//
// A ShardGroup runs one workload as N in-process shards, each owning a
// contiguous partition of the problem (CG row blocks, MM panel tiles, MC
// particle-bank ranges) and — in checkpoint modes — a private CheckpointSet on
// a private backend (own slot files / arena namespace). Work units advance
// phase-major: every shard completes phase p of unit u before any shard starts
// phase p+1, with inter-shard data flowing through the deterministic
// ShardExchange (publish/fetch keyed by unit x tag x shard). Durability is a
// two-level protocol: per-shard saves (reusing the chunked sync/async drain
// engine unchanged), then a *global* epoch commit by the GroupCoordinator that
// joins every shard's drain and only then writes the tiny global marker naming
// the committed per-shard slot versions (see coordinator.hpp for the
// commit-ordering invariant).
//
// Crash scopes (scenario.hpp's shard:/shards:/coord: plan families):
//   - kShards: only the victim shards lose state. Survivors keep their live
//     partitions and are never recomputed; each victim reloads the marker's
//     version of its own slot (restore_version) and replays its local units
//     from the retained exchange log — the halo traffic of that replay is the
//     reported halo_bytes.
//   - kProcess / kCoordinator: a whole-group power failure (the coordinator
//     dying mid-commit takes every shard's volatile state with it). Recovery
//     re-reads the durable marker and rolls every shard back to the last
//     fully committed global epoch.
//
// Phase discipline (tick-before-mutate): a ShardPart fires ALL of a phase's
// fault-surface sites at phase entry, before mutating any state. A mid-phase
// crash therefore leaves every shard consistent at a phase boundary, so
// re-execution (and victim-only replay) recomputes interrupted phases safely.
//
// Scope cuts, by design: transaction and algorithm-directed modes keep their
// single-rank engines (the group transparently falls back to the unsharded
// workload — their durability actions are interleaved with the kernels and do
// not decompose along the snapshot protocol), and the sharded MM path is plain
// tiled GEMM without the ABFT checksum augmentation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "checkpoint/checkpoint_set.hpp"
#include "core/coordinator.hpp"
#include "core/fault.hpp"
#include "core/workload.hpp"

namespace adcc::core {

/// Deterministic inter-shard mailbox. Values are published per (unit, tag,
/// shard) and re-published idempotently during replay (a deterministic shard
/// republishes identical bytes). Entries are retained until the group trims
/// them at a global commit — a victim's replay of units newer than the last
/// committed epoch fetches survivors' original publications from here instead
/// of recomputing the survivors.
class ShardExchange {
 public:
  void publish(std::size_t unit, std::string tag, std::size_t shard, std::vector<double> value);

  /// Fetches a publication; aborts if absent (a protocol bug — phase ordering
  /// guarantees producers run before consumers). Accounts the fetched bytes
  /// (the group's halo-traffic metric).
  std::span<const double> fetch(std::size_t unit, const std::string& tag, std::size_t shard);

  /// Drops every entry with unit <= `upto` (they precede the committed epoch,
  /// so no replay can need them).
  void trim(std::size_t upto);

  void clear();
  std::size_t entries() const { return entries_.size(); }
  std::size_t fetched_bytes() const { return fetched_bytes_; }

 private:
  using Key = std::tuple<std::size_t, std::string, std::size_t>;
  std::map<Key, std::vector<double>> entries_;
  std::size_t fetched_bytes_ = 0;
};

/// One shard's partition of a workload: its state, its phase kernels, and its
/// checkpoint registration. Created fresh by the plan at every prepare().
class ShardPart {
 public:
  virtual ~ShardPart() = default;

  /// Initializes partition state and registers durable objects with `ckpt`
  /// (nullptr in native mode — no registration).
  virtual void prepare(checkpoint::CheckpointSet* ckpt) = 0;

  /// Executes phase `phase` of unit `unit` (both advance phase-major under the
  /// group). MUST fire all fault-surface sites before the first state
  /// mutation (tick-before-mutate; see the file comment).
  virtual void compute(std::size_t unit, std::size_t phase, ShardExchange& exchange) = 0;

  /// Mirrors volatile progress into the registered durable objects just
  /// before the shard's save of epoch `unit`; idempotent.
  virtual void on_save(std::size_t unit) = 0;

  /// Power failure: destroys all volatile partition state.
  virtual void clobber() = 0;

  /// Realigns state after a restore: `units_done == 0` re-initializes to the
  /// initial partition (nothing durable survived); otherwise the checkpoint
  /// load already rewrote the registered objects and this re-derives any
  /// volatile mirrors (and may cross-check the stored unit cursor).
  virtual void restored(std::size_t units_done) = 0;
};

/// A workload's decomposition recipe: problem instance (shared, immutable),
/// partitioning, and verification across parts.
class ShardPlan {
 public:
  virtual ~ShardPlan() = default;

  virtual std::string name() const = 0;
  virtual std::size_t work_units() const = 0;

  /// Phases per work unit (CG: 4 — publish/spmv/update/direction; MM, MC: 1).
  virtual std::size_t phases() const = 0;

  virtual std::unique_ptr<ShardPart> make_part(std::size_t index, std::size_t count,
                                               FaultSurface& fault) = 0;

  /// Checks the assembled final answer across all parts against an
  /// independent reference.
  virtual bool verify(const std::vector<ShardPart*>& parts) = 0;

  /// Sizes the per-shard substrate (arena/slot bytes) for `count` shards; the
  /// same sizing also hosts the coordinator's marker on the main env.
  virtual void tune_env(Mode mode, ModeEnvConfig& cfg, std::size_t count) const = 0;
};

/// Group shape: the shard count.
struct ShardGroupConfig {
  std::size_t shards = 1;
};

/// The Workload implementation that runs a ShardPlan as a coordinated group.
/// In transaction/algorithm modes (or shards <= 1) it transparently delegates
/// to the unsharded workload built by `fallback`.
class ShardGroup final : public Workload {
 public:
  using FallbackFactory = std::function<std::unique_ptr<Workload>()>;

  ShardGroup(std::unique_ptr<ShardPlan> plan, ShardGroupConfig cfg, FallbackFactory fallback);
  ~ShardGroup() override;

  std::string name() const override;
  std::size_t work_units() const override;
  std::size_t units_done() const override;
  void prepare(ModeEnv& env) override;
  bool run_step() override;
  void make_durable() override;
  void wait_durable() override;
  bool durability_pending() const override;
  void inject_crash() override;
  WorkloadRecovery recover() override;
  bool verify() override;
  void tune_env(Mode mode, ModeEnvConfig& cfg) const override;
  FaultSurface* fault() override;
  std::size_t shard_count() const override;
  void set_crash_scope(const CrashScope& scope) override;

  // Introspection for tests and probes.
  bool sharded() const { return !use_fallback_; }
  std::size_t phases() const;
  GroupCoordinator* coordinator() { return coordinator_.get(); }
  checkpoint::Backend* shard_backend(std::size_t i) { return shard_envs_[i]->backend.get(); }
  std::uint64_t shard_exec_steps(std::size_t i) const { return exec_steps_[i]; }
  ShardExchange& exchange() { return exchange_; }

 private:
  Workload& ensure_fallback() const;
  void commit_pending();
  /// Re-executes shard `i`'s units (from, done_] through every phase against
  /// the retained exchange; returns the number of units replayed.
  std::size_t replay(std::size_t i, std::size_t from);
  /// Re-forms the group's global commit at epoch done_ after a k-of-N
  /// recovery: resaves any shard whose epoch-done_ image was lost or never
  /// taken, then commits — repairing the marker lag so the double buffer
  /// protects the restored state again.
  void reform_commit();

  std::unique_ptr<ShardPlan> plan_;
  ShardGroupConfig cfg_;
  FallbackFactory fallback_factory_;
  mutable std::unique_ptr<Workload> fallback_;
  bool use_fallback_ = true;

  ModeEnv* env_ = nullptr;
  DurabilityKind kind_ = DurabilityKind::kNone;
  bool async_ = false;
  FaultSurface fault_;
  ShardExchange exchange_;
  CrashScope scope_;

  std::vector<std::unique_ptr<ModeEnv>> shard_envs_;
  std::vector<std::unique_ptr<checkpoint::CheckpointSet>> ckpts_;
  std::vector<std::unique_ptr<ShardPart>> parts_;
  std::unique_ptr<GroupCoordinator> coordinator_;

  std::size_t done_ = 0;          ///< Completed work units (group-wide).
  std::size_t crashed_done_ = 0;  ///< done_ at the moment of the last crash.
  std::vector<std::size_t> progress_;    ///< Per shard: phase-steps completed.
  std::vector<std::uint64_t> exec_steps_;  ///< Per shard: compute() calls (incl. replay).
  std::vector<std::size_t> last_saved_epoch_;  ///< Per shard: epoch of the last save taken.
  std::vector<std::uint64_t> saved_version_;   ///< ...and the slot version it produced.
  std::optional<std::size_t> pending_epoch_;   ///< Async: epoch saved but not yet committed.
};

}  // namespace adcc::core

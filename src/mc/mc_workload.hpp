// XSBench-equivalent Monte-Carlo transport as a core::Workload.
//
// Work unit: one durability interval (`interval` lookups; the paper flushes
// every 0.01 % of lookups). The restart state is the paper's trio —
// macro_xs_vector, the five tally counters, and the progress counter — made
// durable per unit by the mode's mechanism: nothing (native), a checkpoint
// (ckpt-*), an undo-log transaction (pmem-tx), or three flushed cache lines
// (alg-*, Fig. 11 line 9). Lookups accumulate into the volatile working copy;
// make_durable publishes it to the mode's durable snapshot, so a mid-unit
// crash (FaultSurface sites after every lookup) can never leak a partial
// interval into the restart state — the same boundary-snapshot discipline
// XsCrashConsistent uses under the simulator. Lookup inputs are counter-based
// RNG draws, so crashed and crash-free runs are exactly comparable — verify()
// checks the final tallies against a no-crash native reference bit-for-bit.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>

#include "checkpoint/checkpoint_set.hpp"
#include "common/options.hpp"
#include "core/fault.hpp"
#include "core/registry.hpp"
#include "core/workload.hpp"
#include "mc/mc_ckpt.hpp"
#include "pmemtx/tx.hpp"

namespace adcc::mc {

struct McWorkloadConfig {
  XsConfig data;
  std::uint64_t lookups = 100'000;
  std::uint64_t interval = 10;  ///< Lookups per durability unit.
  std::uint64_t seed = 5;
};

McWorkloadConfig mc_workload_config(const Options& opts);

class McWorkload final : public core::Workload {
 public:
  explicit McWorkload(const McWorkloadConfig& cfg);

  std::string name() const override { return "mc"; }
  std::size_t work_units() const override { return units_; }
  std::size_t units_done() const override { return done_; }
  void prepare(core::ModeEnv& env) override;
  bool run_step() override;
  void make_durable() override;
  void wait_durable() override;
  bool durability_pending() const override;
  void inject_crash() override;
  core::WorkloadRecovery recover() override;
  bool verify() override;
  void tune_env(core::Mode mode, core::ModeEnvConfig& cfg) const override;
  core::FaultSurface* fault() override { return &fault_; }

  /// Final tallies; valid once the run completed.
  Tally tally() const;

 private:
  McWorkloadConfig cfg_;
  XsDataHost data_;
  CounterRng rng_;
  std::size_t units_ = 0;
  std::optional<Tally> reference_;

  core::ModeEnv* env_ = nullptr;
  core::DurabilityKind engine_ = core::DurabilityKind::kNone;
  core::FaultSurface fault_;  ///< Software-counted mid-unit crash surface.
  std::size_t done_ = 0;
  std::size_t crashed_done_ = 0;
  std::uint64_t scratch_index_ = 0;  ///< Live lookup cursor for run_xs_range.

  // Volatile working copy (all engines accumulate here; dies with the power).
  std::array<double, kChannels> macro_{};
  std::array<std::uint64_t, kChannels> counters_{};
  std::uint64_t durable_units_ = 0;  ///< Checkpointed progress scalar.
  std::unique_ptr<checkpoint::CheckpointSet> ckpt_;

  // pmem-tx state.
  std::unique_ptr<pmemtx::PersistentHeap> heap_;
  std::unique_ptr<pmemtx::UndoLog> log_;

  // tx / alg durable boundary snapshots (heap or arena), written only by
  // make_durable so no partial interval can reach them.
  std::span<double> pmacro_;
  std::span<std::uint64_t> pcounters_;
  std::span<std::uint64_t> punits_;
};

}  // namespace adcc::mc

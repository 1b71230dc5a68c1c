// XSBench-equivalent Monte-Carlo transport as a core::Workload.
//
// Work unit: one durability interval (`interval` lookups; the paper flushes
// every 0.01 % of lookups). The restart state is the paper's trio —
// macro_xs_vector, the five tally counters, and the progress counter — made
// durable per unit by the mode's mechanism: nothing (native), a checkpoint
// (ckpt-*), an undo-log transaction (pmem-tx), or flushed cache lines
// (alg-*). Lookups accumulate into the working copy (DRAM, or the NVM arena
// under alg-*); make_durable publishes it to the mode's durable boundary
// snapshot, so a mid-unit crash (FaultSurface sites after every lookup) can
// never leak a partial interval into the restart state. Lookup inputs are
// counter-based RNG draws, so crashed and crash-free runs are exactly
// comparable — verify() checks the final tallies against a no-crash native
// reference bit-for-bit.
//
// The alg-* engines take a flush policy (--policy):
//   selective — Fig. 11: per unit, publish macro_xs_vector and the counters to
//               their snapshot lines and flush them with the progress line;
//               recovery restarts from the snapshot, losing at most one unit.
//   basic     — Fig. 9's "basic idea": flush only the progress line and trust
//               MC's statistics; recovery keeps whatever working tallies the
//               arena held. Under the crash emulator (--cache_mb) those are
//               the stale lines NVM kept, so the tallies diverge (Fig. 10);
//               on the host-memory arena a mid-unit crash keeps the
//               interrupted unit's lookups, which the restart counts again.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "common/options.hpp"
#include "core/adapter.hpp"
#include "mc/mc_ckpt.hpp"

namespace adcc::mc {

/// The alg-* engines' durability scheme (see the file comment).
enum class XsFlushPolicy { kBasicIdea, kSelective };

struct McWorkloadConfig {
  XsConfig data;
  std::uint64_t lookups = 100'000;
  std::uint64_t interval = 10;  ///< Lookups per durability unit.
  std::uint64_t seed = 5;
  /// alg-* flush policy (--policy); unset means selective, and a set policy
  /// is rejected outside the alg-* modes.
  std::optional<XsFlushPolicy> policy;
  /// > 0: the alg-* engines run under the crash emulator with an LRU cache of
  /// this many bytes (--cache_mb); 0 keeps the arena in host memory.
  std::size_t cache_bytes = 0;
  std::size_t cache_ways = 16;  ///< Emulated cache associativity.
};

/// Builds the config from CLI options (--lookups, --interval, --nuclides,
/// --gridpoints, --seed, --policy, --cache_mb, --quick).
McWorkloadConfig mc_workload_config(const Options& opts);

class McWorkload final : public core::AdapterBase {
 public:
  explicit McWorkload(const McWorkloadConfig& cfg);

  /// Crash site after every lookup.
  static constexpr const char* kPointLookupEnd = "xs:lookup_end";

  std::string name() const override { return "mc"; }
  std::size_t work_units() const override { return units_; }
  void prepare(core::ModeEnv& env) override;
  bool run_step() override;
  void make_durable() override;
  void inject_crash() override;
  core::WorkloadRecovery recover() override;
  bool verify() override;
  void tune_env(core::Mode mode, core::ModeEnvConfig& cfg) const override;

  /// Final tallies; valid once the run completed (alg-*: while the run's
  /// ModeEnv, whose arena holds them, lives).
  Tally tally() const;

 private:
  bool selective() const {
    return cfg_.policy.value_or(XsFlushPolicy::kSelective) == XsFlushPolicy::kSelective;
  }
  void alg_publish();
  void alg_announce_lookup(std::uint64_t i);

  McWorkloadConfig cfg_;
  XsDataHost data_;
  CounterRng rng_;
  std::size_t units_ = 0;
  std::optional<Tally> reference_;

  std::uint64_t scratch_index_ = 0;  ///< Live lookup cursor for run_xs_range.
  std::vector<std::size_t> probes_;  ///< Emulated runs: grid-search probe replay.

  // Working copy every engine accumulates into: the DRAM arrays (dying with
  // the power), or under alg-* the NVM arena.
  std::array<double, kChannels> dram_macro_{};
  std::array<std::uint64_t, kChannels> dram_counters_{};
  std::span<double> macro_;
  std::span<std::uint64_t> counters_;
  std::uint64_t durable_units_ = 0;  ///< Checkpointed progress scalar.

  // tx / alg durable boundary snapshots (heap or arena), written only by
  // make_durable so no partial interval can reach them.
  std::span<double> pmacro_;
  std::span<std::uint64_t> pcounters_;
  std::span<std::uint64_t> punits_;
};

}  // namespace adcc::mc

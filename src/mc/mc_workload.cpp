// The per-lookup loop of run_step and the adapter's other loops start on
// 32-byte boundaries, so their timing does not move with the size of earlier
// translation units (see kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "mc/mc_workload.hpp"

#include <algorithm>
#include <cstring>

#include "common/align.hpp"
#include "common/check.hpp"
#include "core/registry.hpp"
#include "core/telemetry.hpp"
#include "mc/mc_shard.hpp"

namespace adcc::mc {

namespace {
// Element accesses one lookup announces to the software fault surface: the
// grid probes, per-nuclide interpolation reads and the tally update. An
// approximation — determinism, not exactness, is what the triggers need.
constexpr std::uint64_t kLookupAccessEstimate = 48;

// pmem-tx heap sizing: the three restart objects fit in a few lines, and the
// log holds one snapshot of each plus entry headers.
constexpr std::size_t kTxDataBytes = 16 * kCacheLine;
constexpr std::size_t kTxLogBytes = 64 * kCacheLine;
}  // namespace

McWorkloadConfig mc_workload_config(const Options& opts) {
  const bool quick = opts.get_bool("quick");
  McWorkloadConfig cfg;
  cfg.data.n_nuclides = opts.get_size("nuclides", quick ? 16 : 68);
  cfg.data.gridpoints_per_nuclide = opts.get_size("gridpoints", quick ? 300 : 2000);
  cfg.lookups = opts.get_size("lookups", quick ? 20'000 : 100'000);
  // Default durability density: the paper's 0.01 % of lookups (quick runs use
  // 0.5 % so the disk scheme stays CI-sized).
  cfg.interval = opts.get_size(
      "interval", std::max<std::uint64_t>(1, cfg.lookups / (quick ? 200 : 10'000)));
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 5));
  if (opts.has("policy")) {
    const std::string policy = opts.get("policy", "");
    ADCC_CHECK(policy == "basic" || policy == "selective",
               "policy: want basic | selective (every lookup is selective with interval=1)");
    cfg.policy = policy == "basic" ? XsFlushPolicy::kBasicIdea : XsFlushPolicy::kSelective;
  }
  cfg.cache_bytes = opts.get_size("cache_mb", 0) << 20;
  return cfg;
}

McWorkload::McWorkload(const McWorkloadConfig& cfg)
    : cfg_(cfg), data_(cfg.data), rng_(cfg.seed) {
  ADCC_CHECK(cfg_.lookups > 0 && cfg_.interval > 0, "bad MC workload shape");
  units_ = static_cast<std::size_t>((cfg_.lookups + cfg_.interval - 1) / cfg_.interval);
}

void McWorkload::tune_env(core::Mode mode, core::ModeEnvConfig& env) const {
  (void)mode;
  env.arena_bytes = 4u << 20;
  env.slot_bytes = 64u << 10;
}

void McWorkload::prepare(core::ModeEnv& env) {
  begin_prepare(env, cfg_.cache_bytes, cfg_.cache_ways);
  ADCC_CHECK(!cfg_.policy || engine_ == core::DurabilityKind::kAlgorithm,
             "policy: only the mc alg-* engines have a flush policy");
  dram_macro_.fill(0.0);
  dram_counters_.fill(0);
  macro_ = dram_macro_;
  counters_ = dram_counters_;
  durable_units_ = 0;
  scratch_index_ = 0;

  switch (engine_) {
    case core::DurabilityKind::kNone:
      break;
    case core::DurabilityKind::kCheckpoint:
      ckpt_->add("macro_xs", macro_.data(), macro_.size_bytes());
      ckpt_->add("counters", counters_.data(), counters_.size_bytes());
      ckpt_->add("units", &durable_units_, sizeof(durable_units_));
      break;
    case core::DurabilityKind::kTransaction:
      heap_ = std::make_unique<pmemtx::PersistentHeap>(kTxDataBytes, kTxLogBytes, *env.perf);
      pmacro_ = heap_->allocate<double>(kChannels);
      pcounters_ = heap_->allocate<std::uint64_t>(kChannels);
      punits_ = heap_->allocate<std::uint64_t>(1);
      std::memset(pmacro_.data(), 0, pmacro_.size_bytes());
      std::memset(pcounters_.data(), 0, pcounters_.size_bytes());
      punits_[0] = 0;
      heap_->region().persist(pmacro_.data(), pmacro_.size_bytes());
      heap_->region().persist(pcounters_.data(), pcounters_.size_bytes());
      heap_->region().persist(punits_.data(), punits_.size_bytes());
      log_ = std::make_unique<pmemtx::UndoLog>(*heap_);
      break;
    case core::DurabilityKind::kAlgorithm:
      macro_ = env.region->allocate<double>(kChannels);
      counters_ = env.region->allocate<std::uint64_t>(kChannels);
      pmacro_ = env.region->allocate<double>(kChannels);
      pcounters_ = env.region->allocate<std::uint64_t>(kChannels);
      punits_ = env.region->allocate<std::uint64_t>(kCacheLine / sizeof(std::uint64_t));
      if (fault_.emulated()) {
        // Registration order places the regions in the cache model.
        fault_.track_input("xs.unionized", std::span<const double>(data_.unionized_energy()));
        fault_.track_input("xs.index_grid", std::span<const std::int32_t>(data_.index_grid()));
        fault_.track_input("xs.nuclide_grids",
                           std::span<const NuclideGridPoint>(data_.nuclide_grids()));
        fault_.track("xs.macro_xs", macro_);
        fault_.track("xs.counters", counters_);
        fault_.track("xs.macro_xs.snap", pmacro_);
        fault_.track("xs.counters.snap", pcounters_);
        fault_.track("xs.progress", punits_);
      }
      std::fill(macro_.begin(), macro_.end(), 0.0);
      std::fill(counters_.begin(), counters_.end(), 0);
      alg_publish();  // The zero boundary state.
      break;
  }
}

void McWorkload::alg_publish() {
  // Fig. 11 line 9 (selective): macro_xs_vector and the five counters to
  // their boundary snapshot lines, flushed with the progress line — three
  // cache lines per unit. The basic idea flushes the progress line alone.
  // Every write is announced before any flush, so an emulated access crash
  // never leaves a half-published boundary in NVM.
  nvm::NvmRegion& region = *env_->region;
  if (selective()) {
    std::copy(macro_.begin(), macro_.end(), pmacro_.begin());
    std::copy(counters_.begin(), counters_.end(), pcounters_.begin());
    fault_.write(pmacro_);
    fault_.write(pcounters_);
  }
  punits_[0] = done_;
  fault_.write(punits_.data(), sizeof(std::uint64_t));
  if (selective()) {
    fault_.persist(region, pmacro_.data(), pmacro_.size_bytes());
    fault_.persist(region, pcounters_.data(), pcounters_.size_bytes());
  }
  fault_.persist(region, punits_.data(), sizeof(std::uint64_t));
}

void McWorkload::alg_announce_lookup(std::uint64_t i) {
  // Lookup i's traffic, replayed after the kernel ran it: the grid-search
  // probes, each nuclide's index-grid cell and gridpoint pair, the
  // macro_xs_vector accumulate and the one counter the tally selected.
  const LookupSample s = sample_lookup(rng_, i, data_);
  probes_.clear();
  const std::size_t u = grid_search(data_.unionized_energy(), s.energy, &probes_);
  for (const std::size_t p : probes_) fault_.read(&data_.unionized_energy()[p], sizeof(double));
  const std::size_t nn = data_.config().n_nuclides;
  const std::size_t gp = data_.config().gridpoints_per_nuclide;
  for (const auto& [nuc, density] : data_.material(s.material)) {
    (void)density;
    const std::size_t cell = u * nn + static_cast<std::size_t>(nuc);
    fault_.read(&data_.index_grid()[cell], sizeof(std::int32_t));
    const std::size_t pos = static_cast<std::size_t>(nuc) * gp +
                            static_cast<std::size_t>(data_.index_grid()[cell]);
    fault_.read(&data_.nuclide_grids()[pos], 2 * sizeof(NuclideGridPoint));
  }
  fault_.read(macro_);
  fault_.write(macro_);
  const auto type =
      static_cast<std::size_t>(tally_select(macro_.data(), rng_.uniform(i, /*lane=*/2)));
  fault_.read(&counters_[type], sizeof(std::uint64_t));
  fault_.write(&counters_[type], sizeof(std::uint64_t));
}

bool McWorkload::run_step() {
  if (done_ >= units_) return false;
  const std::uint64_t begin = static_cast<std::uint64_t>(done_) * cfg_.interval;
  const std::uint64_t end = std::min(cfg_.lookups, begin + cfg_.interval);
  // All engines accumulate into the volatile working copy, one lookup at a
  // time with a fault-surface site after each (Fig. 9's per-lookup "end of
  // statement" granularity); make_durable publishes the interval boundary.
  // Timed around the interval, not per lookup: each lookup is ~100ns.
  const core::StageTimer timer("kernel/xs");
  for (std::uint64_t i = begin; i < end; ++i) {
    run_xs_range(data_, rng_, i, i + 1, macro_.data(), counters_.data(), &scratch_index_);
    if (fault_.emulated()) alg_announce_lookup(i);
    fault_.tick(kLookupAccessEstimate);
    fault_.point(kPointLookupEnd);
  }
  // Silent-corruption targets: the tally counters (guarded by the sum
  // invariant make_durable checks before publishing) and the macro-XS
  // accumulator (no invariant covers it — a flip there is an honest miss).
  fault_.corrupt("mc:counters", counters_);
  fault_.corrupt("mc:macro", macro_);
  ++done_;
  return true;
}

void McWorkload::make_durable() {
  // Tally-invariant silent-fault detection, BEFORE anything is published:
  // every completed lookup increments exactly one channel counter, so the
  // counter sum must equal the lookups completed so far. The order matters —
  // publishing first would persist the corruption into the durable snapshot,
  // turning every later rollback into a detect-again loop. Gated on
  // flip_active() (one relaxed load) so fail-stop runs pay nothing.
  if (fault_.flip_active()) {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counters_) sum += c;
    const std::uint64_t expect = std::min<std::uint64_t>(
        cfg_.lookups, static_cast<std::uint64_t>(done_) * cfg_.interval);
    if (sum != expect) {
      throw core::SilentFaultDetected("mc:tally", done_, fault_.access_count());
    }
  }
  switch (engine_) {
    case core::DurabilityKind::kNone:
      break;  // Test case 1: no durability mechanism at all.
    case core::DurabilityKind::kCheckpoint:
      durable_units_ = done_;
      ckpt_->save();
      break;
    case core::DurabilityKind::kTransaction: {
      // One undo-log transaction per interval — the PMEM-library equivalent
      // of checkpointing the three restart objects. The snapshots are taken
      // before the copy, so a crash mid-publish rolls back to the previous
      // boundary.
      pmemtx::Transaction tx(*log_);
      tx.add(pmacro_);
      tx.add(pcounters_);
      tx.add(punits_);
      std::copy(macro_.begin(), macro_.end(), pmacro_.begin());
      std::copy(counters_.begin(), counters_.end(), pcounters_.begin());
      punits_[0] = done_;
      tx.commit();
      break;
    }
    case core::DurabilityKind::kAlgorithm:
      alg_publish();
      break;
  }
}

void McWorkload::inject_crash() {
  begin_crash();
  // The DRAM working copy dies with the power, and the durable snapshot
  // (checkpoint / heap / arena) is all recovery may read. Under alg-* the
  // working copy is arena memory: it keeps every store, or emulated only
  // what NVM held.
  dram_macro_.fill(0.0);
  dram_counters_.fill(0);
  durable_units_ = 0;
}

core::WorkloadRecovery McWorkload::recover() {
  core::WorkloadRecovery rec;
  switch (engine_) {
    case core::DurabilityKind::kNone:
      done_ = 0;  // Nothing durable: replay from the first lookup.
      break;
    case core::DurabilityKind::kCheckpoint:
      done_ = restore_checkpoint(rec) != 0 ? static_cast<std::size_t>(durable_units_) : 0;
      break;
    case core::DurabilityKind::kTransaction:
      log_->recover();  // Rolls back an uncommitted transaction, if any.
      std::copy(pmacro_.begin(), pmacro_.end(), macro_.begin());
      std::copy(pcounters_.begin(), pcounters_.end(), counters_.begin());
      done_ = static_cast<std::size_t>(punits_[0]);
      break;
    case core::DurabilityKind::kAlgorithm:
      // Selective restarts from the boundary snapshot; the basic idea keeps
      // the working tallies the arena held.
      if (selective()) {
        std::copy(pmacro_.begin(), pmacro_.end(), macro_.begin());
        std::copy(pcounters_.begin(), pcounters_.end(), counters_.begin());
        fault_.write(macro_);
        fault_.write(counters_);
      }
      done_ = static_cast<std::size_t>(punits_[0]);
      break;
  }
  return finish_recovery(rec);
}

Tally McWorkload::tally() const {
  Tally t;
  for (int c = 0; c < kChannels; ++c) {
    t.counts[static_cast<std::size_t>(c)] = counters_[static_cast<std::size_t>(c)];
  }
  return t;
}

bool McWorkload::verify() {
  ADCC_CHECK(done_ == units_, "verify requires a completed run");
  if (!reference_) reference_ = run_xs_native(data_, cfg_.lookups, cfg_.seed);
  // Lookup inputs are pure functions of (seed, index), so every mode — crashed
  // or not — must reproduce the native tallies exactly.
  return tally().counts == reference_->counts;
}

ADCC_REGISTER_WORKLOAD(
    "mc", "XSBench-equivalent Monte-Carlo transport (paper SIII-D, Figs. 9-13)",
    [](const Options& opts) {
      const McWorkloadConfig cfg = mc_workload_config(opts);
      ADCC_CHECK(!cfg.policy || opts.get_size("shards", 1) <= 1,
                 "policy: flush policies run only under unsharded alg-* engines");
      return core::make_adapter<McWorkload, McShardPlan>(opts, cfg);
    });

}  // namespace adcc::mc

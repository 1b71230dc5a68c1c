// CG as a core::Workload — one adapter covering all seven durability modes.
//
// Work unit: one CG iteration (the paper's durability granule for §III-B).
// Per-mode engines (the only implementation of each scheme; fig4 and every
// sweep measure these):
//   native       — cg_step on volatile state, no durability action
//   ckpt-*       — cg_step + per-iteration CheckpointSet::save of p/r/z/scalars
//   pmem-tx      — each iteration one undo-log transaction on a PersistentHeap
//   alg-*        — Fig. 2 history arrays in the NVM arena; the only per-unit
//                  durability action is flushing the iteration-counter line,
//                  and recovery re-derives the restart point from the Eq. 1/2
//                  invariants against the durable rows.
// With cache_mb the alg-* engine runs under the crash emulator (the Fig. 3
// experiments): the arena keeps only lines the counter flush or a cache
// eviction persisted, so a crash loses the iterations whose rows were still
// cache-resident. Without it the arena is host memory and keeps every store.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cg/cg.hpp"
#include "common/options.hpp"
#include "core/adapter.hpp"

namespace adcc::cg {

struct CgWorkloadConfig {
  std::size_t n = 14000;            ///< System rows (fig4 --quick default).
  std::size_t nz_per_row = 15;      ///< Off-diagonal nonzeros per row.
  std::size_t iters = 15;           ///< Fixed trip count (work units).
  std::uint64_t matrix_seed = 42;
  std::uint64_t rhs_seed = 43;
  double invariant_rel_tol = 1e-6;  ///< Eq. 1/2 detection tolerance.
  double verify_rel_tol = 1e-8;     ///< Solution-vs-reference tolerance.
  /// > 0: the alg-* engines run under the crash emulator with an LRU cache of
  /// this many bytes (--cache_mb); 0 keeps the arena in host memory.
  std::size_t cache_bytes = 0;
  std::size_t cache_ways = 16;      ///< Emulated cache associativity.
};

/// Builds the config from CLI options (--n, --nz, --class, --iters,
/// --cache_mb, --quick). --class=S|W|A|B|C takes n and nz from the NPB class
/// (linalg::shape_of); an explicit --n or --nz wins over it.
CgWorkloadConfig cg_workload_config(const Options& opts);

class CgWorkload final : public core::AdapterBase {
 public:
  explicit CgWorkload(const CgWorkloadConfig& cfg);

  /// Crash sites of every engine: Fig. 2 line 10 (p updated) and the end of
  /// the iteration's compute, before its durability action.
  static constexpr const char* kPointPUpdated = "cg:p_updated";
  static constexpr const char* kPointIterEnd = "cg:iter_end";

  std::string name() const override { return "cg"; }
  std::size_t work_units() const override { return cfg_.iters; }
  void prepare(core::ModeEnv& env) override;
  bool run_step() override;
  void make_durable() override;
  void inject_crash() override;
  core::WorkloadRecovery recover() override;
  bool verify() override;
  void tune_env(core::Mode mode, core::ModeEnvConfig& cfg) const override;

  /// Current solution estimate (valid once the run completed).
  std::vector<double> solution() const;

  const linalg::CsrMatrix& matrix() const { return a_; }

 private:
  std::span<double> row(std::span<double> arr, std::size_t r) const {
    return arr.subspan(r * cfg_.n, cfg_.n);
  }
  std::span<const double> crow(std::span<const double> arr, std::size_t r) const {
    return arr.subspan(r * cfg_.n, cfg_.n);
  }
  void alg_write_initial_rows();
  void alg_announce_iteration(std::size_t i);
  bool alg_rows_consistent(std::size_t j) const;

  CgWorkloadConfig cfg_;
  linalg::CsrMatrix a_;
  std::vector<double> b_;
  std::optional<CgResult> reference_;

  // native / ckpt-* state.
  CgState state_;
  struct CkptScalars {
    double rho = 0.0;
    std::uint64_t iter = 0;
  };
  CkptScalars ckpt_scalars_;

  // pmem-tx state.
  std::span<double> tx_p_, tx_r_, tx_z_, tx_scalars_;
  std::vector<double> tx_q_;
  double tx_rho_ = 0.0;

  // alg-* state: Fig. 2 history arrays (iteration-major rows, row 0 unused).
  std::span<double> hp_, hq_, hr_, hz_;
  std::span<std::int64_t> counter_;
  double alg_rho_ = 0.0;
};

/// Arena bytes the alg-* engines need for an n-row system at `iters`.
std::size_t cg_workload_arena_bytes(std::size_t n, std::size_t iters);

}  // namespace adcc::cg

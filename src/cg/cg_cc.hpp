// Algorithm-directed crash-consistent CG (paper §III-B, Figs. 2–4).
//
// Extension (Fig. 2): the four iteration vectors become 2-D history arrays
// (one row per iteration), and the only durability action taken at runtime is
// flushing the single cache line holding the iteration counter. The hardware
// cache's own evictions opportunistically persist older rows.
//
// Recovery: starting from the durable iteration counter c, scan j = c … 0 and
// test, against the NVM (durable) image only,
//     (Eq. 1)  p(j+1)ᵀ · q(j) = 0        — conjugacy of consecutive directions
//     (Eq. 2)  r(j+1) = b − A · z(j+1)   — residual identity
// The first j passing both is resumable: re-execute from iteration j+1.
//
// CgCrashConsistent runs the scheme under memsim (the Fig. 3 recomputation
// experiments, the cg-sim workload). The full-speed variant with a real
// flush of the counter line (Fig. 4 runtime) is CgWorkload's alg-* engine.
#pragma once

#include <memory>
#include <optional>

#include "cg/cg.hpp"
#include "memsim/tracked.hpp"

namespace adcc::cg {

struct CgCcConfig {
  std::size_t n_iters = 15;            ///< Fixed trip count of the main loop.
  memsim::CacheConfig cache;           ///< Simulated volatility boundary.
  double invariant_rel_tol = 1e-6;     ///< Relative tolerance for Eq. 1/2.
};

/// Outcome of one recovery (the Fig. 3 breakdown).
struct CgRecovery {
  std::size_t crash_iter = 0;     ///< Iteration the crash interrupted (1-based).
  std::size_t restart_iter = 0;   ///< First iteration re-executed (1-based).
  std::size_t iters_lost = 0;     ///< crash_iter − restart_iter + 1.
  std::size_t candidates_checked = 0;
  double detect_seconds = 0.0;    ///< "Detecting where to restart".
  double resume_seconds = 0.0;    ///< "Resuming computation time".
};

class CgCrashConsistent {
 public:
  CgCrashConsistent(const linalg::CsrMatrix& a, std::span<const double> b,
                    const CgCcConfig& cfg);

  /// Arm a crash via sim().scheduler() before calling run(). Returns true if
  /// the run was interrupted by a simulated crash.
  bool run();

  /// Executes the next iteration (writing the initial state lazily before
  /// iteration 1). Returns false once the trip count is reached. An armed
  /// crash trigger propagates memsim::CrashException to the caller, with
  /// crash_iter() recorded — the step-wise surface ScenarioRunner drives.
  bool step();

  /// After a crash: detect the resumable iteration from NVM, reload state, and
  /// re-execute up to (and including) the crashed iteration.
  CgRecovery recover_and_resume();

  /// Detection + reload only (phase 1 of recover_and_resume): scans the
  /// durable invariants, reloads live state from NVM, and rewinds the
  /// iteration cursor to restart_iter − 1 so step() re-executes the lost
  /// iterations. The reload time is pre-charged to resume_seconds.
  CgRecovery begin_recovery();

  /// The iteration the last crash interrupted (1-based; 0 before any crash).
  std::size_t crash_iter() const { return crash_iter_; }

  /// Continues normal execution to the configured trip count (post-recovery).
  void finish();

  /// Solution estimate (z row of the last completed iteration).
  std::vector<double> solution() const;

  /// Mean wall-clock seconds of an instrumented iteration (normalizer for the
  /// Fig. 3 ratios).
  double avg_iter_seconds() const;

  std::size_t completed_iters() const { return completed_; }
  memsim::MemorySimulator& sim() { return sim_; }

  /// Crash-point names fired by the iteration body, for scheduler arming.
  static constexpr const char* kPointPUpdated = "cg:p_updated";  ///< Fig. 2 line 10.
  static constexpr const char* kPointIterEnd = "cg:iter_end";

 private:
  std::span<double> row(memsim::TrackedArray<double>& arr, std::size_t r);
  std::span<const double> row(const memsim::TrackedArray<double>& arr, std::size_t r) const;
  void write_initial_state();
  void iteration(std::size_t i);
  void spmv_instrumented(std::size_t p_row, std::size_t q_row);
  bool check_invariants_durable(std::size_t j, std::vector<double>& scratch_p,
                                std::vector<double>& scratch_q, std::vector<double>& scratch_r,
                                std::vector<double>& scratch_z,
                                std::vector<double>& scratch_az) const;

  const linalg::CsrMatrix& a_;
  std::vector<double> b_host_;
  CgCcConfig cfg_;
  std::size_t n_;

  memsim::MemorySimulator sim_;
  // History arrays, iteration-major: row r at offset r*n. Rows 0 unused so the
  // paper's 1-based iteration indexing maps directly.
  memsim::TrackedArray<double> p_, q_, r_, z_;
  memsim::TrackedArray<double> b_;  ///< Read-only region (cache pressure).
  memsim::TrackedArray<double> a_values_;
  memsim::TrackedArray<std::uint32_t> a_colidx_;
  std::unique_ptr<memsim::TrackedScalar<std::int64_t>> iter_;

  double rho_ = 0.0;
  bool started_ = false;
  std::size_t completed_ = 0;
  std::size_t crash_iter_ = 0;
  double iter_seconds_sum_ = 0.0;
  std::size_t iter_seconds_count_ = 0;
};

}  // namespace adcc::cg

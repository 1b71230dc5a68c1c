// Algorithm-directed crash-consistent ABFT matrix multiplication
// (paper §III-C, Figs. 6–8).
//
// The original rank-k ABFT GEMM (Fig. 5) cannot reason about crashes: Cf is
// overwritten every iteration and its checksums are only valid at iteration
// boundaries. The paper's extension (Fig. 6) decomposes the product into
//
//   Loop 1 — submatrix multiplications:  Cᵗᵉᵐᵖ_s = Ac(:, panel_s) · Br(panel_s, :)
//            each a full-checksum matrix whose checksum row+column are
//            CLFLUSHed once the panel is complete;
//   Loop 2 — submatrix additions: Cᵗᵉᵐᵖ accumulated k rows at a time with its
//            row checksums CLFLUSHed per block.
//
// Checksums, once durable, are never overwritten, so at recovery they reliably
// classify every temporal matrix / row block as consistent, correctable, or
// lost (→ recompute). Additionally a progress-counter line is flushed per
// iteration (the same single-line trick as Fig. 2's line 3; the paper leaves
// this bookkeeping implicit), distinguishing "not yet computed" from
// "computed and consistent" for all-zero data.
//
// MmCrashConsistent runs the scheme under memsim (the Fig. 7 recomputation
// experiments, the mm-sim workload). The full-speed variant (Fig. 8 runtime)
// is MmWorkload's alg-* engine.
#pragma once

#include <memory>
#include <vector>

#include "abft/abft_gemm.hpp"
#include "memsim/tracked.hpp"

namespace adcc::mm {

struct MmCcConfig {
  std::size_t n = 1024;             ///< Square matrix dimension.
  std::size_t rank_k = 128;         ///< Panel width (paper sweeps 200/400/1000).
  memsim::CacheConfig cache;        ///< Simulated volatility boundary.
  abft::ChecksumTolerance tol;
};

/// Fig. 7 outcome for one crash test.
struct MmRecovery {
  int crash_phase = 0;              ///< 1 = loop 1, 2 = loop 2.
  std::size_t crash_unit = 0;       ///< Interrupted iteration (1-based).
  std::size_t units_recomputed = 0; ///< Submatrix multiplications or additions redone.
  std::size_t units_corrected = 0;  ///< Units repaired purely from checksums.
  std::size_t candidates_checked = 0;
  double detect_seconds = 0.0;
  double resume_seconds = 0.0;
};

class MmCrashConsistent {
 public:
  MmCrashConsistent(const linalg::Matrix& a, const linalg::Matrix& b, const MmCcConfig& cfg);

  /// Arm a crash via sim().scheduler() first; returns true if it fired.
  bool run();

  /// Executes the next unit — loop-1 panels first, then loop-2 blocks.
  /// Returns false once both loops are done. An armed crash trigger
  /// propagates memsim::CrashException (the ScenarioRunner surface).
  bool step();

  /// Detects inconsistent units from the durable image, repairs or recomputes
  /// them, and completes the product.
  MmRecovery recover_and_resume();

  /// Detection + catch-up only (recover_and_resume minus the never-executed
  /// trailing units): classifies every completed unit from the durable image,
  /// repairs correctable ones, recomputes lost ones, and leaves the unit
  /// cursor at the crash point so step() continues the run. The repair work's
  /// wall time is pre-charged to resume_seconds.
  MmRecovery begin_recovery();

  /// Completed units (loop-1 multiplications + loop-2 additions).
  std::size_t units_done() const { return done_mults_ + done_adds_; }

  /// The n×n product (checksums stripped). Valid after run()/recover.
  linalg::Matrix result() const;

  std::size_t num_panels() const { return panels_; }
  std::size_t num_blocks() const { return blocks_; }
  double avg_mult_seconds() const;  ///< Normalizer for loop-1 recomputation.
  double avg_add_seconds() const;   ///< Normalizer for loop-2 recomputation.
  memsim::MemorySimulator& sim() { return sim_; }

  static constexpr const char* kPointMultEnd = "mm:loop1_end";
  static constexpr const char* kPointAddEnd = "mm:loop2_end";

  /// Fault injection (tests / demos): overwrite one data element of temporal
  /// matrix `s` (1-based) in both the live and durable images *without*
  /// updating its checksums — the single-element inconsistency checksum
  /// correction is designed to repair.
  void corrupt_element_for_test(std::size_t s, std::size_t i, std::size_t j, double value);

 private:
  std::size_t rows_of_panel(std::size_t s) const;  ///< Panel width (last may be short).
  void multiply_panel(std::size_t s);              ///< Loop-1 body (1-based s).
  void add_block(std::size_t blk);                 ///< Loop-2 body (1-based blk).
  void flush_full_checksums(memsim::TrackedArray<double>& m);
  bool durable_full_consistent(const memsim::TrackedArray<double>& m,
                               linalg::Matrix& scratch) const;

  MmCcConfig cfg_;
  std::size_t nc_;      ///< n + 1 (checksum dimension).
  std::size_t panels_;  ///< ceil(n / rank_k) — loop-1 trip count.
  std::size_t blocks_;  ///< ceil(nc / rank_k) — loop-2 trip count.

  linalg::Matrix ac_host_, br_host_;  ///< Encoded inputs (host copies).
  memsim::MemorySimulator sim_;
  memsim::TrackedArray<double> ac_, br_;  ///< Read-only regions.
  std::vector<std::unique_ptr<memsim::TrackedArray<double>>> ctemp_s_;
  memsim::TrackedArray<double> ctemp_;
  std::unique_ptr<memsim::TrackedScalar<std::int64_t>> progress_;  ///< phase*1M + unit.

  /// Both loops complete. Derived from the unit counters (not a latched flag)
  /// so a crash at the very last crash point — after the counters advanced but
  /// before any flag assignment could run — still reads as finished once
  /// recovery restores the durable counters.
  bool finished() const { return done_mults_ == panels_ && done_adds_ == blocks_; }

  std::size_t done_mults_ = 0;
  std::size_t done_adds_ = 0;
  double mult_seconds_ = 0.0;
  double add_seconds_ = 0.0;
};

}  // namespace adcc::mm

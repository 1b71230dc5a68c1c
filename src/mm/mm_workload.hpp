// ABFT matrix multiplication as a core::Workload.
//
// Work units are mode-dependent, matching the paper's durability granules:
//   native/ckpt/tx — one submatrix multiplication (rank-k panel) per unit;
//                    native replicates Fig. 5 (checksum verification at the
//                    top of every panel), the fig8 baseline.
//   alg-*          — Fig. 6's two loops: `panels` multiplication units with
//                    checksum-line flushes, then `blocks` addition units with
//                    row-checksum flushes; the progress-counter line is the
//                    per-unit flush.
// Algorithm-mode recovery classifies every completed unit from the durable
// image (Fig. 7): a temporal matrix or row block whose checksums hold is
// consistent, a single-element error is corrected from the checksums, and
// anything else is lost and recomputed in place — durable checksums are never
// overwritten, so the run resumes at the durable progress counter. With
// cache_mb the alg-* engine runs under the crash emulator, where a crash
// loses the temporal lines still resident in the cache; without it the arena
// is host memory and keeps every store.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "abft/checksum.hpp"
#include "common/options.hpp"
#include "core/adapter.hpp"

namespace adcc::mm {

struct MmWorkloadConfig {
  std::size_t n = 500;            ///< Square matrix dimension (fig8 --quick).
  std::size_t rank_k = 50;        ///< Panel width.
  std::uint64_t seed_a = 3;
  std::uint64_t seed_b = 4;
  abft::ChecksumTolerance tol;
  double verify_rel_tol = 1e-8;
  /// > 0: the alg-* engines run under the crash emulator with an LRU cache of
  /// this many bytes (--cache_mb); 0 keeps the arena in host memory.
  std::size_t cache_bytes = 0;
  std::size_t cache_ways = 16;    ///< Emulated cache associativity.
};

/// Builds the config from CLI options (--n, --rank, --seed, --cache_mb,
/// --quick).
MmWorkloadConfig mm_workload_config(const Options& opts);

class MmWorkload final : public core::AdapterBase {
 public:
  explicit MmWorkload(const MmWorkloadConfig& cfg);

  /// Crash sites: the end of a submatrix multiplication (Loop 1) / addition
  /// (Loop 2), before its durability action.
  static constexpr const char* kPointMultEnd = "mm:loop1_end";
  static constexpr const char* kPointAddEnd = "mm:loop2_end";

  std::string name() const override { return "mm"; }
  std::size_t work_units() const override;
  void prepare(core::ModeEnv& env) override;
  bool run_step() override;
  void make_durable() override;
  void inject_crash() override;
  core::WorkloadRecovery recover() override;
  bool verify() override;
  void tune_env(core::Mode mode, core::ModeEnvConfig& cfg) const override;

  std::size_t num_panels() const { return panels_; }

  /// The n×n product (checksums stripped); valid once the run completed.
  linalg::Matrix result() const;

 private:
  void multiply_panel_into(std::size_t s, double* out, bool accumulate) const;
  bool alg_temporal_consistent(std::size_t s) const;
  bool alg_temporal_correct(std::size_t s);
  bool alg_block_consistent(std::size_t blk) const;
  void alg_multiply(std::size_t s);
  void alg_add_block(std::size_t blk);
  void alg_persist_unit(std::size_t unit);

  MmWorkloadConfig cfg_;
  std::size_t nc_ = 0;      ///< n + 1 (checksum dimension).
  std::size_t panels_ = 0;  ///< ceil(n / rank_k).
  std::size_t blocks_ = 0;  ///< ceil(nc / rank_k), alg loop 2.
  linalg::Matrix ac_, br_;  ///< Encoded inputs (immutable).
  std::optional<linalg::Matrix> reference_;

  // native / ckpt state.
  linalg::Matrix cf_;
  std::uint64_t ckpt_step_ = 0;

  // pmem-tx state.
  std::span<double> tx_cf_;
  std::span<std::uint64_t> tx_step_;

  // alg-* state (Fig. 6 temporal matrices in the NVM arena).
  std::vector<std::span<double>> ctemp_s_;
  std::span<double> ctemp_;
  std::span<std::int64_t> progress_;
};

}  // namespace adcc::mm

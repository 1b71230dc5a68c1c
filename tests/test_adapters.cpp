// Exact per-mode properties of the seven durability modes, asserted on the
// workload adapters every sweep, fig binary and benchmark measures
// (cg::CgWorkload, mm::MmWorkload, mc::McWorkload): bit-identical answers
// across checkpoint/restore, per-unit undo-log and flush traffic, and the
// NVM-bandwidth charge split between the checkpoint media. Runs go through
// ScenarioRunner; where a check needs the mode substrate the runner owns, the
// test drives prepare/run_step/make_durable over core::make_env itself.
#include <gtest/gtest.h>

#include <filesystem>

#include "cg/cg_workload.hpp"
#include "common/check.hpp"
#include "core/scenario.hpp"
#include "linalg/gemm.hpp"
#include "linalg/spgen.hpp"
#include "linalg/vec_ops.hpp"
#include "mc/mc_workload.hpp"
#include "mm/mm_workload.hpp"

namespace adcc::core {
namespace {

constexpr Mode kCkptModes[] = {Mode::kCkptDisk, Mode::kCkptNvm, Mode::kCkptHetero};

ModeEnvConfig env_config(const Workload& w, Mode mode) {
  ModeEnvConfig ec;
  ec.scratch_dir = std::filesystem::temp_directory_path() / "adcc_adapter_test";
  ec.disk_throttle_bytes_per_s = 0;  // No HDD emulation: fast tests.
  ec.dram_bw_bytes_per_s = 10e9;     // Fixed charge basis, no calibration sweep.
  w.tune_env(mode, ec);
  return ec;
}

ScenarioConfig scenario(const Workload& w, Mode mode, const char* crash = "none") {
  ScenarioConfig cfg;
  cfg.mode = mode;
  cfg.env = env_config(w, mode);
  cfg.crash = parse_crash_or_throw(crash);
  cfg.verify = true;
  return cfg;
}

/// One crash-free run over an env the test owns.
void run_to_end(Workload& w, ModeEnv& env) {
  w.prepare(env);
  while (w.run_step()) w.make_durable();
  w.wait_durable();
}

// ------------------------------------------------------------------- CG --

cg::CgWorkloadConfig cg_config(std::size_t n, std::size_t iters) {
  cg::CgWorkloadConfig cfg;
  cfg.n = n;
  cfg.nz_per_row = 9;
  cfg.iters = iters;
  return cfg;
}

std::vector<double> cg_reference(const cg::CgWorkloadConfig& cfg) {
  const linalg::CsrMatrix a = linalg::make_spd(cfg.n, cfg.nz_per_row, cfg.matrix_seed);
  const std::vector<double> b = linalg::make_rhs(cfg.n, cfg.rhs_seed);
  return cg::cg_solve(a, b, cfg.iters).x;
}

TEST(CgAdapter, CheckpointModesMatchCgSolveBitForBit) {
  // A checkpoint holds p, r, z and the scalars, so a restore continues the
  // exact op sequence: crash-free and crashed runs both reproduce cg_solve.
  const std::size_t iters = 12;
  const cg::CgWorkloadConfig cfg = cg_config(400, iters);
  const std::vector<double> ref = cg_reference(cfg);
  cg::CgWorkload w(cfg);
  for (Mode m : kCkptModes) {
    ModeEnv env = make_env(m, env_config(w, m));
    run_to_end(w, env);
    EXPECT_TRUE(w.verify()) << mode_name(m);
    EXPECT_EQ(w.solution(), ref) << mode_name(m);
    EXPECT_EQ(env.backend->stats().saves, iters) << mode_name(m);  // One per iteration.

    ScenarioRunner runner(w, scenario(w, m, "step:7"));
    EXPECT_TRUE(runner.run().verified) << mode_name(m) << " step:7";
    EXPECT_EQ(w.solution(), ref) << mode_name(m) << " step:7";
  }
}

TEST(CgAdapter, CrashBeforeTheFirstCheckpointRestartsFromScratch) {
  const cg::CgWorkloadConfig cfg = cg_config(200, 6);
  cg::CgWorkload w(cfg);
  ModeEnv env = make_env(Mode::kCkptNvm, env_config(w, Mode::kCkptNvm));
  w.prepare(env);
  ASSERT_TRUE(w.run_step());  // Unit 1 computed, never checkpointed.
  w.inject_crash();
  const WorkloadRecovery rec = w.recover();
  EXPECT_EQ(rec.restart_unit, 1u);
  EXPECT_EQ(rec.units_lost, 1u);
  while (w.run_step()) w.make_durable();
  EXPECT_EQ(w.solution(), cg_reference(cfg));
}

TEST(CgAdapter, PmemTxMatchesCgSolveAndLogsThreeVectorsPlusScalars) {
  const std::size_t n = 200, iters = 8;
  const cg::CgWorkloadConfig cfg = cg_config(n, iters);
  cg::CgWorkload w(cfg);
  ScenarioRunner runner(w, scenario(w, Mode::kPmemTx));
  EXPECT_TRUE(runner.run().verified);
  EXPECT_EQ(w.solution(), cg_reference(cfg));
  const pmemtx::UndoLogStats* log = w.tx_log_stats();
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->transactions, iters);
  EXPECT_EQ(log->ranges_logged, iters * 4);
  // Per iteration: p, r and z (n doubles each) plus the two scalars.
  EXPECT_EQ(log->bytes_logged, iters * (3 * n * sizeof(double) + 16));
}

TEST(CgAdapter, AlgNvmFlushesOneCounterLinePerIteration) {
  const std::size_t iters = 12;
  const cg::CgWorkloadConfig cfg = cg_config(600, iters);
  cg::CgWorkload w(cfg);
  ModeEnv env = make_env(Mode::kAlgNvm, env_config(w, Mode::kAlgNvm));
  w.prepare(env);
  const nvm::RegionStats before = env.region->stats();
  while (w.run_step()) w.make_durable();
  EXPECT_EQ(env.region->stats().persist_calls - before.persist_calls, iters);
  EXPECT_EQ(env.region->stats().persisted_lines - before.persisted_lines, iters);
  EXPECT_LT(linalg::max_abs_diff(w.solution(), cg_reference(cfg)), 1e-12);
}

TEST(CgAdapter, HeteroCheckpointChargesNvmBandwidthNvmOnlyDoesNot) {
  // ckpt-nvm/dram pays the NVM bandwidth gap for the checkpoint traffic — the
  // cost structure behind Fig. 4's middle bars — while ckpt-nvm models NVM as
  // fast as DRAM. Asserted on the perf model's deterministic injected-delay
  // accounting, not on noisy wall time.
  const std::size_t n = 20000, iters = 3;
  cg::CgWorkload w(cg_config(n, iters));
  double injected[2] = {};
  int i = 0;
  for (Mode m : {Mode::kCkptNvm, Mode::kCkptHetero}) {
    ModeEnvConfig ec = env_config(w, m);
    ec.dram_cache_bytes = 1u << 20;
    ec.nvm_bandwidth_slowdown = 16.0;  // Exaggerate for a robust assertion.
    ec.dram_bw_bytes_per_s = 1e9;      // Deterministic charge basis.
    ModeEnv env = make_env(m, ec);
    run_to_end(w, env);
    EXPECT_TRUE(w.verify()) << mode_name(m);
    injected[i++] = env.perf->stats().injected_seconds;
  }
  EXPECT_DOUBLE_EQ(injected[0], 0.0);
  // Hetero pays about bytes x 15 / 1e9 per save.
  const double expected = static_cast<double>(3 * n * sizeof(double) + 64) * iters * 15.0 / 1e9;
  EXPECT_GT(injected[1], 0.8 * expected);
}

TEST(CgAdapter, ClassOptionSetsTheNpbShapeUnlessNIsExplicit) {
  Options opts;
  opts.set("quick", "1").set("class", "A");
  cg::CgWorkloadConfig cfg = cg::cg_workload_config(opts);
  EXPECT_EQ(cfg.n, 14000u);
  EXPECT_EQ(cfg.nz_per_row, 11u);

  opts.set("n", "3000");
  cfg = cg::cg_workload_config(opts);
  EXPECT_EQ(cfg.n, 3000u);
  EXPECT_EQ(cfg.nz_per_row, 11u);
}

TEST(CgAdapter, UnknownClassIsRejectedNamingTheKey) {
  Options opts;
  opts.set("class", "Q");
  try {
    cg::cg_workload_config(opts);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--class: 'Q'"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------------------- MM --

mm::MmWorkloadConfig mm_config(std::size_t n, std::size_t rank_k) {
  mm::MmWorkloadConfig cfg;
  cfg.n = n;
  cfg.rank_k = rank_k;
  return cfg;
}

linalg::Matrix mm_reference(const mm::MmWorkloadConfig& cfg) {
  linalg::Matrix a(cfg.n, cfg.n), b(cfg.n, cfg.n), c(cfg.n, cfg.n);
  a.fill_random(cfg.seed_a, -1, 1);
  b.fill_random(cfg.seed_b, -1, 1);
  linalg::gemm_reference(a, b, c);
  return c;
}

TEST(MmAdapter, AllSevenModesMatchGemmReference) {
  // The native engine is Fig. 5's rank-k ABFT GEMM; every shape runs all seven
  // modes: ranks that divide n and ranks that do not, rank 1 and one panel.
  struct Shape {
    std::size_t n, rank_k;
  };
  for (const Shape shape : {Shape{48, 16}, Shape{24, 8}, Shape{8, 1}, Shape{16, 4},
                            Shape{20, 7}, Shape{32, 8}, Shape{33, 8}, Shape{48, 48}}) {
    const std::size_t n = shape.n, rank_k = shape.rank_k;
    SCOPED_TRACE("n=" + std::to_string(n) + " rank=" + std::to_string(rank_k));
    const mm::MmWorkloadConfig cfg = mm_config(n, rank_k);
    const linalg::Matrix ref = mm_reference(cfg);
    mm::MmWorkload w(cfg);
    const std::size_t panels = (n + rank_k - 1) / rank_k;
    for (Mode m : all_modes()) {
      ModeEnv env = make_env(m, env_config(w, m));
      run_to_end(w, env);
      EXPECT_TRUE(w.verify()) << mode_name(m);
      EXPECT_LT(linalg::Matrix::max_abs_diff(w.result(), ref), 1e-10) << mode_name(m);
      // Checkpoint modes save the accumulator once per panel.
      if (env.backend) {
        EXPECT_EQ(env.backend->stats().saves, panels) << mode_name(m);
      }
      if (durability_kind(m) == DurabilityKind::kAlgorithm) {
        // Fig. 6's checksum flushes: per loop-1 panel the checksum row (one
        // call) and the nc checksum-column entries, in loop 2 every row's
        // checksum once; plus the progress counter after each unit and once
        // in prepare().
        const std::size_t nc = n + 1, blocks = (nc + rank_k - 1) / rank_k;
        EXPECT_EQ(env.region->stats().persist_calls,
                  panels * (1 + nc + 1) + (nc + blocks) + 1)
            << mode_name(m);
        EXPECT_GT(env.region->stats().persisted_lines, 0u) << mode_name(m);
      }
    }
  }
}

TEST(MmAdapter, PmemTxLogsTheWholeAccumulatorPerPanel) {
  const std::size_t n = 40;
  const mm::MmWorkloadConfig cfg = mm_config(n, 10);  // 4 panels.
  mm::MmWorkload w(cfg);
  ModeEnv env = make_env(Mode::kPmemTx, env_config(w, Mode::kPmemTx));
  run_to_end(w, env);
  EXPECT_LT(linalg::Matrix::max_abs_diff(w.result(), mm_reference(cfg)), 1e-10);
  const pmemtx::UndoLogStats* log = w.tx_log_stats();
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->transactions, 4u);
  // Per panel: the full (n+1)^2 checksum accumulator plus the step counter.
  EXPECT_EQ(log->bytes_logged, 4u * ((n + 1) * (n + 1) * sizeof(double) + 8));
}

// ------------------------------------------------------------------- MC --

mc::McWorkloadConfig mc_config() {
  mc::McWorkloadConfig cfg;
  cfg.data.n_nuclides = 12;
  cfg.data.gridpoints_per_nuclide = 256;
  cfg.data.seed = 5;
  cfg.lookups = 3000;
  cfg.interval = 30;  // 100 units.
  cfg.seed = 9;
  return cfg;
}

TEST(McAdapter, AllSevenModesMatchNativeTalliesExactly) {
  // Every mode runs the identical lookup kernel; they differ only in how the
  // restart state is made durable per interval.
  const mc::McWorkloadConfig cfg = mc_config();
  const std::uint64_t units = cfg.lookups / cfg.interval;
  const mc::Tally native = mc::run_xs_native(mc::XsDataHost(cfg.data), cfg.lookups, cfg.seed);
  mc::McWorkload w(cfg);
  for (Mode m : all_modes()) {
    ModeEnv env = make_env(m, env_config(w, m));
    run_to_end(w, env);
    EXPECT_EQ(w.tally().counts, native.counts) << mode_name(m);
    if (env.backend) {
      EXPECT_EQ(env.backend->stats().saves, units) << mode_name(m);
    }
    if (durability_kind(m) == DurabilityKind::kAlgorithm) {
      // Fig. 11 line 9: three flushed lines per interval, after the three
      // initial persists of prepare().
      EXPECT_EQ(env.region->stats().persist_calls, 3 * (units + 1)) << mode_name(m);
    }
  }
}

TEST(McAdapter, AllInteractionTypesRoughlyEquallyLikely) {
  // The paper's no-crash observation (Fig. 10, left bars ~20 % each).
  mc::XsConfig data;
  data.n_nuclides = 12;
  data.gridpoints_per_nuclide = 256;
  data.seed = 5;
  const mc::Tally t = mc::run_xs_native(mc::XsDataHost(data), 4000, 77);
  for (const double p : t.percentages(t.total())) {
    EXPECT_GT(p, 8.0);
    EXPECT_LT(p, 40.0);
  }
}

TEST(McAdapter, RejectsZeroInterval) {
  mc::McWorkloadConfig cfg = mc_config();
  cfg.interval = 0;
  EXPECT_THROW(mc::McWorkload{cfg}, ContractViolation);
}

}  // namespace
}  // namespace adcc::core

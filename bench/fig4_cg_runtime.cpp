// Fig. 4 reproduction — CG runtime under the seven durability schemes,
// normalized to native execution.
//
// Paper setup: NPB CG class C, checkpoint / transaction / counter-flush at the
// end of every iteration (all schemes bound recomputation to one iteration).
// Paper numbers: disk checkpoint +60.4 %, NVM-only checkpoint +4.2 %,
// NVM/DRAM checkpoint +43.6 %, PMEM +329 %, algorithm-directed < 3 %.
//
// CG runs on the serial kernel backend by default: the paper's
// compute/durability balance comes from a 2.13 GHz 2009 Xeon, and a 24-core
// SpMV would make every fixed durability cost look relatively larger. Pass
// --backend=omp --threads=N (needs -DADCC_OPENMP=ON) for parallel kernels.
// Substrate setup (arenas, backends) is excluded from the timed region.
//
// Ported to the ScenarioRunner: the per-scheme driver code is now the mode
// table below; CgWorkload supplies all seven engines. Methodology note vs the
// pre-port binary: Workload::prepare (state init — cg_init, heap construction,
// history-array setup) is excluded from the timed region for *every* scheme,
// including the native baseline, so only the iteration loop + durability +
// recovery are timed. Ratios stay apples-to-apples; absolute seconds are
// slightly lower than the old binary's.
#include <cstdio>

#include "cg/cg_workload.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "kernels/backend.hpp"
#include "kernels/threads.hpp"

int main(int argc, char** argv) try {
  using namespace adcc;
  Options opts(argc, argv);
  opts.doc("n", "system rows", "150000 (quick: 14000)")
      .doc("nz", "nonzeros per row", "15")
      .doc("iters", "CG iterations", "15")
      .doc("reps", "timed repetitions", "3 (quick: 1)")
      .doc("disk_mbps", "ckpt-disk throttle, MB/s", "150")
      .doc("threads", "kernel threads for --backend=omp (0 = ambient)", "1")
      .doc("backend", "kernel backend (serial|omp, omp needs -DADCC_OPENMP=ON)", "serial")
      .doc("quick", "CI-sized run");
  if (opts.maybe_print_help("fig4_cg_runtime")) return 0;
  const bool quick = opts.get_bool("quick");
  cg::CgWorkloadConfig wc;
  wc.n = opts.get_size("n", quick ? 14000 : 150000);
  wc.nz_per_row = opts.get_size("nz", 15);
  wc.iters = opts.get_size("iters", 15);
  const int reps = static_cast<int>(opts.get_int("reps", quick ? 1 : 3));
  const double disk_mbps = opts.get_double("disk_mbps", 150.0);
  const int threads = static_cast<int>(opts.get_int("threads", 1));
  const core::ScopedOmpThreads thread_scope(threads);
  const core::KernelBackend& backend = core::kernel_backend(opts.get("backend", "serial"));

  cg::CgWorkload workload(wc);

  core::print_banner("Fig. 4", "CG runtime, 7 schemes, n=" + std::to_string(wc.n) +
                                   ", per-iteration durability, normalized to native");

  core::ScenarioConfig base;
  base.env.disk_throttle_bytes_per_s = disk_mbps * 1e6;
  base.env.scratch_dir = std::filesystem::temp_directory_path() / "adcc_fig4";
  base.reps = reps;
  base.backend = &backend;

  auto scenario = [&](core::Mode m, int mode_reps, bool warmup) {
    core::ScenarioConfig cfg = base;
    cfg.mode = m;
    cfg.reps = mode_reps;
    cfg.warmup = warmup;
    workload.tune_env(m, cfg.env);
    return cfg;
  };

  core::ScenarioConfig native_cfg = scenario(core::Mode::kNative, reps, /*warmup=*/true);
  const double native_s = core::run_scenario(workload, native_cfg).seconds;

  core::Table table({"scheme", "seconds", "normalized", "overhead"});
  table.add_row({"native", core::Table::fmt(native_s, 4), "1.000", "0.0%"});
  auto report = [&](core::Mode m, const core::ScenarioResult& res) {
    const auto nt = core::normalize(res.seconds, native_s);
    table.add_row({core::mode_name(m), core::Table::fmt(res.seconds, 4),
                   core::Table::fmt(nt.normalized, 3),
                   core::Table::fmt(nt.overhead_percent(), 1) + "%"});
  };

  for (core::Mode m : {core::Mode::kCkptDisk, core::Mode::kCkptNvm, core::Mode::kCkptHetero,
                       core::Mode::kPmemTx, core::Mode::kAlgNvm, core::Mode::kAlgHetero}) {
    // The disk scheme runs once, unwarmed, as in the paper's methodology.
    const bool disk = m == core::Mode::kCkptDisk;
    const bool warmup = core::is_checkpoint_mode(m) && !disk;
    core::ScenarioConfig cfg = scenario(m, disk ? 1 : reps, warmup);
    report(m, core::run_scenario(workload, cfg));
  }

  table.print();
  std::printf("\nPaper reference (class C): ckpt-disk +60.4%%, ckpt-nvm +4.2%%,"
              " ckpt-nvm/dram +43.6%%, pmem-tx +329%%, algorithm-directed < 3%%.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig4_cg_runtime: %s\n", e.what());
  return 2;
}

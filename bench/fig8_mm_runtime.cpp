// Fig. 8 reproduction — ABFT-MM runtime under the seven durability schemes at
// three rank sizes, normalized to the native ABFT GEMM.
//
// Paper setup: n = 8000, ranks {200, 400, 1000}; checkpoint/transaction at the
// end of every submatrix multiplication. Paper numbers: algorithm-directed
// ≤ 8.2 % at rank 200 shrinking to 1.3 % at rank 1000; NVM-based checkpoint
// ≥ 21.8 % at rank 200; PMEM ≈ 5.5×.
// The matrix is scaled (default n = 1000) and the ranks are scaled by the same
// n ratio so the panels-per-product counts match the paper's sweep; GEMM runs
// on the serial kernel backend by default to approximate the paper's
// compute/durability balance (pass --backend=omp --threads=N for parallel
// kernels; needs -DADCC_OPENMP=ON).
//
// Ported to the ScenarioRunner: one MmWorkload per rank, the scheme sweep is a
// mode list, and the native(abft) baseline is the same workload in kNative
// (panel-wise Fig. 5 verification + correction included). Methodology note:
// Workload::prepare (input encoding, accumulator allocation/zeroing, heap
// construction) is excluded from the timed region for every scheme including
// the baseline — only the panel loop + durability are timed.
#include <cstdio>
#include <sstream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "kernels/backend.hpp"
#include "kernels/threads.hpp"
#include "mm/mm_workload.hpp"

int main(int argc, char** argv) try {
  using namespace adcc;
  Options opts(argc, argv);
  opts.doc("n", "matrix dimension", "1000 (quick: 500)")
      .doc("ranks", "comma-separated panel ranks", "25,50,125 (quick: 25,125)")
      .doc("reps", "timed repetitions", "2 (quick: 1)")
      .doc("disk_mbps", "ckpt-disk throttle, MB/s", "150")
      .doc("threads", "kernel threads for --backend=omp (0 = ambient)", "1")
      .doc("backend", "kernel backend (serial|omp, omp needs -DADCC_OPENMP=ON)", "serial")
      .doc("quick", "CI-sized run");
  if (opts.maybe_print_help("fig8_mm_runtime")) return 0;
  const bool quick = opts.get_bool("quick");
  const std::size_t n = opts.get_size("n", quick ? 500 : 1000);
  std::vector<std::size_t> ranks;
  {
    // Paper ranks 200/400/1000 at n=8000 → the same panel counts (40/20/8).
    std::stringstream ss(opts.get("ranks", quick ? "25,125" : "25,50,125"));
    std::string tok;
    while (std::getline(ss, tok, ',')) ranks.push_back(std::stoul(tok));
  }
  const int reps = static_cast<int>(opts.get_int("reps", quick ? 1 : 2));
  const double disk_mbps = opts.get_double("disk_mbps", 150.0);
  const int threads = static_cast<int>(opts.get_int("threads", 1));
  const core::ScopedOmpThreads thread_scope(threads);
  const core::KernelBackend& backend = core::kernel_backend(opts.get("backend", "serial"));

  core::print_banner("Fig. 8", "ABFT-MM runtime, 7 schemes, n=" + std::to_string(n) +
                                   " (paper: 8000 with ranks x8000/" + std::to_string(n) + ")");

  for (const std::size_t rank : ranks) {
    std::printf("\n--- rank k = %zu (%zu panels) ---\n", rank, (n + rank - 1) / rank);

    mm::MmWorkloadConfig wc;
    wc.n = n;
    wc.rank_k = rank;
    mm::MmWorkload workload(wc);

    core::ScenarioConfig base;
    base.env.disk_throttle_bytes_per_s = disk_mbps * 1e6;
    base.env.scratch_dir = std::filesystem::temp_directory_path() / "adcc_fig8";
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
    table.add_row({"native(abft)", core::Table::fmt(native_s, 4), "1.000", "0.0%"});
    for (core::Mode m : {core::Mode::kCkptDisk, core::Mode::kCkptNvm, core::Mode::kCkptHetero,
                         core::Mode::kPmemTx, core::Mode::kAlgNvm, core::Mode::kAlgHetero}) {
      const bool disk = m == core::Mode::kCkptDisk;
      core::ScenarioConfig cfg = scenario(m, disk ? 1 : reps, /*warmup=*/false);
      const core::ScenarioResult res = core::run_scenario(workload, cfg);
      const auto nt = core::normalize(res.seconds, native_s);
      table.add_row({core::mode_name(m), core::Table::fmt(res.seconds, 4),
                     core::Table::fmt(nt.normalized, 3),
                     core::Table::fmt(nt.overhead_percent(), 1) + "%"});
    }
    table.print();
  }

  std::printf("\nPaper reference (n=8000): algorithm-directed overhead 8.2%% (rank 200) ->\n"
              "1.3%% (rank 1000); NVM checkpoint >= 21.8%% at rank 200; PMEM ~5.5x.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig8_mm_runtime: %s\n", e.what());
  return 2;
}

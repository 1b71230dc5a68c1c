// Example — crash-consistent Conjugate Gradient (the paper's Fig. 2 solver).
//
// Solves a random sparse SPD system with the cg workload's algorithm-directed
// engine under the crash emulator, kills the run in the middle of an
// iteration, then uses the CG invariants
//     p(i+1)ᵀ·q(i) = 0     and     r(i+1) = b − A·z(i+1)
// to find the newest resumable iteration in NVM and finish the solve.
//
//   build/examples/cg_solver [--n=20000] [--iters=12] [--crash_iter=9] [--cache_kb=512]
#include <cstdio>

#include "core/adcc.hpp"

using namespace adcc;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  cg::CgWorkloadConfig cfg;
  cfg.n = static_cast<std::size_t>(opts.get_int("n", 20000));
  cfg.nz_per_row = 9;
  cfg.iters = static_cast<std::size_t>(opts.get_int("iters", 12));
  cfg.cache_bytes = static_cast<std::size_t>(opts.get_int("cache_kb", 512)) << 10;
  cfg.cache_ways = 8;
  const auto crash_iter = static_cast<std::uint64_t>(opts.get_int("crash_iter", 9));

  std::printf("crash-consistent CG: n=%zu, %zu iterations, crash in iteration %llu\n\n", cfg.n,
              cfg.iters, static_cast<unsigned long long>(crash_iter));

  cg::CgWorkload solver(cfg);
  core::ScenarioConfig sc;
  sc.mode = core::Mode::kAlgNvm;
  sc.crash.kind = core::CrashScenario::Kind::kAtPoint;
  sc.crash.point = cg::CgWorkload::kPointPUpdated;
  sc.crash.occurrence = crash_iter;
  solver.tune_env(sc.mode, sc.env);
  core::ScenarioRunner runner(solver, sc);  // Owns the arena the solution lives in.
  const core::ScenarioResult res = runner.run();

  if (res.crashes > 0) {
    const auto& rb = res.recomputation;
    std::printf("*** simulated crash after %llu memory accesses ***\n",
                static_cast<unsigned long long>(res.crash_access));
    std::printf("recovery: crashed in iteration %zu, invariants hold at iteration %zu\n",
                res.crash_unit + 1, res.restart_unit - 1);
    std::printf("          -> re-executed %zu iteration(s)\n", rb.units_redone());
    std::printf("          detect %.4fs + resume %.4fs (avg iteration %.4fs)\n",
                rb.detect_seconds, rb.resume_seconds, rb.unit_seconds);
  }

  const auto x = solver.solution();
  const auto b = linalg::make_rhs(cfg.n, cfg.rhs_seed);
  const double res_norm = cg::true_residual(solver.matrix(), b, x);
  const auto golden = cg::cg_solve(solver.matrix(), b, cfg.iters);
  std::printf("\nfinal residual  : %.3e (uncrashed run: %.3e)\n", res_norm,
              golden.residual_norm);
  std::printf("max |x - x_ref| : %.3e\n", linalg::max_abs_diff(x, golden.x));
  std::printf("runtime durability cost: 1 flushed cache line per iteration, no checkpoints.\n");
  return 0;
}

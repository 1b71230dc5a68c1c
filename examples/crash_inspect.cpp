// Example — inspecting crash state, the paper's crash-emulator workflow.
//
// The paper's PIN tool "outputs the values of data in caches and main memory"
// at a user-chosen crash point; this example reproduces that workflow on the
// cg workload's algorithm-directed engine under the crash emulator: drive the
// Workload protocol to a chosen iteration, stop at the crash, and print a
// census of which data objects are volatile (dirty in cache = would die) vs
// already durable in NVM — the raw evidence behind the Fig. 3 analysis.
//
//   build/examples/crash_inspect [--n=20000] [--iters=12] [--stop_iter=8] [--cache_kb=512]
#include <cstdio>

#include "core/adcc.hpp"

using namespace adcc;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  cg::CgWorkloadConfig cfg;
  cfg.n = static_cast<std::size_t>(opts.get_int("n", 20000));
  cfg.nz_per_row = 9;
  cfg.iters = static_cast<std::size_t>(opts.get_int("iters", 12));
  const std::size_t cache_kb = static_cast<std::size_t>(opts.get_int("cache_kb", 512));
  cfg.cache_bytes = cache_kb << 10;
  cfg.cache_ways = 8;
  const auto stop_iter = static_cast<std::uint64_t>(opts.get_int("stop_iter", 8));

  cg::CgWorkload solver(cfg);
  core::ModeEnvConfig env_cfg;
  solver.tune_env(core::Mode::kAlgNvm, env_cfg);
  core::ModeEnv env = core::make_env(core::Mode::kAlgNvm, env_cfg);
  solver.prepare(env);
  core::FaultSurface& fault = *solver.fault();
  fault.arm_at_point(cg::CgWorkload::kPointPUpdated, stop_iter);
  std::printf("running CG (n=%zu) under the crash emulator, stopping in iteration %llu…\n\n",
              cfg.n, static_cast<unsigned long long>(stop_iter));
  try {
    while (solver.run_step()) solver.make_durable();
    std::printf("run completed without reaching the stop point\n");
    return 1;
  } catch (const memsim::CrashException&) {
  }

  const memsim::MemorySimulator& sim = *fault.sim();
  std::printf("state at the crash instant (%llu line accesses, %zu KB LLC):\n",
              static_cast<unsigned long long>(sim.access_count()), cache_kb);
  std::printf("%-14s %12s %12s %10s\n", "region", "lines", "dirty", "volatile");
  for (const auto& c : sim.census_at_crash()) {
    std::printf("%-14s %12zu %12zu %9.2f%%\n", c.name.c_str(), c.total_lines, c.dirty_lines,
                c.total_lines ? 100.0 * static_cast<double>(c.dirty_lines) /
                                    static_cast<double>(c.total_lines)
                              : 0.0);
  }

  const auto& cs = sim.cache_stats();
  std::printf("\ncache: %llu hits, %llu misses, %llu dirty evictions "
              "(each eviction silently persisted a line to NVM)\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.dirty_evictions));

  solver.inject_crash();
  const core::WorkloadRecovery rec = solver.recover();
  std::printf("\nrecovery verdict: restart from iteration %zu (%zu completed iteration(s) "
              "lost, %zu candidates examined)\n",
              rec.restart_unit, rec.units_lost, rec.candidates_checked);
  std::printf("the dirty lines above are exactly the data the invariants declared "
              "unusable.\n");
  return 0;
}

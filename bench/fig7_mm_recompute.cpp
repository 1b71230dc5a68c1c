// Fig. 7 reproduction — ABFT-MM recomputation cost for two crash tests
// (end of the 4th submatrix multiplication; end of the 4th submatrix
// addition), across matrix sizes, under the crash emulator.
//
// Paper setup: n ∈ {2000,…,8000}, rank 400, hetero NVM/DRAM; recomputation
// normalized by the mean cost of one loop-1 (resp. loop-2) iteration.
// Expected shape: the smallest size loses ~2 submatrix multiplications, larger
// sizes lose exactly 1; the addition crash always loses 1.
// Sizes are scaled (simulating every byte of an 8000² product is not CI-able);
// the temporal-matrix-size : LLC ratio sweep is preserved.
//
// The mm workload's alg-nvm engine runs under the crash emulator (cache_mb)
// through ScenarioRunner; the crash tests are the declarative plans
// `point:mm:loop1_end:4` / `point:mm:loop2_end:4`, which land before the
// unit's checksum flushes, so the crashed unit itself counts as redone. Times
// are normalized by the mean pre-crash unit.
//
// Flags: --sizes=512,768,1024,1280 --rank=64 --cache_mb=8 --crash_unit=4 --quick
#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "common/options.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "mm/mm_workload.hpp"

int main(int argc, char** argv) try {
  using namespace adcc;
  const Options opts(argc, argv);
  const bool quick = opts.get_bool("quick");
  std::vector<std::size_t> sizes;
  {
    std::stringstream ss(opts.get("sizes", quick ? "384,512" : "512,768,1024,1280"));
    std::string tok;
    while (std::getline(ss, tok, ',')) sizes.push_back(std::stoul(tok));
  }
  const std::size_t rank = static_cast<std::size_t>(opts.get_int("rank", 64));
  const std::size_t cache_mb = static_cast<std::size_t>(opts.get_int("cache_mb", 8));
  const auto crash_unit = static_cast<std::uint64_t>(opts.get_int("crash_unit", 4));

  core::print_banner("Fig. 7", "ABFT-MM recomputation cost, crash at end of submatrix "
                               "multiplication / addition #" + std::to_string(crash_unit) +
                               ", rank k=" + std::to_string(rank));

  core::Table table({"n", "crash_in", "units_lost", "corrected", "detect/unit", "resume/unit",
                     "total/unit"});

  for (const std::size_t n : sizes) {
    mm::MmWorkloadConfig wcfg;
    wcfg.n = n;
    wcfg.rank_k = rank;
    wcfg.seed_a = 7;  // The product of the pinned golden deck.
    wcfg.seed_b = 8;
    wcfg.cache_bytes = cache_mb << 20;
    mm::MmWorkload workload(wcfg);

    for (const bool in_loop2 : {false, true}) {
      core::ScenarioConfig cfg;
      cfg.mode = core::Mode::kAlgNvm;
      cfg.crash.kind = core::CrashScenario::Kind::kAtPoint;
      cfg.crash.point = in_loop2 ? mm::MmWorkload::kPointAddEnd : mm::MmWorkload::kPointMultEnd;
      cfg.crash.occurrence = crash_unit;
      workload.tune_env(cfg.mode, cfg.env);
      const core::ScenarioResult res = core::run_scenario(workload, cfg);
      ADCC_CHECK(res.crashes == 1, "crash did not fire");

      const auto& rb = res.recomputation;
      table.add_row({std::to_string(n), in_loop2 ? "loop2(add)" : "loop1(mult)",
                     std::to_string(rb.units_redone()), std::to_string(rb.units_corrected),
                     core::Table::fmt(rb.detect_normalized(), 2),
                     core::Table::fmt(rb.resume_normalized(), 2),
                     core::Table::fmt(rb.detect_normalized() + rb.resume_normalized(), 2)});
    }
  }
  table.print();
  std::printf("\nPaper reference (rank 400): n=2000 loses ~2 submatrix multiplications, larger\n"
              "sizes lose 1; the loop-2 crash always loses 1 submatrix addition.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig7_mm_recompute: %s\n", e.what());
  return 2;
}

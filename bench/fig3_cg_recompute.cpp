// Fig. 3 reproduction — CG recomputation cost (detect + resume) vs input
// problem class, under the crash emulator with an 8 MB LLC (Xeon E5606-like).
//
// Paper setup: crash at Fig. 2 line 10 in the 15th iteration of NPB CG; the
// recomputation time is normalized by the mean per-iteration time, and broken
// into "detecting where to restart" and "resuming computation time".
// Expected shape: small classes (S, W) lose all 15 iterations because their
// working set never leaves the cache; large classes (B, C) lose exactly 1.
//
// The cg workload's alg-nvm engine runs under the crash emulator (cache_mb)
// through ScenarioRunner, and the crash is the declarative plan
// `point:cg:p_updated:<crash_iter>` — the same run as `adccbench --workload=cg
// --mode=alg-nvm --cache_mb=8 --crash=...`. Times are normalized by the mean
// pre-crash iteration.
//
// Flags: --quick (classes S,W,A only), --classes=S,W,A,B,C, --cache_mb=8,
//        --iters=15, --crash_iter=15
#include <cstdio>
#include <sstream>

#include "cg/cg_workload.hpp"
#include "common/check.hpp"
#include "common/options.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "linalg/spgen.hpp"

namespace {

using namespace adcc;

std::vector<linalg::CgClass> parse_classes(const std::string& spec) {
  std::vector<linalg::CgClass> out;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok == "S") out.push_back(linalg::CgClass::S);
    else if (tok == "W") out.push_back(linalg::CgClass::W);
    else if (tok == "A") out.push_back(linalg::CgClass::A);
    else if (tok == "B") out.push_back(linalg::CgClass::B);
    else if (tok == "C") out.push_back(linalg::CgClass::C);
    else ADCC_CHECK(false, "unknown CG class");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opts(argc, argv);
  opts.doc("classes", "comma-separated NPB classes", "S,W,A,B,C (quick: S,W,A)")
      .doc("iters", "CG iterations", "15")
      .doc("crash_iter", "iteration the crash interrupts", "iters")
      .doc("cache_mb", "simulated LLC size, MB", "8")
      .doc("quick", "CI-sized run");
  if (opts.maybe_print_help("fig3_cg_recompute")) return 0;
  const bool quick = opts.get_bool("quick");
  const auto classes =
      parse_classes(opts.get("classes", quick ? "S,W,A" : "S,W,A,B,C"));
  const std::size_t iters = opts.get_size("iters", 15);
  const std::size_t crash_iter = opts.get_size("crash_iter", iters);
  const std::size_t cache_mb = opts.get_size("cache_mb", 8);

  core::print_banner("Fig. 3",
                     "CG recomputation cost vs input class (crash at line 10 of iteration " +
                         std::to_string(crash_iter) + ", " + std::to_string(cache_mb) +
                         " MB simulated LLC)");

  core::Table table({"class", "n", "nnz", "iters_lost", "detect/iter", "resume/iter",
                     "total/iter", "detect_s", "resume_s"});

  // The declarative plan: crash at the crash_iter-th hit of Fig. 2 line 10.
  core::CrashScenario crash;
  crash.kind = core::CrashScenario::Kind::kAtPoint;
  crash.point = cg::CgWorkload::kPointPUpdated;
  crash.occurrence = crash_iter;

  for (const auto cls : classes) {
    const auto shape = linalg::shape_of(cls);

    cg::CgWorkloadConfig wcfg;
    wcfg.n = shape.n;
    wcfg.nz_per_row = shape.nz_per_row;
    wcfg.iters = iters;
    wcfg.cache_bytes = cache_mb << 20;
    cg::CgWorkload workload(wcfg);

    core::ScenarioConfig cfg;
    cfg.mode = core::Mode::kAlgNvm;
    cfg.crash = crash;
    workload.tune_env(cfg.mode, cfg.env);
    const core::ScenarioResult res = core::run_scenario(workload, cfg);
    ADCC_CHECK(res.crashes == 1, "crash did not fire");

    const auto& rb = res.recomputation;
    table.add_row({linalg::name_of(cls), std::to_string(shape.n),
                   std::to_string(workload.matrix().nnz()),
                   std::to_string(rb.units_redone()),
                   core::Table::fmt(rb.detect_normalized(), 2),
                   core::Table::fmt(rb.resume_normalized(), 2),
                   core::Table::fmt(rb.detect_normalized() + rb.resume_normalized(), 2),
                   core::Table::fmt(rb.detect_seconds, 4),
                   core::Table::fmt(rb.resume_seconds, 4)});
  }
  table.print();
  std::printf("\nPaper reference: classes S/W lose all 15 iterations; classes B/C lose 1;\n"
              "recomputation (normalized by one CG iteration) shrinks as the input grows.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig3_cg_recompute: %s\n", e.what());
  return 2;
}

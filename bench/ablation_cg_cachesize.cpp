// Ablation (paper §III-B model check, not a paper figure) — CG iterations
// lost vs simulated LLC capacity, fixed input.
//
// The paper's performance characterization: once the per-iteration working
// set exceeds the cache, hardware evictions persist older history rows and
// recomputation is bounded by ~1 iteration; a cache large enough to hold the
// whole history loses everything. This sweep exposes that boundary directly.
//
// A thin SweepSpec declaration over the cg workload's alg-nvm engine under
// the crash emulator — equivalent to
//
//   adccbench --sweep=workload=cg,mode=alg-nvm,cache_mb=1:64:x2,crash=point:cg:p_updated:15
//   (plus --no_baseline)
//
// so it inherits --sweep_jobs, --format/--out, per-cell failure capture, and
// every other engine feature. Any mid-unit crash plan works via --crash.
//
// Flags: --n=14000 --nz=11 --iters=15 --cache_mbs=1+2+4+8+16+32+64 --quick
// (--cache_mbs also accepts the legacy comma-separated spelling)
#include <algorithm>
#include <cstdio>

#include "cg/cg_workload.hpp"
#include "common/options.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"

int main(int argc, char** argv) try {
  using namespace adcc;
  Options opts(argc, argv);
  opts.doc("n", "CG problem rows", "14000 (quick: 4000)")
      .doc("nz", "nonzeros per row", "11")
      .doc("iters", "CG iteration count (the crash lands in the last one)", "15")
      .doc("cache_mbs", "simulated LLC sizes to sweep, MB", "1+2+4+8+16+32+64")
      .doc("crash", "crash plan override", "point:cg:p_updated:<iters>")
      .doc("sweep_jobs", "worker threads executing deck cells", "1")
      .doc("format", "table output: table | csv | json", "table")
      .doc("no_timing", "blank wall-clock columns", "off")
      .doc("quick", "CI-sized problem defaults", "off");
  if (opts.maybe_print_help("ablation_cg_cachesize")) return 0;
  const bool quick = opts.get_bool("quick");
  const auto format = core::parse_table_format(opts.get("format", "table"));
  if (!format) {
    std::fprintf(stderr, "ablation_cg_cachesize: bad --format\n");
    return 2;
  }

  // The ablation's own problem defaults (so the cache boundary lands inside
  // the swept range); explicit flags still win.
  if (!opts.has("n")) opts.set("n", quick ? "4000" : "14000");
  if (!opts.has("nz")) opts.set("nz", "11");
  const std::size_t iters = opts.get_size("iters", 15);
  opts.set("iters", std::to_string(iters));

  std::string cache_mbs = opts.get("cache_mbs", quick ? "1+4+16" : "1+2+4+8+16+32+64");
  std::replace(cache_mbs.begin(), cache_mbs.end(), ',', '+');  // Legacy spelling.
  const std::string crash = opts.get(
      "crash", std::string("point:") + cg::CgWorkload::kPointPUpdated + ":" +
                   std::to_string(iters));

  std::string error;
  const auto spec = core::parse_sweep(
      "workload=cg,mode=alg-nvm,cache_mb=" + cache_mbs + ",crash=" + crash, &error);
  if (!spec) {
    std::fprintf(stderr, "ablation_cg_cachesize: %s\n", error.c_str());
    return 2;
  }

  core::SweepConfig cfg;
  cfg.base = opts;
  cfg.jobs = std::max(1, static_cast<int>(opts.get_int("sweep_jobs", 1)));
  cfg.baseline = false;  // The table is a recomputation sweep, not an overhead one.

  if (*format == core::TableFormat::kPlain) {
    core::print_banner("Ablation", "CG iterations lost vs simulated LLC size (n=" +
                                       opts.get("n", "") + ", crash=" + crash + ")");
  }
  const core::SweepResult deck = core::run_sweep(*spec, cfg);
  deck.table(!opts.get_bool("no_timing")).print(*format);
  if (*format == core::TableFormat::kPlain) {
    std::printf("\nExpected: iterations lost grow with cache capacity — the opportunistic\n"
                "eviction persistence the paper relies on needs working set >> LLC.\n");
  }
  // The pre-port ADCC_CHECK(cc.run(), "crash did not fire"): a recomputation
  // table whose cells never crashed (typo'd point name, occurrence past the
  // run) measures nothing and must not pass silently.
  for (const core::SweepCellResult& cell : deck.cells) {
    if (cell.status == core::SweepCellResult::Status::kOk && cell.result.crashes == 0) {
      std::fprintf(stderr,
                   "ablation_cg_cachesize: crash plan '%s' never fired in cell %zu\n",
                   cell.crash_label.c_str(), cell.index);
      return 1;
    }
  }
  return deck.all_ok() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "ablation_cg_cachesize: %s\n", e.what());
  return 2;
}

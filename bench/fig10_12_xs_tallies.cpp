// Figs. 10 and 12 reproduction — XSBench interaction-type tallies after a
// crash, no-crash vs crash+restart, under the paper's two flush policies.
//
//  * Fig. 10, the "basic idea": flush only the loop index, every lookup, and
//    trust MC's statistics. The restart loses the cache-resident counter
//    updates, so its tallies diverge visibly (the paper saw up to 8 % gaps).
//  * Fig. 12, selective cache-line flushing (Fig. 11): flush macro_xs_vector,
//    the five counters and the index every 0.01 % of lookups. The two tally
//    distributions agree; with the counter-based RNG they match exactly.
//
// Paper setup: H-M reactor model, crash at 10 % of lookups, both runs on the
// same sampled inputs. The mc workload's alg-nvm engine runs under the crash
// emulator (cache_mb) through ScenarioRunner; the crash is the plan
// `point:xs:lookup_end:K` with K = crash_pct % of the lookups. The table
// can't be a deck: it compares the tallies of two runs, which live in each
// run's NVM arena. Exits 1 unless the selective run's tallies match the
// no-crash run's exactly.
//
// Flags: --lookups=200000 --nuclides=68 --gridpoints=2000 --cache_mb=8
//        --crash_pct=10 --flush_pct=0.01 --quick (scaled down)
#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/options.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "mc/mc_workload.hpp"

namespace {

using namespace adcc;

struct Run {
  mc::Tally tally;
  core::ScenarioResult result;
};

/// Runs the alg-nvm engine under `crash` and returns its tallies, read while
/// the runner that owns the NVM arena is alive.
Run run(const mc::McWorkloadConfig& cfg, const core::CrashScenario& crash) {
  mc::McWorkload workload(cfg);
  core::ScenarioConfig sc;
  sc.mode = core::Mode::kAlgNvm;
  sc.crash = crash;
  workload.tune_env(sc.mode, sc.env);
  core::ScenarioRunner runner(workload, sc);
  const core::ScenarioResult result = runner.run();
  return {workload.tally(), result};
}

}  // namespace

int main(int argc, char** argv) try {
  Options opts(argc, argv);
  opts.doc("lookups", "total lookups", "200000 (quick: 50000)")
      .doc("nuclides", "nuclide count", "68 (quick: 24)")
      .doc("gridpoints", "gridpoints per nuclide", "2000 (quick: 500)")
      .doc("crash_pct", "crash point, % of lookups", "10")
      .doc("flush_pct", "selective flush interval, % of lookups", "0.01")
      .doc("cache_mb", "simulated LLC size, MB", "8")
      .doc("quick", "CI-sized run");
  if (opts.maybe_print_help("fig10_12_xs_tallies")) return 0;
  opts.reject_undocumented();
  const bool quick = opts.get_bool("quick");

  mc::McWorkloadConfig cfg;
  cfg.data.n_nuclides = opts.get_size("nuclides", quick ? 24 : 68);
  cfg.data.gridpoints_per_nuclide = opts.get_size("gridpoints", quick ? 500 : 2000);
  cfg.lookups = opts.get_size("lookups", quick ? 50'000 : 200'000);
  const std::size_t cache_mb = opts.get_size("cache_mb", 8);
  cfg.cache_bytes = cache_mb << 20;
  cfg.seed = 99;
  const double crash_pct = opts.get_double("crash_pct", 10.0);
  const double flush_pct = opts.get_double("flush_pct", 0.01);
  const std::uint64_t lookups = cfg.lookups;

  core::print_banner("Figs. 10/12",
                     "XSBench tallies: no crash vs a crash at " + core::Table::fmt(crash_pct, 0) +
                         "% of " + std::to_string(lookups) + " lookups (grids " +
                         std::to_string(cfg.data.footprint_bytes() >> 20) + " MB, " +
                         std::to_string(cache_mb) + " MB simulated LLC)");

  core::CrashScenario crash;
  crash.kind = core::CrashScenario::Kind::kAtPoint;
  crash.point = mc::McWorkload::kPointLookupEnd;
  crash.occurrence = static_cast<std::uint64_t>(static_cast<double>(lookups) * crash_pct / 100.0);

  struct Policy {
    mc::XsFlushPolicy policy;
    std::uint64_t interval;
    const char* heading;
    const char* paper;
  };
  const Policy policies[] = {
      {mc::XsFlushPolicy::kBasicIdea, 1,
       "Fig. 10: basic idea (flush only the loop index)",
       "paper observed visible divergence, up to ~8 pp"},
      {mc::XsFlushPolicy::kSelective,
       std::max<std::uint64_t>(
           1, static_cast<std::uint64_t>(static_cast<double>(lookups) * flush_pct / 100.0)),
       "Fig. 12: selective flushing of the tallies",
       "paper: distributions agree; exact here"},
  };

  // Every crash-free alg run tallies exactly what native does, whatever the
  // policy, so one reference serves both figures.
  cfg.policy = policies[1].policy;
  cfg.interval = policies[1].interval;
  const mc::Tally ref = run(cfg, {}).tally;
  const auto pr = ref.percentages(lookups);

  bool exact = false;
  for (const Policy& p : policies) {
    cfg.policy = p.policy;
    cfg.interval = p.interval;
    const Run got = run(cfg, crash);
    ADCC_CHECK(got.result.crashes == 1, "crash did not fire");

    std::printf("\n--- %s, interval %llu ---\n", p.heading,
                static_cast<unsigned long long>(p.interval));
    core::Table table({"interaction type", "no crash", "crash+restart", "gap (pp)"});
    const auto pg = got.tally.percentages(lookups);
    for (std::size_t c = 0; c < pr.size(); ++c) {
      table.add_row({std::to_string(c + 1), core::Table::fmt(pr[c], 2) + "%",
                     core::Table::fmt(pg[c], 2) + "%", core::Table::fmt(pr[c] - pg[c], 2)});
    }
    table.print();
    std::printf("\nrestart lookup: %llu (bounded loss: <= %llu lookups re-executed)\n",
                static_cast<unsigned long long>((got.result.restart_unit - 1) * p.interval),
                static_cast<unsigned long long>(p.interval));
    std::printf("tallies counted: %llu / %llu lookups (%llu lost)\n",
                static_cast<unsigned long long>(got.tally.total()),
                static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(lookups - got.tally.total()));
    std::printf("max per-type gap: %.2f pp (%s)\n",
                mc::max_percentage_gap(ref, got.tally, lookups), p.paper);
    exact = ref.counts == got.tally.counts;
    std::printf("tallies identical: %s\n", exact ? "YES" : "NO");
  }
  return exact ? 0 : 1;  // The last policy is selective flushing: it must be exact.
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig10_12_xs_tallies: %s\n", e.what());
  return 2;
}

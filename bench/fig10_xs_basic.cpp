// Fig. 10 reproduction — XSBench interaction-type tallies: no-crash vs the
// "basic idea" (flush only the loop index, trust MC's statistics).
//
// Paper setup: H-M reactor model, crash at 10 % of lookups, both runs on the
// same sampled inputs. Expected shape: the no-crash run tallies every type
// ≈ equally; the basic-idea restart loses the cache-resident counter updates,
// so its tallies diverge visibly (the paper saw up to 8 % gaps).
//
// The mc workload's alg-nvm engine runs under the crash emulator (cache_mb)
// with the basic-idea flush policy and one lookup per work unit; the crash is
// the plan `point:xs:lookup_end:K` with K = crash_pct% of the lookups.
//
// Flags: --lookups=200000 --nuclides=68 --gridpoints=2000 --cache_mb=8
//        --crash_pct=10 --quick (scaled down)
#include <cstdio>

#include "common/check.hpp"
#include "common/options.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "mc/mc_workload.hpp"

int main(int argc, char** argv) try {
  using namespace adcc;
  Options opts(argc, argv);
  opts.doc("lookups", "total lookups", "200000 (quick: 50000)")
      .doc("nuclides", "nuclide count", "68 (quick: 24)")
      .doc("gridpoints", "gridpoints per nuclide", "2000 (quick: 500)")
      .doc("crash_pct", "crash point, % of lookups", "10")
      .doc("cache_mb", "simulated LLC size, MB", "8")
      .doc("quick", "CI-sized run");
  if (opts.maybe_print_help("fig10_xs_basic")) return 0;
  const bool quick = opts.get_bool("quick");

  mc::McWorkloadConfig wcfg;
  wcfg.data.n_nuclides = opts.get_size("nuclides", quick ? 24 : 68);
  wcfg.data.gridpoints_per_nuclide = opts.get_size("gridpoints", quick ? 500 : 2000);
  wcfg.lookups = opts.get_size("lookups", quick ? 50'000 : 200'000);
  wcfg.interval = 1;  // The basic idea flushes the loop index every lookup.
  wcfg.policy = mc::XsFlushPolicy::kBasicIdea;
  wcfg.cache_bytes = opts.get_size("cache_mb", 8) << 20;
  wcfg.seed = 99;
  const double crash_pct = opts.get_double("crash_pct", 10.0);
  const std::uint64_t lookups = wcfg.lookups;

  mc::McWorkload workload(wcfg);
  core::print_banner(
      "Fig. 10", "XSBench tallies: no crash vs basic-idea restart (grids " +
                     std::to_string(wcfg.data.footprint_bytes() >> 20) + " MB, crash at " +
                     core::Table::fmt(crash_pct, 0) + "% of " + std::to_string(lookups) +
                     " lookups)");

  core::ScenarioConfig nocrash;
  nocrash.mode = core::Mode::kAlgNvm;
  workload.tune_env(nocrash.mode, nocrash.env);
  // The tallies live in the run's NVM arena: read them while the runner that
  // owns it is alive.
  core::ScenarioRunner clean(workload, nocrash);
  ADCC_CHECK(clean.run().crashes == 0, "unexpected crash");
  const mc::Tally ref = workload.tally();

  core::ScenarioConfig crashed = nocrash;
  crashed.crash.kind = core::CrashScenario::Kind::kAtPoint;
  crashed.crash.point = mc::McWorkload::kPointLookupEnd;
  crashed.crash.occurrence =
      static_cast<std::uint64_t>(static_cast<double>(lookups) * crash_pct / 100.0);
  core::ScenarioRunner runner(workload, crashed);
  const core::ScenarioResult res = runner.run();
  ADCC_CHECK(res.crashes == 1, "crash did not fire");
  const mc::Tally bad = workload.tally();

  core::Table table({"interaction type", "no crash", "crash+basic-idea", "gap (pp)"});
  const auto pr = ref.percentages(lookups);
  const auto pb = bad.percentages(lookups);
  for (int c = 0; c < mc::kChannels; ++c) {
    table.add_row({std::to_string(c + 1), core::Table::fmt(pr[static_cast<std::size_t>(c)], 2) + "%",
                   core::Table::fmt(pb[static_cast<std::size_t>(c)], 2) + "%",
                   core::Table::fmt(pr[static_cast<std::size_t>(c)] - pb[static_cast<std::size_t>(c)], 2)});
  }
  table.print();
  std::printf("\ntallies counted: no-crash %llu / %llu lookups, basic idea %llu (%llu lost)\n",
              static_cast<unsigned long long>(ref.total()),
              static_cast<unsigned long long>(lookups),
              static_cast<unsigned long long>(bad.total()),
              static_cast<unsigned long long>(ref.total() - bad.total()));
  std::printf("max per-type gap: %.2f pp (paper observed visible divergence, up to ~8 pp)\n",
              mc::max_percentage_gap(ref, bad, lookups));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig10_xs_basic: %s\n", e.what());
  return 2;
}

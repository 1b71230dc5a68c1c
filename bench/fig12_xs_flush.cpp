// Fig. 12 reproduction — XSBench tallies: no-crash vs crash+restart under the
// paper's selective cache-line flushing (Fig. 11: flush macro_xs_vector, the
// five counters and the index every 0.01 % of lookups).
//
// Expected shape: the two tally distributions agree (in our deterministic
// counter-based-RNG setup they match exactly).
//
// The mc workload's alg-nvm engine runs under the crash emulator as in fig10,
// with the selective policy and one flush interval per work unit;
// ScenarioResult carries the restart unit, and the bench exits non-zero unless
// the crashed run's tallies match the no-crash reference bit-for-bit.
//
// Flags: --lookups=200000 --nuclides=68 --gridpoints=2000 --cache_mb=8
//        --crash_pct=10 --flush_pct=0.01 --quick
#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/options.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "mc/mc_workload.hpp"

int main(int argc, char** argv) try {
  using namespace adcc;
  const Options opts(argc, argv);
  const bool quick = opts.get_bool("quick");

  mc::McWorkloadConfig wcfg;
  wcfg.data.n_nuclides = static_cast<std::size_t>(opts.get_int("nuclides", quick ? 24 : 68));
  wcfg.data.gridpoints_per_nuclide =
      static_cast<std::size_t>(opts.get_int("gridpoints", quick ? 500 : 2000));
  wcfg.lookups = static_cast<std::uint64_t>(opts.get_int("lookups", quick ? 50'000 : 200'000));
  wcfg.policy = mc::XsFlushPolicy::kSelective;
  const double crash_pct = opts.get_double("crash_pct", 10.0);
  const double flush_pct = opts.get_double("flush_pct", 0.01);
  wcfg.interval = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(wcfg.lookups) * flush_pct / 100.0));
  wcfg.cache_bytes = static_cast<std::size_t>(opts.get_int("cache_mb", 8)) << 20;
  wcfg.seed = 99;
  const std::uint64_t lookups = wcfg.lookups;

  mc::McWorkload workload(wcfg);
  core::print_banner("Fig. 12",
                     "XSBench tallies: no crash vs crash+selective flushing (every " +
                         core::Table::fmt(flush_pct, 2) + "% of lookups)");

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
  const mc::Tally got = workload.tally();

  core::Table table({"interaction type", "no crash", "crash+selective flush", "gap (pp)"});
  const auto pr = ref.percentages(lookups);
  const auto pg = got.percentages(lookups);
  for (int c = 0; c < mc::kChannels; ++c) {
    table.add_row({std::to_string(c + 1), core::Table::fmt(pr[static_cast<std::size_t>(c)], 2) + "%",
                   core::Table::fmt(pg[static_cast<std::size_t>(c)], 2) + "%",
                   core::Table::fmt(pr[static_cast<std::size_t>(c)] - pg[static_cast<std::size_t>(c)], 2)});
  }
  table.print();
  std::printf("\nrestart lookup: %llu (bounded loss: <= %llu lookups re-executed)\n",
              static_cast<unsigned long long>((res.restart_unit - 1) * wcfg.interval),
              static_cast<unsigned long long>(wcfg.interval));
  std::printf("max per-type gap: %.4f pp (paper: distributions agree; exact here)\n",
              mc::max_percentage_gap(ref, got, lookups));
  std::printf("tallies identical: %s\n", ref.counts == got.counts ? "YES" : "NO");
  return ref.counts == got.counts ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig12_xs_flush: %s\n", e.what());
  return 2;
}

// Example — crash-consistent Monte-Carlo transport (paper §III-D).
//
// Runs the mc workload's algorithm-directed engine under the crash emulator
// twice: with the paper's *basic idea* (trust MC statistics, flush only the
// loop index) and with *selective flushing* of the tallies. The basic idea
// visibly corrupts the tally distribution; selective flushing recovers it
// exactly.
//
//   build/examples/mc_transport [--lookups=100000] [--crash_pct=10] [--cache_mb=4]
#include <cstdio>

#include "core/adcc.hpp"

using namespace adcc;

namespace {

void print_tally(const char* label, const mc::Tally& t, std::uint64_t lookups) {
  std::printf("%-28s", label);
  const auto pct = t.percentages(lookups);
  for (double p : pct) std::printf("  %6.2f%%", p);
  std::printf("   (total %llu)\n", static_cast<unsigned long long>(t.total()));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto lookups = static_cast<std::uint64_t>(opts.get_int("lookups", 100'000));
  const double crash_pct = opts.get_double("crash_pct", 10.0);
  const std::size_t cache_mb = static_cast<std::size_t>(opts.get_int("cache_mb", 4));

  mc::McWorkloadConfig cfg;
  cfg.data.n_nuclides = 24;
  cfg.data.gridpoints_per_nuclide = 500;
  cfg.lookups = lookups;
  cfg.seed = 31;
  cfg.cache_bytes = cache_mb << 20;
  cfg.cache_ways = 8;
  std::printf("MC transport: %llu lookups over %zu MB of grids, crash at %.0f%%\n\n",
              static_cast<unsigned long long>(lookups), cfg.data.footprint_bytes() >> 20,
              crash_pct);
  std::printf("%-28s  %7s  %7s  %7s  %7s  %7s\n", "interaction-type tallies:", "t1", "t2",
              "t3", "t4", "t5");

  for (const auto policy : {mc::XsFlushPolicy::kBasicIdea, mc::XsFlushPolicy::kSelective}) {
    const bool basic = policy == mc::XsFlushPolicy::kBasicIdea;
    cfg.policy = policy;
    // The basic idea makes the loop index durable every lookup; selective
    // flushing publishes the tallies every 0.01 % of the lookups.
    cfg.interval = basic ? 1 : std::max<std::uint64_t>(1, lookups / 10'000);
    mc::McWorkload w(cfg);
    core::ScenarioConfig sc;
    sc.mode = core::Mode::kAlgNvm;
    w.tune_env(sc.mode, sc.env);

    // The tallies live in each run's NVM arena: read them while the runner
    // that owns it is alive.
    core::ScenarioRunner clean(w, sc);
    clean.run();
    const mc::Tally nocrash = w.tally();

    sc.crash.kind = core::CrashScenario::Kind::kAtPoint;
    sc.crash.point = mc::McWorkload::kPointLookupEnd;
    sc.crash.occurrence =
        static_cast<std::uint64_t>(static_cast<double>(lookups) * crash_pct / 100.0);
    core::ScenarioRunner crashed(w, sc);
    const core::ScenarioResult res = crashed.run();
    const mc::Tally got = w.tally();

    std::printf("\n--- %s ---\n", basic ? "basic idea (flush loop index only)"
                                        : "selective flushing (tallies every 0.01%)");
    print_tally("no crash", nocrash, lookups);
    print_tally("crash + restart", got, lookups);
    std::printf("restart at lookup %llu; max per-type gap %.3f pp%s\n",
                static_cast<unsigned long long>((res.restart_unit - 1) * cfg.interval),
                mc::max_percentage_gap(got, nocrash, lookups),
                got.counts == nocrash.counts ? " — EXACT match" : "");
  }
  std::printf("\nThe statistics of MC do not protect the hot accumulators: they live in\n"
              "cache, die with it, and must be selectively flushed (3 cache lines).\n");
  return 0;
}

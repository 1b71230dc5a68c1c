// Fig. 13 reproduction — XSBench runtime under the seven durability schemes,
// normalized to native; durability every 0.01 % of lookups for all schemes.
//
// Paper numbers: algorithm-directed ≤ 0.05 %, NVM-only checkpoint ≈ 0,
// NVM/DRAM checkpoint ≈ 13 %, disk checkpoint the largest by far.
//
// Methodology notes:
//  * Every scheme is timed back-to-back with its own adjacent native baseline
//    (the kernel is clock-sensitive; a single up-front baseline conflates
//    turbo/thermal drift with durability overhead). Two ScenarioRunners over
//    the same McWorkload alternate repetitions.
//  * The disk scheme issues an fdatasync per checkpoint; it runs at a reduced
//    lookup count (same checkpoint density) against its own baseline.
//  * Workload::prepare (tally zeroing, heap/arena setup) is excluded from the
//    timed region for every scheme including the adjacent native baselines
//    (the pre-port binary timed pmem-tx heap reconstruction; this port does
//    not) — only the lookup loop + durability actions are timed.
//
// Flags: --lookups=1000000 --nuclides=68 --gridpoints=2000 --interval_pct=0.01
//        --reps=2 --disk_scale=10 --quick
#include <cstdio>
#include <memory>

#include "common/stats.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "mc/mc_workload.hpp"

int main(int argc, char** argv) try {
  using namespace adcc;
  Options opts(argc, argv);
  opts.doc("lookups", "total lookups", "1000000 (quick: 200000)")
      .doc("nuclides", "nuclide count", "68 (quick: 24)")
      .doc("gridpoints", "gridpoints per nuclide", "2000 (quick: 500)")
      .doc("interval_pct", "durability interval, % of lookups", "0.01")
      .doc("reps", "interleaved repetitions", "2 (quick: 1)")
      .doc("disk_scale", "lookup divisor for the disk scheme", "10")
      .doc("quick", "CI-sized run");
  if (opts.maybe_print_help("fig13_xs_runtime")) return 0;
  opts.reject_undocumented();
  const bool quick = opts.get_bool("quick");
  mc::McWorkloadConfig wc;
  wc.data.n_nuclides = opts.get_size("nuclides", quick ? 24 : 68);
  wc.data.gridpoints_per_nuclide = opts.get_size("gridpoints", quick ? 500 : 2000);
  wc.lookups = opts.get_size("lookups", quick ? 200'000 : 1'000'000);
  const double interval_pct = opts.get_double("interval_pct", 0.01);
  const int reps = static_cast<int>(opts.get_int("reps", quick ? 1 : 2));
  const auto disk_scale = static_cast<std::uint64_t>(opts.get_int("disk_scale", 10));

  wc.interval = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(wc.lookups) * interval_pct / 100.0));
  wc.seed = 5;

  core::print_banner("Fig. 13", "XSBench runtime, 7 schemes, " + std::to_string(wc.lookups) +
                                    " lookups, durability every " + std::to_string(wc.interval) +
                                    " lookups (" + core::Table::fmt(interval_pct, 2) + "%)");

  core::Table table({"scheme", "scheme_s", "adjacent_native_s", "normalized", "overhead"});

  // Interleaved measurement: scheme and native repetitions alternate over the
  // same workload instance, medians compared.
  auto measure = [&](const std::string& name, mc::McWorkload& workload, core::Mode mode) {
    auto scenario = [&](core::Mode m) {
      core::ScenarioConfig cfg;
      cfg.mode = m;
      cfg.env.scratch_dir = std::filesystem::temp_directory_path() / "adcc_fig13";
      workload.tune_env(m, cfg.env);
      cfg.reps = 1;
      return cfg;
    };
    core::ScenarioRunner native_runner(workload, scenario(core::Mode::kNative));
    core::ScenarioRunner scheme_runner(workload, scenario(mode));
    native_runner.run();  // Warm both caches and clocks.
    std::vector<double> scheme_t, native_t;
    for (int r = 0; r < reps; ++r) {
      native_t.push_back(native_runner.run().seconds);
      scheme_t.push_back(scheme_runner.run().seconds);
    }
    const double s = median(scheme_t);
    const double nat = median(native_t);
    const auto nt = core::normalize(s, nat);
    table.add_row({name, core::Table::fmt(s, 4), core::Table::fmt(nat, 4),
                   core::Table::fmt(nt.normalized, 4),
                   core::Table::fmt(nt.overhead_percent(), 2) + "%"});
  };

  mc::McWorkload workload(wc);

  {
    // Disk: reduced lookup count at the same checkpoint density.
    mc::McWorkloadConfig dc = wc;
    dc.lookups = std::max<std::uint64_t>(wc.interval, wc.lookups / disk_scale);
    mc::McWorkload disk_workload(dc);
    measure("ckpt-disk (scaled)", disk_workload, core::Mode::kCkptDisk);
  }

  for (core::Mode m : {core::Mode::kCkptNvm, core::Mode::kCkptHetero, core::Mode::kPmemTx,
                       core::Mode::kAlgNvm, core::Mode::kAlgHetero}) {
    measure(core::mode_name(m), workload, m);
  }

  table.print();
  std::printf("\nPaper reference: algorithm-directed <= 0.05%%; NVM-only checkpoint ~0%%;\n"
              "NVM/DRAM checkpoint ~13%%; disk checkpoint by far the largest.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig13_xs_runtime: %s\n", e.what());
  return 2;
}

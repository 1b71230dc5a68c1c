// Tests for the batched scenario-matrix layer: SweepSpec grammar (lists,
// ranges, geometric steps, bad-grammar rejection), deck expansion and cell
// ordering, the engine's serial-vs-parallel determinism, and per-cell failure
// isolation.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/registry.hpp"
#include "core/sweep.hpp"
#include "kernels/threads.hpp"

namespace adcc::core {
namespace {

SweepSpec parse_ok(const std::string& spec) {
  std::string error;
  const auto parsed = parse_sweep(spec, &error);
  EXPECT_TRUE(parsed.has_value()) << spec << ": " << error;
  return parsed.value_or(SweepSpec{});
}

std::string parse_err(const std::string& spec) {
  std::string error;
  EXPECT_FALSE(parse_sweep(spec, &error).has_value()) << spec;
  EXPECT_FALSE(error.empty()) << spec;
  return error;
}

// ---------------------------------------------------------------- grammar --

TEST(ParseSweep, Lists) {
  const SweepSpec spec = parse_ok("mode=native+pmem-tx,cache_mb=1+4+16");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].key, "mode");
  EXPECT_EQ(spec.axes[0].values, (std::vector<std::string>{"native", "pmem-tx"}));
  EXPECT_EQ(spec.axes[1].values, (std::vector<std::string>{"1", "4", "16"}));
  EXPECT_EQ(spec.cells(), 6u);
}

TEST(ParseSweep, SingleValueAndWhitespace) {
  const SweepSpec spec = parse_ok(" n = 4000 , policy = selective ");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].values, (std::vector<std::string>{"4000"}));
  EXPECT_EQ(spec.axes[1].values, (std::vector<std::string>{"selective"}));
  EXPECT_EQ(spec.cells(), 1u);
}

TEST(ParseSweep, Ranges) {
  const SweepSpec spec = parse_ok("threads=1:8");
  ASSERT_EQ(spec.axes.size(), 1u);
  ASSERT_EQ(spec.axes[0].values.size(), 8u);
  EXPECT_EQ(spec.axes[0].values.front(), "1");
  EXPECT_EQ(spec.axes[0].values.back(), "8");

  const SweepSpec stepped = parse_ok("n=1000:5000:1000");
  EXPECT_EQ(stepped.axes[0].values,
            (std::vector<std::string>{"1000", "2000", "3000", "4000", "5000"}));

  // Inclusive upper bound only when the step lands on it.
  const SweepSpec ragged = parse_ok("n=1:10:4");
  EXPECT_EQ(ragged.axes[0].values, (std::vector<std::string>{"1", "5", "9"}));

  const SweepSpec degenerate = parse_ok("n=7:7");
  EXPECT_EQ(degenerate.axes[0].values, (std::vector<std::string>{"7"}));
}

TEST(ParseSweep, GeometricSteps) {
  const SweepSpec spec = parse_ok("cache_mb=4:64:x2");
  EXPECT_EQ(spec.axes[0].values, (std::vector<std::string>{"4", "8", "16", "32", "64"}));

  // Size suffixes expand to bytes.
  const SweepSpec sizes = parse_ok("size=1M:64M:x4");
  EXPECT_EQ(sizes.axes[0].values,
            (std::vector<std::string>{"1048576", "4194304", "16777216", "67108864"}));

  // The last value below hi is kept even when the factor overshoots hi.
  const SweepSpec overshoot = parse_ok("n=3:20:x3");
  EXPECT_EQ(overshoot.axes[0].values, (std::vector<std::string>{"3", "9"}));
}

TEST(ParseSweep, ModeAllAndCanonicalization) {
  const SweepSpec spec = parse_ok("mode=all");
  EXPECT_EQ(spec.axes[0].values.size(), 7u);
  // Forgiving mode spellings canonicalize to mode_name.
  const SweepSpec alias = parse_ok("mode=ckpt_hetero+ALG");
  EXPECT_EQ(alias.axes[0].values, (std::vector<std::string>{"ckpt-nvm/dram", "alg-nvm"}));
  // Crash plans canonicalize too (default occurrence dropped).
  const SweepSpec crash = parse_ok("crash=none+point:cg:p_updated:1+fuzz:9");
  EXPECT_EQ(crash.axes[0].values,
            (std::vector<std::string>{"none", "point:cg:p_updated", "fuzz:9"}));
}

TEST(ParseSweep, WorkloadAllIsEveryRegisteredWorkload) {
  EXPECT_EQ(parse_ok("workload=all").axes[0].values, WorkloadRegistry::instance().names());
  EXPECT_EQ(parse_ok("workload=all").axes[0].values,
            (std::vector<std::string>{"cg", "mc", "mm"}));
  // No separate emulator workload: the emulator is the alg-* engines' cache_mb.
  parse_err("workload=cg-sim");
  // Flushing every lookup is the selective policy at interval=1.
  parse_err("policy=every");
}

TEST(ParseSweep, BadGrammar) {
  parse_err("");
  parse_err("n=1000,,mode=all");       // Stray comma.
  parse_err("n");                      // Missing '='.
  parse_err("n=");                     // No values.
  parse_err("n=1++2");                 // Empty token.
  parse_err("=5");                     // Empty key.
  parse_err("N=5");                    // Bad key charset.
  parse_err("n=5,n=6");                // Duplicate axis.
  parse_err("mode=warp-drive");        // Unknown mode.
  parse_err("workload=nosuch");        // Unknown workload.
  parse_err("crash=atstep:3");         // Malformed crash plan.
  parse_err("policy=sometimes");       // Unknown policy.
  parse_err("backend=cuda");           // Unknown kernel backend.
  parse_err("n=10:1");                 // Empty range.
  parse_err("n=1:10:0");               // Zero step.
  parse_err("n=1:10:x1");              // Geometric factor < 2.
  parse_err("n=0:8:x2");               // Geometric from zero never advances.
  parse_err("n=1:2:3:4");              // Too many range fields.
  parse_err("n=a:b");                  // Non-numeric bounds.
  EXPECT_NE(parse_err("n=1:1M").find("expands past"), std::string::npos);
}

// -------------------------------------------------------- deck expansion --

TEST(SweepSpec, ExpansionCountsAndOrdering) {
  const SweepSpec spec = parse_ok("mode=native+alg-nvm,n=100+200+300,crash=none+step:1");
  EXPECT_EQ(spec.cells(), 12u);

  // First axis slowest-varying (nested-loop order).
  const auto first = spec.assignment(0);
  EXPECT_EQ(first[0], (std::pair<std::string, std::string>{"mode", "native"}));
  EXPECT_EQ(first[1], (std::pair<std::string, std::string>{"n", "100"}));
  EXPECT_EQ(first[2], (std::pair<std::string, std::string>{"crash", "none"}));
  const auto second = spec.assignment(1);
  EXPECT_EQ(second[2], (std::pair<std::string, std::string>{"crash", "step:1"}));
  const auto last = spec.assignment(11);
  EXPECT_EQ(last[0].second, "alg-nvm");
  EXPECT_EQ(last[1].second, "300");
  EXPECT_EQ(last[2].second, "step:1");

  EXPECT_EQ(spec.canonical(), "mode=native+alg-nvm,n=100+200+300,crash=none+step:1");
  // canonical() round-trips through parse_sweep.
  EXPECT_EQ(parse_ok(spec.canonical()).cells(), 12u);
}

// ----------------------------------------------------------------- engine --

Options tiny_base() {
  Options base;
  base.set("quick", "1").set("n", "200").set("iters", "4").set("verify", "1");
  return base;
}

SweepConfig tiny_config(int jobs) {
  SweepConfig cfg;
  cfg.base = tiny_base();
  cfg.jobs = jobs;
  cfg.baseline = false;  // Keep engine tests fast and timing-free.
  cfg.scratch_root = std::filesystem::temp_directory_path() / "adcc_test_sweep";
  return cfg;
}

TEST(RunSweep, ExecutesEveryCellInDeckOrder) {
  const SweepSpec spec = parse_ok("workload=cg,mode=native+ckpt-nvm+alg-nvm,crash=none+step:2");
  const SweepResult deck = run_sweep(spec, tiny_config(1));
  ASSERT_EQ(deck.cells.size(), 6u);
  EXPECT_TRUE(deck.all_ok());
  for (std::size_t i = 0; i < deck.cells.size(); ++i) {
    const SweepCellResult& cell = deck.cells[i];
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.workload, "cg");
    EXPECT_EQ(cell.result.work_units, 4u);
    EXPECT_TRUE(cell.result.verify_ran);
    EXPECT_TRUE(cell.result.verified);
    const bool crashing = cell.crash_label == "step:2";
    EXPECT_EQ(cell.result.crashes, crashing ? 1u : 0u);
  }
  // Deck order follows the spec: native/none, native/step:2, ckpt-nvm/none, ...
  EXPECT_EQ(deck.cells[0].mode_label, "native");
  EXPECT_EQ(deck.cells[0].crash_label, "none");
  EXPECT_EQ(deck.cells[1].crash_label, "step:2");
  EXPECT_EQ(deck.cells[2].mode_label, "ckpt-nvm");
  EXPECT_EQ(deck.table(false).render(TableFormat::kCsv).find("ERROR"), std::string::npos);
}

TEST(RunSweep, ParallelDeckMatchesSerialByteForByte) {
  // Mid-unit fuzz plans + a boundary plan across three modes: everything that
  // must stay deterministic under worker-thread scheduling.
  const SweepSpec spec =
      parse_ok("workload=cg,mode=native+pmem-tx+alg-nvm,crash=step:1+fuzz:3,n=150+250");
  const SweepResult serial = run_sweep(spec, tiny_config(1));
  const SweepResult parallel = run_sweep(spec, tiny_config(4));
  ASSERT_EQ(serial.cells.size(), 12u);
  ASSERT_EQ(parallel.cells.size(), 12u);
  EXPECT_TRUE(serial.all_ok());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const SweepCellResult& s = serial.cells[i];
    const SweepCellResult& p = parallel.cells[i];
    EXPECT_EQ(s.assignment, p.assignment) << i;
    EXPECT_EQ(s.status, p.status) << i;
    EXPECT_EQ(s.result.work_units, p.result.work_units) << i;
    EXPECT_EQ(s.result.crashes, p.result.crashes) << i;
    EXPECT_EQ(s.result.crash_unit, p.result.crash_unit) << i;
    EXPECT_EQ(s.result.restart_unit, p.result.restart_unit) << i;
    EXPECT_EQ(s.result.crash_access, p.result.crash_access) << i;
    EXPECT_EQ(s.result.recomputation.units_lost, p.result.recomputation.units_lost) << i;
    EXPECT_EQ(s.result.recomputation.partial_units, p.result.recomputation.partial_units) << i;
  }
  // The timing-free renderings are byte-identical (the acceptance criterion
  // scripts/smoke.sh re-checks end to end through the adccbench CLI).
  EXPECT_EQ(serial.table(false).render(TableFormat::kCsv),
            parallel.table(false).render(TableFormat::kCsv));
  EXPECT_EQ(serial.table(false).render(TableFormat::kJson),
            parallel.table(false).render(TableFormat::kJson));
}

TEST(RunSweep, CellFailureIsIsolated) {
  // cache_mb configures only the alg-* engines, so the native cells' prepare()
  // rejects it while the alg-nvm cells run under the crash emulator: the deck
  // must report the failing cells and finish the rest.
  const SweepSpec spec = parse_ok("workload=cg,mode=native+alg-nvm,crash=none+step:2");
  SweepConfig cfg = tiny_config(1);
  cfg.base.set("cache_mb", "1");
  const SweepResult deck = run_sweep(spec, cfg);
  ASSERT_EQ(deck.cells.size(), 4u);
  EXPECT_FALSE(deck.all_ok());
  EXPECT_EQ(deck.count(SweepCellResult::Status::kOk), 2u);
  EXPECT_EQ(deck.count(SweepCellResult::Status::kError), 2u);
  for (const SweepCellResult& cell : deck.cells) {
    if (cell.mode_label == "native") {
      EXPECT_EQ(cell.status, SweepCellResult::Status::kError) << cell.index;
      EXPECT_FALSE(cell.error.empty());
    } else {
      EXPECT_EQ(cell.status, SweepCellResult::Status::kOk) << cell.index;
    }
  }
  // Error cells render as ERROR rows, not crashes of the table layer.
  const std::string csv = deck.table(false).render(TableFormat::kCsv);
  EXPECT_NE(csv.find("ERROR"), std::string::npos);
  // And the parallel deck fails the same cells in the same order.
  const SweepResult par = run_sweep(spec, [&] {
    SweepConfig c = tiny_config(3);
    c.base.set("cache_mb", "1");
    return c;
  }());
  EXPECT_EQ(deck.table(false).render(TableFormat::kCsv),
            par.table(false).render(TableFormat::kCsv));
}

TEST(RunSweep, CacheMbIsRejectedOutsideTheAlgModes) {
  // Only the alg-* engines run under the crash emulator: every other mode
  // fails its cell with a message naming the key instead of ignoring it.
  const SweepSpec spec =
      parse_ok("workload=cg+mm+mc,mode=native+ckpt-nvm+pmem-tx+alg-nvm,crash=step:2");
  SweepConfig cfg = tiny_config(1);
  cfg.base.set("cache_mb", "1").set("lookups", "2000");
  const SweepResult deck = run_sweep(spec, cfg);
  ASSERT_EQ(deck.cells.size(), 12u);
  for (const SweepCellResult& cell : deck.cells) {
    if (cell.mode_label == "alg-nvm") {
      EXPECT_EQ(cell.status, SweepCellResult::Status::kOk) << cell.index << cell.error;
    } else {
      EXPECT_EQ(cell.status, SweepCellResult::Status::kError) << cell.index;
      EXPECT_NE(cell.error.find("cache_mb"), std::string::npos) << cell.error;
    }
  }
}

TEST(RunSweep, PolicyIsRejectedOutsideMcAlgRuns) {
  const SweepSpec spec = parse_ok("workload=cg+mm+mc,mode=native+alg-nvm,policy=selective");
  SweepConfig cfg = tiny_config(1);
  cfg.base.set("lookups", "2000");
  const SweepResult deck = run_sweep(spec, cfg);
  ASSERT_EQ(deck.cells.size(), 6u);
  for (const SweepCellResult& cell : deck.cells) {
    if (cell.workload == "mc" && cell.mode_label == "alg-nvm") {
      EXPECT_EQ(cell.status, SweepCellResult::Status::kOk) << cell.index << cell.error;
    } else {
      EXPECT_EQ(cell.status, SweepCellResult::Status::kError) << cell.index;
      EXPECT_NE(cell.error.find("policy"), std::string::npos) << cell.error;
    }
  }
}

TEST(RunSweep, NativeBaselineDropsTheAlgOnlyKeys) {
  // The native baseline of a cache_mb / policy cell runs without both keys
  // (as it runs without the cell's mode and crash), so it neither fails nor
  // splits: every cell of one shape shares one baseline.
  const SweepSpec spec = parse_ok("workload=mc,mode=alg-nvm,policy=basic+selective,cache_mb=1+2");
  SweepConfig cfg = tiny_config(1);
  cfg.base.set("lookups", "2000");
  cfg.baseline = true;
  const SweepResult deck = run_sweep(spec, cfg);
  ASSERT_EQ(deck.cells.size(), 4u);
  EXPECT_TRUE(deck.all_ok());
  for (const SweepCellResult& cell : deck.cells) {
    EXPECT_GT(cell.native_seconds, 0.0) << cell.index;
    EXPECT_EQ(cell.native_seconds, deck.cells[0].native_seconds) << cell.index;
  }
}

TEST(RunSweep, CkptThreadsAndCompressionAreFirstClassAxes) {
  // The durability-engine knobs sweep like any other option key, and every
  // (threads, codec) combination verifies under crash-free and crashing runs
  // — thread count and compression are perf knobs, never semantics knobs.
  const SweepSpec spec = parse_ok(
      "workload=cg,mode=ckpt-nvm,ckpt_threads=1+4,ckpt_compress=none+lz,crash=none+step:2");
  const SweepResult deck = run_sweep(spec, tiny_config(1));
  ASSERT_EQ(deck.cells.size(), 8u);
  EXPECT_TRUE(deck.all_ok());
  for (const SweepCellResult& cell : deck.cells) {
    EXPECT_TRUE(cell.result.verified) << cell.index;
  }
}

TEST(RunSweep, TelemetryColumnsBlankWithoutTimingAndStayByteStable) {
  // The t_stage..t_kernel columns are wall-clock-derived: populated on a
  // telemetry deck under timing, "-" under table(false) — so smoke.sh's
  // serial-vs-parallel byte-diff and the memoized-baseline key never see them.
  const SweepSpec spec = parse_ok("workload=cg,mode=native+ckpt-nvm,crash=none");
  SweepConfig cfg = tiny_config(1);
  cfg.telemetry = true;
  const SweepResult deck = run_sweep(spec, cfg);
  ASSERT_EQ(deck.cells.size(), 2u);
  EXPECT_TRUE(deck.all_ok());

  const std::string timed = deck.table(true).render(TableFormat::kCsv);
  for (const char* col : {"t_stage", "t_crc", "t_io", "t_drain", "t_kernel"}) {
    EXPECT_NE(timed.find(col), std::string::npos) << col;
  }
  // The ckpt-nvm cell measured real checkpoint CRC work and kernel time; the
  // native cell ran no checkpoint stages at all.
  const SweepCellResult& native = deck.cells[0];
  const SweepCellResult& ckpt = deck.cells[1];
  ASSERT_TRUE(native.telemetry);
  ASSERT_TRUE(ckpt.telemetry);
  EXPECT_EQ(native.t_crc, 0.0);
  EXPECT_GT(ckpt.t_crc, 0.0);
  EXPECT_GT(ckpt.t_kernel, 0.0);

  // table(false) blanks every stage column even on a telemetry deck, and is
  // byte-identical to a deck that never collected telemetry.
  const std::string untimed = deck.table(false).render(TableFormat::kCsv);
  const SweepResult plain = run_sweep(spec, tiny_config(1));
  EXPECT_EQ(untimed, plain.table(false).render(TableFormat::kCsv));
}

TEST(RunSweep, FuzzSeedAxisSharesOneProbe) {
  // crash=fuzz:A+fuzz:B cells of one shape share a single probe repetition;
  // the shared plan must reproduce what the inline per-runner probe picks.
  const SweepSpec spec = parse_ok("workload=cg,mode=alg-nvm,crash=fuzz:5+fuzz:6");
  const SweepResult deck = run_sweep(spec, tiny_config(1));
  ASSERT_EQ(deck.cells.size(), 2u);
  EXPECT_TRUE(deck.all_ok());
  EXPECT_EQ(deck.cells[0].result.crashes, 1u);
  EXPECT_EQ(deck.cells[1].result.crashes, 1u);
  // Different seeds land different plans off the same probe (overwhelmingly).
  EXPECT_NE(deck.cells[0].result.crash_access, deck.cells[1].result.crash_access);

  const auto solo = WorkloadRegistry::instance().create("cg", tiny_base());
  ScenarioConfig sc;
  sc.mode = Mode::kAlgNvm;
  sc.crash = *parse_crash("fuzz:5");
  solo->tune_env(sc.mode, sc.env);
  const ScenarioResult inline_probe = run_scenario(*solo, sc);
  EXPECT_EQ(deck.cells[0].result.crash_access, inline_probe.crash_access);
}

TEST(RunSweep, ThreadsAxisDoesNotLeakPastTheDeck) {
  // Regression: run_cell used to omp_set_num_threads per cell and never
  // restore, so a threads=8+1 deck left whatever cell ran last as the
  // process-wide OpenMP max. The ScopedOmpThreads overlay must unwind to the
  // ambient value — observable in every build via requested_kernel_threads().
  ASSERT_EQ(requested_kernel_threads(), 0);
  {
    const ScopedOmpThreads ambient(5);
    const SweepSpec spec = parse_ok("workload=cg,mode=native,threads=8+1");
    const SweepResult deck = run_sweep(spec, tiny_config(1));
    ASSERT_EQ(deck.cells.size(), 2u);
    EXPECT_TRUE(deck.all_ok());
    EXPECT_EQ(requested_kernel_threads(), 5);  // Deck unwound to ambient.
  }
  EXPECT_EQ(requested_kernel_threads(), 0);
}

}  // namespace
}  // namespace adcc::core

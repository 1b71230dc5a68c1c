// Tests for the scenario layer: crash-plan parsing, crash-unit planning, and
// the ScenarioRunner driving every workload x mode x crash combination over
// tiny problem instances.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "cg/cg_workload.hpp"
#include "core/scenario.hpp"
#include "mc/mc_workload.hpp"
#include "mm/mm_workload.hpp"

namespace adcc::core {
namespace {

CrashScenario at_step(std::size_t k) {
  CrashScenario c;
  c.kind = CrashScenario::Kind::kAtStep;
  c.step = k;
  return c;
}

CrashScenario at_random(std::uint64_t seed) {
  CrashScenario c;
  c.kind = CrashScenario::Kind::kRandom;
  c.seed = seed;
  return c;
}

CrashScenario repeated(std::size_t n) {
  CrashScenario c;
  c.kind = CrashScenario::Kind::kRepeated;
  c.count = n;
  return c;
}

// ---------------------------------------------------------------- parsing --

TEST(ParseCrash, AcceptsAllSpellings) {
  EXPECT_EQ(parse_crash("none")->kind, CrashScenario::Kind::kNone);
  const auto step = parse_crash("step:7");
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->kind, CrashScenario::Kind::kAtStep);
  EXPECT_EQ(step->step, 7u);
  const auto rnd = parse_crash("random:99");
  ASSERT_TRUE(rnd.has_value());
  EXPECT_EQ(rnd->kind, CrashScenario::Kind::kRandom);
  EXPECT_EQ(rnd->seed, 99u);
  EXPECT_TRUE(parse_crash("random").has_value());
  const auto rep = parse_crash("repeat:3");
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->kind, CrashScenario::Kind::kRepeated);
  EXPECT_EQ(rep->count, 3u);
}

TEST(ParseCrash, AcceptsMidUnitSpellings) {
  const auto acc = parse_crash("access:1234");
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->kind, CrashScenario::Kind::kAtAccess);
  EXPECT_EQ(acc->access, 1234u);

  // Point names contain ':' themselves; the occurrence is the numeric tail.
  const auto p1 = parse_crash("point:cg:p_updated");
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->kind, CrashScenario::Kind::kAtPoint);
  EXPECT_EQ(p1->point, "cg:p_updated");
  EXPECT_EQ(p1->occurrence, 1u);
  const auto p15 = parse_crash("point:cg:p_updated:15");
  ASSERT_TRUE(p15.has_value());
  EXPECT_EQ(p15->point, "cg:p_updated");
  EXPECT_EQ(p15->occurrence, 15u);
  const auto plain = parse_crash("point:boundary:7");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->point, "boundary");
  EXPECT_EQ(plain->occurrence, 7u);

  const auto fz = parse_crash("fuzz:42");
  ASSERT_TRUE(fz.has_value());
  EXPECT_EQ(fz->kind, CrashScenario::Kind::kFuzz);
  EXPECT_EQ(fz->seed, 42u);
  EXPECT_TRUE(parse_crash("fuzz").has_value());

  for (const char* spec : {"access:1", "point:xs:lookup_end:100", "fuzz:9"}) {
    EXPECT_TRUE(crash_is_mid_unit(*parse_crash(spec))) << spec;
  }
  for (const char* spec : {"none", "step:3", "random", "repeat:2"}) {
    EXPECT_FALSE(crash_is_mid_unit(*parse_crash(spec))) << spec;
  }
}

TEST(ParseCrash, RejectsMalformedSpecs) {
  for (const char* bad : {"step", "step:", "step:0", "step:x", "repeat:0", "boom", "random:x",
                          "access", "access:", "access:0", "access:x", "point", "point:",
                          "point::3", "point:name:0", "fuzz:x"}) {
    EXPECT_FALSE(parse_crash(bad).has_value()) << bad;
  }
}

TEST(ParseCrash, DoubleFaultChains) {
  // HEAD^TAIL: the tail is armed before the recovery following the head's
  // crash, so it lands inside recover().
  const auto chained = parse_crash("step:2^point:ckpt_restore:1");
  ASSERT_TRUE(chained.has_value());
  EXPECT_EQ(chained->kind, CrashScenario::Kind::kAtStep);
  ASSERT_EQ(chained->then.size(), 1u);
  EXPECT_EQ(chained->then[0].kind, CrashScenario::Kind::kAtPoint);
  EXPECT_EQ(chained->then[0].point, "ckpt_restore");
  EXPECT_EQ(crash_name(*chained), "step:2^point:ckpt_restore");

  const auto triple = parse_crash("fuzz:7^access:500^point:ckpt_restore:2");
  ASSERT_TRUE(triple.has_value());
  EXPECT_EQ(triple->kind, CrashScenario::Kind::kFuzz);
  ASSERT_EQ(triple->then.size(), 2u);
  EXPECT_EQ(triple->then[0].kind, CrashScenario::Kind::kAtAccess);
  EXPECT_EQ(triple->then[1].occurrence, 2u);
  EXPECT_EQ(crash_name(*parse_crash(crash_name(*triple))), crash_name(*triple));

  // Tails must be mid-unit (access/point) plans; heads must crash at all.
  for (const char* bad : {"step:2^step:3", "step:2^repeat:2", "none^access:5",
                          "^access:5", "step:2^", "step:2^boom", "access:5^fuzz:3"}) {
    EXPECT_FALSE(parse_crash(bad).has_value()) << bad;
  }
}

TEST(ParseCrash, RoundTripsThroughCrashName) {
  for (const char* spec : {"none", "step:4", "random:12", "repeat:2", "access:5000",
                           "point:cg:p_updated", "point:cg:p_updated:15",
                           "point:mm:loop2_end:4", "fuzz:31"}) {
    const auto c = parse_crash(spec);
    ASSERT_TRUE(c.has_value()) << spec;
    const auto again = parse_crash(crash_name(*c));
    ASSERT_TRUE(again.has_value()) << spec;
    EXPECT_EQ(again->kind, c->kind) << spec;
    EXPECT_EQ(again->access, c->access) << spec;
    EXPECT_EQ(again->point, c->point) << spec;
    EXPECT_EQ(again->occurrence, c->occurrence) << spec;
    EXPECT_EQ(crash_name(*again), crash_name(*c)) << spec;
  }
}

TEST(CrashUnits, PlansBoundaries) {
  EXPECT_TRUE(crash_units({}, 10).empty());
  CrashScenario step = at_step(25);
  EXPECT_EQ(crash_units(step, 10), std::vector<std::size_t>{10});  // Clamped.
  step.step = 3;
  EXPECT_EQ(crash_units(step, 10), std::vector<std::size_t>{3});
  const CrashScenario rnd = at_random(42);
  const auto a = crash_units(rnd, 10);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_GE(a[0], 1u);
  EXPECT_LE(a[0], 10u);
  EXPECT_EQ(a, crash_units(rnd, 10));  // Deterministic in the seed.
  const auto units = crash_units(repeated(3), 12);
  EXPECT_EQ(units, (std::vector<std::size_t>{3, 6, 9}));
  EXPECT_TRUE(std::is_sorted(units.begin(), units.end()));
}

TEST(CrashUnits, EdgeCases) {
  // step:K past the end of the run clamps to the final boundary.
  EXPECT_EQ(crash_units(at_step(1000), 6), std::vector<std::size_t>{6});
  // repeat:N > work units degrades to at most one crash per boundary.
  const auto dense = crash_units(repeated(50), 4);
  EXPECT_LE(dense.size(), 4u);
  EXPECT_FALSE(dense.empty());
  for (std::size_t i = 1; i < dense.size(); ++i) EXPECT_LT(dense[i - 1], dense[i]);
  // Zero-unit runs crash nowhere.
  EXPECT_TRUE(crash_units(at_step(1), 0).empty());
  EXPECT_TRUE(crash_units(repeated(3), 0).empty());
  // Mid-unit plans have no boundary schedule: they arm the fault surface.
  EXPECT_TRUE(crash_units(*parse_crash("access:100"), 10).empty());
  EXPECT_TRUE(crash_units(*parse_crash("point:cg:iter_end"), 10).empty());
  EXPECT_TRUE(crash_units(*parse_crash("fuzz:1"), 10).empty());
}

// ----------------------------------------------------------------- runner --

ScenarioConfig tiny_config(const Workload& w, Mode mode) {
  ScenarioConfig cfg;
  cfg.mode = mode;
  cfg.env.scratch_dir = std::filesystem::temp_directory_path() / "adcc_scenario_test";
  w.tune_env(mode, cfg.env);
  cfg.verify = true;
  return cfg;
}

cg::CgWorkloadConfig tiny_cg() {
  cg::CgWorkloadConfig cfg;
  cfg.n = 96;
  cfg.nz_per_row = 6;
  cfg.iters = 6;
  return cfg;
}

mc::McWorkloadConfig tiny_mc() {
  mc::McWorkloadConfig cfg;
  cfg.data.n_nuclides = 6;
  cfg.data.gridpoints_per_nuclide = 60;
  cfg.lookups = 600;
  cfg.interval = 100;  // 6 units.
  return cfg;
}

mm::MmWorkloadConfig tiny_mm() {
  mm::MmWorkloadConfig cfg;
  cfg.n = 64;
  cfg.rank_k = 16;  // 4 panels, 5 addition blocks in alg modes.
  return cfg;
}

TEST(ScenarioRunner, TinyCgVerifiesInAllSevenModes) {
  cg::CgWorkload w(tiny_cg());
  for (Mode m : all_modes()) {
    const ScenarioResult res = run_scenario(w, tiny_config(w, m));
    EXPECT_EQ(res.work_units, 6u) << mode_name(m);
    EXPECT_EQ(res.crashes, 0u) << mode_name(m);
    EXPECT_TRUE(res.verify_ran) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
    EXPECT_GT(res.seconds, 0.0) << mode_name(m);
  }
}

TEST(ScenarioRunner, TinyMmVerifiesInAllSevenModes) {
  mm::MmWorkload w(tiny_mm());
  for (Mode m : all_modes()) {
    const ScenarioResult res = run_scenario(w, tiny_config(w, m));
    const bool alg = durability_kind(m) == DurabilityKind::kAlgorithm;
    EXPECT_EQ(res.work_units, alg ? 9u : 4u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, TinyMcVerifiesInAllSevenModes) {
  mc::McWorkload w(tiny_mc());
  for (Mode m : all_modes()) {
    const ScenarioResult res = run_scenario(w, tiny_config(w, m));
    EXPECT_EQ(res.work_units, 6u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

// The ISSUE's RecomputationBreakdown invariants: a crash after unit k recovers
// with restart <= k + 1 and units_lost == k + 1 - restart, and still verifies.
TEST(ScenarioRunner, CrashAtStepKInvariantsHoldInAllModes) {
  cg::CgWorkload w(tiny_cg());
  const CrashScenario crash = at_step(3);
  for (Mode m : all_modes()) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = crash;
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << mode_name(m);
    EXPECT_EQ(res.crash_unit, 3u) << mode_name(m);
    EXPECT_GE(res.restart_unit, 1u) << mode_name(m);
    EXPECT_LE(res.restart_unit, res.crash_unit + 1) << mode_name(m);
    EXPECT_EQ(res.recomputation.units_lost, res.crash_unit + 1 - res.restart_unit)
        << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, NativeCrashLosesEverything) {
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kNative);
  cfg.crash = at_step(4);
  const ScenarioResult res = run_scenario(w, cfg);
  EXPECT_EQ(res.restart_unit, 1u);       // restart <= crash: all work redone.
  EXPECT_LE(res.restart_unit, res.crash_unit);
  EXPECT_EQ(res.recomputation.units_lost, 4u);
  EXPECT_GT(res.recomputation.resume_seconds, 0.0);
  EXPECT_TRUE(res.verified);
}

TEST(ScenarioRunner, DurableModesLoseNothingAtBoundaries) {
  cg::CgWorkload w(tiny_cg());
  for (Mode m : {Mode::kCkptNvm, Mode::kPmemTx, Mode::kAlgNvm}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = at_step(4);
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.recomputation.units_lost, 0u) << mode_name(m);
    EXPECT_EQ(res.restart_unit, 5u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, EmulatedAlgModesVerifyAndLoseCacheResidentWork) {
  // The sibling of DurableModesLoseNothingAtBoundaries on the emulated
  // substrate: with cache_mb the alg-* arena keeps only flushed or evicted
  // lines, and recovery must still verify on every workload and plan family.
  cg::CgWorkloadConfig cgc = tiny_cg();
  cgc.cache_bytes = 1u << 20;
  mm::MmWorkloadConfig mmc = tiny_mm();
  mmc.cache_bytes = 1u << 20;
  mc::McWorkloadConfig mcc = tiny_mc();
  mcc.cache_bytes = 1u << 20;
  cg::CgWorkload cgw(cgc);
  mm::MmWorkload mmw(mmc);
  mc::McWorkload mcw(mcc);
  const std::vector<std::pair<Workload*, const char*>> cases = {
      {&cgw, "point:cg:p_updated:4"}, {&mmw, "point:mm:loop1_end:3"},
      {&mcw, "point:xs:lookup_end:350"}};
  for (const auto& [w, point] : cases) {
    for (const std::string plan : {"none", "step:4", point, "fuzz:3", "fuzz:8"}) {
      ScenarioConfig cfg = tiny_config(*w, Mode::kAlgNvm);
      cfg.crash = parse_crash_or_throw(plan);
      const ScenarioResult res = run_scenario(*w, cfg);
      EXPECT_EQ(res.crashes, plan == "none" ? 0u : 1u) << w->name() << " " << plan;
      if (res.crashes > 0) {
        EXPECT_GT(res.recomputation.detect_seconds, 0.0) << w->name() << " " << plan;
      }
      EXPECT_TRUE(res.verified) << w->name() << " " << plan;
    }
  }
  // CG flushes only its counter line, and at --quick size the 1 MB cache
  // holds every history row: a crash after iteration 7 loses all seven. The
  // host-memory arena loses none.
  Options quick;
  quick.set("quick", "1");
  cg::CgWorkloadConfig q = cg::cg_workload_config(quick);
  for (const std::size_t cache : {std::size_t{1} << 20, std::size_t{0}}) {
    q.cache_bytes = cache;
    cg::CgWorkload w(q);
    ScenarioConfig cfg = tiny_config(w, Mode::kAlgNvm);
    cfg.crash = at_step(7);
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.recomputation.units_lost, cache > 0 ? 7u : 0u) << cache;
    EXPECT_TRUE(res.verified) << cache;
  }
}

TEST(ScenarioRunner, RepeatedCrashesAllRecover) {
  mc::McWorkload w(tiny_mc());
  for (Mode m : {Mode::kNative, Mode::kCkptNvm, Mode::kAlgNvm}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = repeated(2);
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 2u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, RandomCrashIsDeterministicInSeed) {
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kAlgNvm);
  cfg.crash = at_random(77);
  const ScenarioResult a = run_scenario(w, cfg);
  const ScenarioResult b = run_scenario(w, cfg);
  EXPECT_EQ(a.crash_unit, b.crash_unit);
  EXPECT_EQ(a.crashes, 1u);
  EXPECT_TRUE(a.verified);
}

TEST(ScenarioRunner, MmAlgCrashInLoopTwoRecovers) {
  mm::MmWorkload w(tiny_mm());
  ScenarioConfig cfg = tiny_config(w, Mode::kAlgNvm);
  cfg.crash = at_step(6);  // Unit 6 = addition block 2.
  const ScenarioResult res = run_scenario(w, cfg);
  EXPECT_EQ(res.crash_unit, 6u);
  EXPECT_EQ(res.recomputation.units_lost, 0u);
  EXPECT_TRUE(res.verified);
}

TEST(ScenarioRunner, NormalizesAgainstProvidedBaseline) {
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kNative);
  cfg.native_seconds = 1.0;
  const ScenarioResult res = run_scenario(w, cfg);
  EXPECT_DOUBLE_EQ(res.time.normalized, res.seconds);
}

TEST(ScenarioRunner, MultipleRepsReportMedian) {
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kAlgNvm);
  cfg.reps = 3;
  cfg.warmup = true;
  const ScenarioResult res = run_scenario(w, cfg);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_TRUE(res.verified);
}

// --------------------------------------------------------------- mid-unit --

TEST(ScenarioRunner, MidUnitPointCrashRecoversInAllModes) {
  cg::CgWorkload w(tiny_cg());
  for (Mode m : all_modes()) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("point:cg:iter_end:3");
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << mode_name(m);
    // iter_end fires after the unit's compute, before make_durable/++done.
    EXPECT_EQ(res.recomputation.partial_units, 1u) << mode_name(m);
    EXPECT_EQ(res.crash_unit, 2u) << mode_name(m);  // Two units had completed.
    EXPECT_EQ(res.crash_site, "cg:iter_end") << mode_name(m);
    EXPECT_GT(res.crash_access, 0u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, MidUnitAccessCrashRecoversInAllModes) {
  cg::CgWorkload w(tiny_cg());
  for (Mode m : all_modes()) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("access:2000");  // Inside unit 2 at n=96, nz=6.
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << mode_name(m);
    EXPECT_EQ(res.recomputation.partial_units, 1u) << mode_name(m);
    EXPECT_GE(res.crash_access, 2000u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, FuzzCrashIsDeterministicInSeed) {
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kAlgNvm);
  cfg.crash = *parse_crash("fuzz:17");
  const ScenarioResult a = run_scenario(w, cfg);
  const ScenarioResult b = run_scenario(w, cfg);
  EXPECT_EQ(a.crashes, 1u);
  EXPECT_EQ(a.crash_access, b.crash_access);
  EXPECT_EQ(a.crash_unit, b.crash_unit);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);

  // A different seed lands elsewhere (overwhelmingly likely across the run).
  cfg.crash = *parse_crash("fuzz:18");
  const ScenarioResult c = run_scenario(w, cfg);
  EXPECT_EQ(c.crashes, 1u);
  EXPECT_TRUE(c.verified);
}

TEST(ScenarioRunner, FuzzSweepRecoversForAllWorkloadsAndModes) {
  cg::CgWorkload cg(tiny_cg());
  mm::MmWorkload mm(tiny_mm());
  mc::McWorkload mc(tiny_mc());
  Workload* workloads[] = {&cg, &mm, &mc};
  for (Workload* w : workloads) {
    for (Mode m : all_modes()) {
      ScenarioConfig cfg = tiny_config(*w, m);
      cfg.crash = *parse_crash("fuzz:5");
      const ScenarioResult res = run_scenario(*w, cfg);
      EXPECT_EQ(res.crashes, 1u) << w->name() << "/" << mode_name(m);
      EXPECT_TRUE(res.verified) << w->name() << "/" << mode_name(m);
    }
  }
}

// --------------------------------------------- durability-engine crashes --

TEST(ScenarioRunner, CrashMidCheckpointSaveIsDetectedAsTorn) {
  // point:ckpt_chunk:1 fires after the first chunk of the first save: the
  // in-flight checkpoint is torn, the marker never committed, and recovery
  // must classify the torn chunks, fall back to "no checkpoint", and redo the
  // lost unit.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : {Mode::kCkptNvm, Mode::kCkptDisk, Mode::kCkptHetero}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("point:ckpt_chunk:1");
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << mode_name(m);
    EXPECT_EQ(res.crash_site, "ckpt_chunk") << mode_name(m);
    // The unit itself completed; the *save* was interrupted.
    EXPECT_EQ(res.recomputation.partial_units, 0u) << mode_name(m);
    EXPECT_GE(res.recomputation.units_lost, 1u) << mode_name(m);
    if (m == Mode::kCkptHetero) {
      // The interrupted chunks died in the volatile DRAM staging cache: the
      // slot stays clean-old rather than torn (hetero's crash signature).
      EXPECT_EQ(res.recomputation.torn_chunks, 0u) << mode_name(m);
    } else {
      EXPECT_GE(res.recomputation.torn_chunks, 1u) << mode_name(m);
    }
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, CrashMidLaterCheckpointKeepsPreviousCheckpoint) {
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kCkptNvm);
  // The set saves 4 chunks per unit at tiny sizes; occurrence 6 lands inside
  // the second unit's save, so recovery restores checkpoint 1 (one unit lost).
  cfg.crash = *parse_crash("point:ckpt_chunk:6");
  const ScenarioResult res = run_scenario(w, cfg);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.crash_unit, 2u);
  EXPECT_EQ(res.restart_unit, 2u);
  EXPECT_EQ(res.recomputation.units_lost, 1u);
  EXPECT_GE(res.recomputation.torn_chunks, 1u);
  EXPECT_TRUE(res.verified);
}

TEST(ScenarioRunner, CrashDuringRecoveryDoubleFaults) {
  // step:3 crashes at a boundary; point:ckpt_restore:1 is armed before the
  // recovery and fires inside the checkpoint load — the runner re-injects and
  // retries recovery, so the run still completes and verifies.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : {Mode::kCkptNvm, Mode::kCkptDisk, Mode::kCkptHetero}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("step:3^point:ckpt_restore:1");
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 2u) << mode_name(m);
    EXPECT_EQ(res.crash_site, "ckpt_restore") << mode_name(m);
    EXPECT_EQ(res.restart_unit, 4u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, DoubleTailChainInterruptsRecoveryTwice) {
  // PLAN^TAIL^TAIL: the grammar has accepted double tails since PR 4, but no
  // test ever drove one. step:3 crashes at the boundary; the first
  // ckpt_restore tail kills the recovery, and the SECOND tail is armed before
  // the retry, killing recovery again — three crashes total, then a clean
  // third recovery completes and the run verifies.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : {Mode::kCkptNvm, Mode::kCkptDisk}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("step:3^point:ckpt_restore:1^point:ckpt_restore:1");
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 3u) << mode_name(m);
    EXPECT_EQ(res.crash_site, "ckpt_restore") << mode_name(m);
    EXPECT_EQ(res.restart_unit, 4u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
  // Where recovery never touches checkpoint chunks, neither tail fires and
  // both must be disarmed harmlessly.
  ScenarioConfig cfg = tiny_config(w, Mode::kAlgNvm);
  cfg.crash = *parse_crash("step:3^point:ckpt_restore:1^point:ckpt_restore:1");
  const ScenarioResult res = run_scenario(w, cfg);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_TRUE(res.verified);
}

// ------------------------------------------------------------ silent flips --

TEST(ScenarioRunner, FlipDetectedByOnlineAbftInAlgModes) {
  // Seed 7 lands a flip inside a CG iteration's history rows; the online-ABFT
  // invariant check at the next unit catches it (latency 1 unit) and rolls
  // back, so the run still verifies.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : {Mode::kAlgNvm, Mode::kAlgHetero}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("flip:7");
    const ScenarioResult res = run_scenario(w, cfg);
    const RecomputationBreakdown& rb = res.recomputation;
    EXPECT_EQ(rb.flips, 1u) << mode_name(m);
    EXPECT_EQ(rb.flips_detected, 1u) << mode_name(m);
    EXPECT_EQ(rb.detect_latency_units, 1u) << mode_name(m);
    EXPECT_EQ(rb.flips_miscorrected, 0u) << mode_name(m);
    EXPECT_EQ(res.crash_site, "cg:invariant") << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, FlipIsAnHonestMissInUndefendedModes) {
  // The same seed in modes with no integrity checks: the flip fires, nothing
  // detects it, and end-of-run verify() reports the corruption honestly.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : {Mode::kNative, Mode::kCkptNvm, Mode::kPmemTx}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("flip:7");
    const ScenarioResult res = run_scenario(w, cfg);
    const RecomputationBreakdown& rb = res.recomputation;
    EXPECT_EQ(rb.flips, 1u) << mode_name(m);
    EXPECT_EQ(rb.flips_detected, 0u) << mode_name(m);
    EXPECT_EQ(res.crashes, 0u) << mode_name(m);
    EXPECT_TRUE(res.verify_ran) << mode_name(m);
    EXPECT_FALSE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, FlipCorrectedInPlaceByMmChecksums) {
  // MM's row/column checksums can REPAIR a single flipped element: detection
  // without rollback (flips_corrected), and the run verifies.
  mm::MmWorkload w(tiny_mm());
  ScenarioConfig cfg = tiny_config(w, Mode::kNative);
  cfg.crash = *parse_crash("flip:8");  // Seed 8 hits a correctable element here.
  const ScenarioResult res = run_scenario(w, cfg);
  const RecomputationBreakdown& rb = res.recomputation;
  EXPECT_EQ(rb.flips, 1u);
  EXPECT_EQ(rb.flips_detected, 1u);
  EXPECT_GE(rb.flips_corrected, 1u);
  EXPECT_EQ(rb.flips_miscorrected, 0u);
  EXPECT_EQ(res.crashes, 0u);  // Correction in place: no rollback needed.
  EXPECT_TRUE(res.verified);
}

TEST(ScenarioRunner, FlipDetectedByMcTallyInvariantInAllModes) {
  // The MC tally invariant (counter sum == completed lookups) runs before
  // every publish in every engine, so a counter flip is caught at latency 0
  // regardless of mode, and the rollback recovers exact tallies.
  mc::McWorkload w(tiny_mc());
  for (Mode m : {Mode::kNative, Mode::kCkptNvm, Mode::kPmemTx, Mode::kAlgNvm}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("flip:7");
    const ScenarioResult res = run_scenario(w, cfg);
    const RecomputationBreakdown& rb = res.recomputation;
    EXPECT_EQ(rb.flips, 1u) << mode_name(m);
    EXPECT_EQ(rb.flips_detected, 1u) << mode_name(m);
    EXPECT_EQ(rb.detect_latency_units, 0u) << mode_name(m);
    EXPECT_EQ(res.crash_site, "mc:tally") << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, FlipThenCrashChainComposesWithCheckpointSave) {
  // flip:SEED^point:ckpt_chunk — the silent head fires WITHOUT raising, the
  // tail is armed at injection time, and the next checkpoint save's first
  // chunk crashes. The unit that hosted the flip checkpoints its (corrupted)
  // state before the tail fires, so the rollback restores corruption the
  // checkpoint scheme cannot see — the chain composes, the crash recovers,
  // and verify() reports the persistent miss honestly.
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kCkptNvm);
  cfg.crash = *parse_crash("flip:7^point:ckpt_chunk:1");
  const ScenarioResult res = run_scenario(w, cfg);
  const RecomputationBreakdown& rb = res.recomputation;
  EXPECT_EQ(rb.flips, 1u);
  EXPECT_EQ(rb.flips_detected, 0u);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.crash_site, "ckpt_chunk");
  EXPECT_TRUE(res.verify_ran);
  EXPECT_FALSE(res.verified);  // The checkpoint itself captured the flip.
}

TEST(ScenarioRunner, FlipIsDeterministicInSeed) {
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kAlgNvm);
  cfg.crash = *parse_crash("flip:7");
  const ScenarioResult a = run_scenario(w, cfg);
  const ScenarioResult b = run_scenario(w, cfg);
  EXPECT_EQ(a.recomputation.flips, b.recomputation.flips);
  EXPECT_EQ(a.recomputation.flips_detected, b.recomputation.flips_detected);
  EXPECT_EQ(a.recomputation.detect_latency_units, b.recomputation.detect_latency_units);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.verified, b.verified);
}

TEST(ScenarioRunner, UnfiredRecoveryChainLinkIsHarmless) {
  // In a mode whose recovery never loads checkpoint chunks, the armed
  // ckpt_restore tail never fires and must be disarmed when recovery
  // completes — the resumed execution may not inherit a live trigger.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : {Mode::kNative, Mode::kAlgNvm, Mode::kPmemTx}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("step:3^point:ckpt_restore:1");
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, SharedFuzzProbeMatchesInlineProbe) {
  // A pre-measured probe (the sweep engine's per-shape cache) must land the
  // fuzz crash on exactly the access the inline per-runner probe picks.
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_config(w, Mode::kAlgNvm);
  cfg.crash = *parse_crash("fuzz:23");
  const ScenarioResult inline_probe = run_scenario(w, cfg);

  cg::CgWorkload probe_instance(tiny_cg());
  cfg.fuzz_boundaries = std::make_shared<const std::vector<std::uint64_t>>(
      probe_fuzz_boundaries(probe_instance, Mode::kAlgNvm, cfg.env));
  cg::CgWorkload shared_instance(tiny_cg());
  const ScenarioResult shared = run_scenario(shared_instance, cfg);

  EXPECT_EQ(shared.crashes, 1u);
  EXPECT_EQ(shared.crash_access, inline_probe.crash_access);
  EXPECT_EQ(shared.crash_unit, inline_probe.crash_unit);
  EXPECT_TRUE(shared.verified);
}

// ----------------------------------------------- asynchronous checkpoints --

constexpr Mode kCkptModes[] = {Mode::kCkptDisk, Mode::kCkptNvm, Mode::kCkptHetero};

ScenarioConfig tiny_async_config(const Workload& w, Mode mode) {
  ScenarioConfig cfg = tiny_config(w, mode);
  cfg.env.ckpt_async = true;
  return cfg;
}

TEST(ScenarioRunner, AsyncCheckpointVerifiesAndOverlapsInAllCkptModes) {
  cg::CgWorkload w(tiny_cg());
  for (Mode m : kCkptModes) {
    const ScenarioResult res = run_scenario(w, tiny_async_config(w, m));
    EXPECT_TRUE(res.verified) << mode_name(m);
    EXPECT_EQ(res.crashes, 0u) << mode_name(m);
    // Every unit after the first starts with the previous save's drain in
    // flight, so some execution time is accounted as overlapped.
    EXPECT_GT(res.recomputation.overlap_seconds, 0.0) << mode_name(m);
    // The synchronous scheme never overlaps.
    const ScenarioResult sync = run_scenario(w, tiny_config(w, m));
    EXPECT_EQ(sync.recomputation.overlap_seconds, 0.0) << mode_name(m);
  }
}

TEST(ScenarioRunner, AsyncCrashMidDrainClassifiesLikeSyncMidSave) {
  // ckpt_drain:1 kills the very first background drain; the exception
  // surfaces at the join inside the NEXT unit's save, so the runner accounts
  // a crash after that completed unit with a torn (file/NVM) or clean-old
  // (hetero) in-flight slot — exactly the synchronous ckpt_chunk taxonomy.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : kCkptModes) {
    ScenarioConfig cfg = tiny_async_config(w, m);
    cfg.crash = *parse_crash("point:ckpt_drain:1");
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << mode_name(m);
    EXPECT_EQ(res.crash_site, "ckpt_drain") << mode_name(m);
    EXPECT_EQ(res.recomputation.partial_units, 0u) << mode_name(m);
    EXPECT_GE(res.recomputation.units_lost, 1u) << mode_name(m);
    if (m == Mode::kCkptHetero) {
      EXPECT_EQ(res.recomputation.torn_chunks, 0u) << mode_name(m);
    } else {
      EXPECT_GE(res.recomputation.torn_chunks, 1u) << mode_name(m);
    }
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, AsyncCrashDuringStagingKeepsPreviousCheckpoint) {
  // The cg checkpoint set stages 4 chunks per save at tiny sizes, so
  // ckpt_stage:6 lands two chunks into the SECOND unit's staging pass. The
  // backend is untouched by a staging crash: recovery restores checkpoint 1
  // (one unit lost) and finds zero torn chunks on every medium.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : kCkptModes) {
    ScenarioConfig cfg = tiny_async_config(w, m);
    cfg.crash = *parse_crash("point:ckpt_stage:6");
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << mode_name(m);
    EXPECT_EQ(res.crash_site, "ckpt_stage") << mode_name(m);
    EXPECT_EQ(res.crash_unit, 2u) << mode_name(m);
    EXPECT_EQ(res.restart_unit, 2u) << mode_name(m);
    EXPECT_EQ(res.recomputation.units_lost, 1u) << mode_name(m);
    EXPECT_EQ(res.recomputation.torn_chunks, 0u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

TEST(ScenarioRunner, AsyncCrashInFinalDrainStillCompletesDurably) {
  // 6 units x 4 chunks/save: occurrence 21 lands in the LAST unit's drain,
  // which the runner joins via wait_durable() after run_step() returns false.
  // The crash there must be recovered and re-executed, not lost.
  cg::CgWorkload w(tiny_cg());
  ScenarioConfig cfg = tiny_async_config(w, Mode::kCkptNvm);
  cfg.crash = *parse_crash("point:ckpt_drain:21");
  const ScenarioResult res = run_scenario(w, cfg);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.crash_site, "ckpt_drain");
  EXPECT_EQ(res.crash_unit, 6u);
  // The drain interrupted a save, not a unit: nothing is partial.
  EXPECT_EQ(res.recomputation.partial_units, 0u);
  EXPECT_GE(res.recomputation.units_lost, 1u);
  EXPECT_TRUE(res.verified);
}

TEST(ScenarioRunner, AsyncMidUnitAndBoundaryCrashesRecoverInAllCkptModes) {
  // fuzz lands mid-unit while a drain may be in flight (inject_crash aborts
  // it — the abort-the-drain path), step:3 fires at a boundary; both must
  // recover and verify under async exactly as under sync.
  cg::CgWorkload w(tiny_cg());
  for (Mode m : kCkptModes) {
    for (const char* plan : {"fuzz:5", "step:3"}) {
      ScenarioConfig cfg = tiny_async_config(w, m);
      cfg.crash = *parse_crash(plan);
      const ScenarioResult res = run_scenario(w, cfg);
      EXPECT_EQ(res.crashes, 1u) << mode_name(m) << " " << plan;
      EXPECT_TRUE(res.verified) << mode_name(m) << " " << plan;
    }
  }
}

TEST(ScenarioRunner, AsyncMatchesSyncResultsInMmAndMc) {
  // The other two adapters inherit the async engine through CheckpointSet;
  // crash-free and crashing runs must verify under every checkpoint medium.
  mm::MmWorkload mm(tiny_mm());
  mc::McWorkload mc(tiny_mc());
  for (Mode m : kCkptModes) {
    for (Workload* w : {static_cast<Workload*>(&mm), static_cast<Workload*>(&mc)}) {
      ScenarioConfig cfg = tiny_async_config(*w, m);
      EXPECT_TRUE(run_scenario(*w, cfg).verified) << w->name() << " " << mode_name(m);
      cfg.crash = *parse_crash("point:ckpt_drain:2");
      const ScenarioResult res = run_scenario(*w, cfg);
      EXPECT_EQ(res.crashes, 1u) << w->name() << " " << mode_name(m);
      EXPECT_TRUE(res.verified) << w->name() << " " << mode_name(m);
    }
  }
}

TEST(ScenarioRunner, MidUnitCrashInMcIntervalNeverLeaksPartialTallies) {
  // A crash between two lookups of one interval must restart from the last
  // durable boundary with boundary-exact tallies — the hazard the volatile
  // working copy + durable snapshot split exists to prevent.
  mc::McWorkload w(tiny_mc());
  for (Mode m : {Mode::kPmemTx, Mode::kAlgNvm, Mode::kCkptNvm}) {
    ScenarioConfig cfg = tiny_config(w, m);
    cfg.crash = *parse_crash("point:xs:lookup_end:250");  // Lookup 250 = unit 3.
    const ScenarioResult res = run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << mode_name(m);
    EXPECT_EQ(res.crash_unit, 2u) << mode_name(m);
    EXPECT_EQ(res.recomputation.units_lost, 0u) << mode_name(m);
    EXPECT_TRUE(res.verified) << mode_name(m);
  }
}

}  // namespace
}  // namespace adcc::core

// Tests for the fault-injection engine: FaultSurface semantics (software
// counting, point occurrences, one-shot firing, emulator forwarding, silent
// flips), a seeded property fuzz over the whole crash-plan grammar, and the
// alg-* engines under the crash emulator driven through ScenarioRunner.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cg/cg_workload.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/fault.hpp"
#include "core/scenario.hpp"
#include "mc/mc_workload.hpp"
#include "memsim/memsim.hpp"
#include "mm/mm_workload.hpp"
#include "nvm/nvm_region.hpp"

namespace adcc {
namespace {

using core::CrashScenario;
using core::FaultSurface;

TEST(FaultSurface, CountsTicksAndFiresAccessTrigger) {
  FaultSurface f;
  EXPECT_FALSE(f.armed());
  f.tick(10);
  EXPECT_EQ(f.access_count(), 10u);
  f.arm_at_access(25);
  EXPECT_TRUE(f.armed());
  f.tick(10);  // 20 < 25: no fire.
  bool fired = false;
  try {
    f.tick(10);  // 30 >= 25: fires mid-batch.
  } catch (const memsim::CrashException& e) {
    fired = true;
    EXPECT_EQ(e.access_count(), 30u);
    EXPECT_EQ(e.point(), "access");
  }
  EXPECT_TRUE(fired);
  // One-shot: the trigger disarmed itself as it threw.
  EXPECT_FALSE(f.armed());
  f.tick(100);  // Must not throw again.
  f.reset();
  EXPECT_EQ(f.access_count(), 0u);
}

TEST(FaultSurface, FiresPointAtRequestedOccurrence) {
  FaultSurface f;
  f.arm_at_point("unit:end", 3);
  f.point("unit:end");
  f.point("other");  // Different name never counts.
  f.point("unit:end");
  bool fired = false;
  try {
    f.point("unit:end");
  } catch (const memsim::CrashException& e) {
    fired = true;
    EXPECT_EQ(e.point(), "unit:end");
  }
  EXPECT_TRUE(fired);
  EXPECT_FALSE(f.armed());
  f.point("unit:end");  // One-shot.
}

TEST(FaultSurface, DisarmCancelsTrigger) {
  FaultSurface f;
  f.arm_at_access(1);
  f.disarm();
  f.tick(100);  // Must not throw.
  EXPECT_FALSE(f.armed());
}

TEST(FaultSurface, BindingForwardsArmingToSimulator) {
  AlignedArray<double> arr(64);
  FaultSurface f;
  f.emulate({});
  f.track("t", arr.span());
  memsim::MemorySimulator& sim = *f.sim();
  f.arm_at_access(3);
  EXPECT_TRUE(sim.scheduler().armed());
  EXPECT_TRUE(f.armed());
  // While emulated, tick is inert — the emulator does the counting — and
  // point forwards to the emulator's crash point, which an access trigger
  // ignores.
  f.tick(1000);
  f.point("anything");
  bool fired = false;
  try {
    for (std::size_t i = 0; i < 64; ++i) {
      arr[i] = 1.0;
      f.write(&arr[i], sizeof(double));
    }
  } catch (const memsim::CrashException&) {
    fired = true;
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.crashed());
  EXPECT_EQ(f.access_count(), sim.access_count());
  f.reset();
  EXPECT_FALSE(f.emulated());
  EXPECT_EQ(f.access_count(), 0u);
}

// ------------------------------------------------------------ silent flips --

TEST(FaultSurfaceFlip, ArmFireDetectLifecycle) {
  FaultSurface f;
  EXPECT_FALSE(f.flip_active());
  f.tick(100);
  f.arm_flip(50, 3, 2);  // Seed 3 skips 0 eligible calls (see test_determinism).
  EXPECT_TRUE(f.flip_active());
  EXPECT_FALSE(f.armed());  // Flips are independent of the crash scheduler.

  double buf[8] = {};
  f.corrupt("t", buf, sizeof(buf));
  core::FlipStats st = f.flip_stats();
  EXPECT_EQ(st.flips, 1u);
  EXPECT_EQ(st.bits, 2u);
  EXPECT_EQ(st.site, "t");
  EXPECT_EQ(st.inject_access, 100u);
  EXPECT_TRUE(f.flip_active());  // Stays active after firing: checks must run.

  // The XOR actually landed: some buffer bytes are nonzero now.
  bool any = false;
  for (const double v : buf) any = any || v != 0.0;
  EXPECT_TRUE(any);

  // One-shot: a second corrupt() never fires again.
  double before[8];
  std::memcpy(before, buf, sizeof(buf));
  f.corrupt("t", buf, sizeof(buf));
  EXPECT_EQ(f.flip_stats().flips, 1u);
  EXPECT_EQ(std::memcmp(before, buf, sizeof(buf)), 0);

  f.report_detected(false);
  f.report_detected(true);
  st = f.flip_stats();
  EXPECT_EQ(st.detected, 2u);
  EXPECT_EQ(st.corrected, 1u);

  f.reset();  // prepare() path: everything rewinds.
  EXPECT_FALSE(f.flip_active());
  EXPECT_EQ(f.flip_stats().flips, 0u);
}

TEST(FaultSurfaceFlip, HoldsFireUntilAccessThreshold) {
  FaultSurface f;
  f.arm_flip(1000, 3, 1);
  double buf[8] = {};
  f.corrupt("early", buf, sizeof(buf));  // 0 accesses announced: must not fire.
  EXPECT_EQ(f.flip_stats().flips, 0u);
  f.tick(999);
  f.corrupt("early", buf, sizeof(buf));  // 999 < 1000: still holds.
  EXPECT_EQ(f.flip_stats().flips, 0u);
  f.tick(1);
  f.corrupt("late", buf, sizeof(buf));
  EXPECT_EQ(f.flip_stats().flips, 1u);
  EXPECT_EQ(f.flip_stats().site, "late");
}

TEST(FaultSurfaceFlip, SiteSkipNeverEscapesTheFirstEligibleGroup) {
  // Seed 9 draws the maximum skip (3). A workload that offers only ONE
  // corrupt() site per unit advances the access counter between calls, so
  // every call is its own group — the skip must collapse and the flip must
  // land on the SECOND call, not carry past the end of the run.
  FaultSurface f;
  f.tick(10);
  f.arm_flip(5, 9, 1);
  double buf[8] = {};
  f.corrupt("unit", buf, sizeof(buf));  // First eligible call opens the group.
  EXPECT_EQ(f.flip_stats().flips, 0u);
  f.tick(10);                           // New unit, new access count.
  f.corrupt("unit", buf, sizeof(buf));  // Later group: fires immediately.
  EXPECT_EQ(f.flip_stats().flips, 1u);
}

TEST(FaultSurfaceFlip, EmptySpanIsNeverATarget) {
  FaultSurface f;
  f.tick(10);
  f.arm_flip(1, 3, 1);
  f.corrupt("empty", nullptr, 0);
  EXPECT_EQ(f.flip_stats().flips, 0u);
  EXPECT_TRUE(f.flip_active());  // Still armed, waiting for real state.
}

// ----------------------------------------------------------- grammar fuzz --

// Seeded generator for syntactically VALID crash plans: every scope prefix x
// every family x 0-2 ^TAIL links. Point names draw from real instrumented
// sites (whose segments never end in a bare number, so the name/occurrence
// split is unambiguous).
std::string gen_valid_plan(SplitMix64& rng) {
  const char* kPoints[] = {"cg:iter_end", "cg:p_updated", "mm:loop2_end",
                           "xs:lookup_end", "ckpt_chunk", "ckpt_restore", "boundary"};
  auto point = [&] {
    std::string p = "point:";
    p += kPoints[rng.next_below(std::size(kPoints))];
    if (rng.next_below(2) == 0) p += ":" + std::to_string(1 + rng.next_below(20));
    return p;
  };
  auto head = [&]() -> std::string {
    switch (rng.next_below(7)) {
      case 0: return "step:" + std::to_string(1 + rng.next_below(99));
      case 1: return rng.next_below(2) == 0 ? "random"
                                            : "random:" + std::to_string(rng.next_below(1000));
      case 2: return "repeat:" + std::to_string(1 + rng.next_below(9));
      case 3: return "access:" + std::to_string(1 + rng.next_below(1'000'000));
      case 4: return point();
      case 5: return rng.next_below(2) == 0 ? "fuzz"
                                            : "fuzz:" + std::to_string(rng.next_below(1000));
      default: {
        std::string f = "flip:" + std::to_string(rng.next_below(1000));
        if (rng.next_below(2) == 0) f += ":" + std::to_string(1 + rng.next_below(8));
        return f;
      }
    }
  };
  std::string plan;
  switch (rng.next_below(4)) {
    case 0: break;
    case 1: plan += "shard:" + std::to_string(rng.next_below(8)) + ":"; break;
    case 2:
      plan += "shards:" + std::to_string(1 + rng.next_below(4)) + ":" +
              std::to_string(rng.next_below(100)) + ":";
      break;
    default: plan += "coord:"; break;
  }
  plan += head();
  const std::uint64_t tails = rng.next_below(3);
  for (std::uint64_t t = 0; t < tails; ++t) {
    plan += "^";
    plan += rng.next_below(2) == 0
                ? "access:" + std::to_string(1 + rng.next_below(100'000))
                : point();
  }
  return plan;
}

TEST(CrashGrammarFuzz, ValidPlansParseAndRoundTripThroughCrashName) {
  SplitMix64 rng(20260808);
  int checked = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string spec = gen_valid_plan(rng);
    const auto c = core::parse_crash(spec);
    ASSERT_TRUE(c.has_value()) << spec;
    EXPECT_NO_THROW(core::parse_crash_or_throw(spec)) << spec;
    // The canonical spelling is a fixed point: parse -> name -> parse -> name
    // is stable and preserves every field the grammar encodes.
    const std::string name = core::crash_name(*c);
    const auto again = core::parse_crash(name);
    ASSERT_TRUE(again.has_value()) << spec << " -> " << name;
    EXPECT_EQ(core::crash_name(*again), name) << spec;
    EXPECT_EQ(again->kind, c->kind) << spec;
    EXPECT_EQ(again->scope, c->scope) << spec;
    EXPECT_EQ(again->seed, c->seed) << spec;
    EXPECT_EQ(again->bits, c->bits) << spec;
    EXPECT_EQ(again->point, c->point) << spec;
    EXPECT_EQ(again->occurrence, c->occurrence) << spec;
    EXPECT_EQ(again->shard, c->shard) << spec;
    EXPECT_EQ(again->victims, c->victims) << spec;
    EXPECT_EQ(again->victim_seed, c->victim_seed) << spec;
    ASSERT_EQ(again->then.size(), c->then.size()) << spec;
    for (std::size_t t = 0; t < c->then.size(); ++t) {
      EXPECT_EQ(again->then[t].kind, c->then[t].kind) << spec;
      EXPECT_EQ(again->then[t].access, c->then[t].access) << spec;
      EXPECT_EQ(again->then[t].point, c->then[t].point) << spec;
      EXPECT_EQ(again->then[t].occurrence, c->then[t].occurrence) << spec;
    }
    ++checked;
  }
  EXPECT_GE(checked, 100);
}

// Invalid-plan templates: "%s" marks a seeded number substitution that keeps
// the string invalid for ANY value (the defect is structural, not numeric).
constexpr const char* kInvalidTemplates[] = {
    // Missing / malformed / zero arguments per family.
    "step", "step:", "step:0", "step:x", "step:%s.5",
    "repeat", "repeat:", "repeat:0", "repeat:-%s",
    "random:", "random:x", "random:%sz",
    "access", "access:", "access:0", "access:x",
    "point", "point:", "point::%s", "point:name:0", "point::",
    "fuzz:", "fuzz:x", "fuzz:%s!",
    "flip", "flip:", "flip:x", "flip:%s:0", "flip:%s:x", "flip:%s:2:3",
    // Unknown families never parse (and never crash).
    "boom", "flop:%s", "krash:%s", "steps:%s", "flips:%s",
    // Chain structure: heads must crash, tails must be mid-unit access/point.
    "none^access:%s", "^access:%s", "step:%s^", "step:%s^step:3",
    "step:%s^random", "step:%s^repeat:2", "step:%s^fuzz:3", "step:%s^flip:3",
    "step:%s^none", "access:%s^boom", "step:%s^access:0", "step:%s^point:",
    // Scope prefixes: incomplete, non-numeric, zero victims, scoped none.
    "shard", "shard:", "shard:%s", "shard:x:step:1", "shard:%s:none",
    "shards:%s", "shards:%s:1", "shards:0:%s:step:1", "shards:x:%s:step:1",
    "shards:%s:x:step:1", "shards:%s:1:none", "coord:", "coord:none",
};

TEST(CrashGrammarFuzz, InvalidPlansAreRejectedCleanlyNeverAccepted) {
  SplitMix64 rng(99991);
  int checked = 0;
  // Two seeded passes over every template: ~120 distinct invalid strings,
  // each rejected by the optional parser AND thrown (std::invalid_argument,
  // nothing else) by the eager one.
  for (int pass = 0; pass < 2; ++pass) {
    for (const char* tmpl : kInvalidTemplates) {
      std::string spec;
      for (const char* p = tmpl; *p != '\0'; ++p) {
        if (p[0] == '%' && p[1] == 's') {
          spec += std::to_string(1 + rng.next_below(999));
          ++p;
        } else {
          spec += *p;
        }
      }
      EXPECT_FALSE(core::parse_crash(spec).has_value()) << spec;
      EXPECT_THROW(core::parse_crash_or_throw(spec), std::invalid_argument) << spec;
      ++checked;
    }
  }
  EXPECT_GE(checked, 100);
}

// ------------------------------------------------------- emulator x runner --

TEST(FaultSurface, EmulatedPowerFailKeepsOnlyFlushedLines) {
  // The glue the alg-* engines drive: registered arena bytes start zeroed,
  // announced writes stay volatile until persisted, and power_fail copies the
  // durable image back over the live bytes.
  nvm::PerfModel perf{nvm::PerfConfig{.enabled = false}};
  nvm::NvmRegion region(4 * kCacheLine, perf);
  const std::span<double> a = region.allocate<double>(8);
  const std::span<double> b = region.allocate<double>(8);
  a[0] = 5.0;  // Written before registration: track() zeroes it.
  FaultSurface f;
  f.emulate({.size_bytes = 64 * kCacheLine, .ways = 4});
  f.track("a", a);
  f.track("b", b);
  EXPECT_EQ(a[0], 0.0);
  a[0] = 1.0;
  b[0] = 2.0;
  f.write(a);
  f.write(b);
  f.persist(region, a.data(), a.size_bytes());
  f.power_fail();
  EXPECT_EQ(a[0], 1.0);  // Flushed: durable.
  EXPECT_EQ(b[0], 0.0);  // Still cache-resident at the crash: lost.
  f.reset();
  EXPECT_FALSE(f.emulated());
}

TEST(FaultSurface, EmulatedInputsAnnounceThroughStandIns) {
  // Read-only inputs of any alignment register through an aligned stand-in;
  // their announcements count line accesses like any tracked region.
  const std::vector<double> input(100, 1.0);
  FaultSurface f;
  f.emulate({.size_bytes = 64 * kCacheLine, .ways = 4});
  f.track_input("in", std::span<const double>(input));
  // Bytes [8, 136) of the input: lines 0-2 of its stand-in, wherever the
  // vector itself is allocated.
  f.read(std::span<const double>(input).subspan(1, 16));
  EXPECT_EQ(f.access_count(), 3u);
  EXPECT_THROW(f.read(&f, sizeof(f)), ContractViolation);  // Untracked.
}

cg::CgWorkloadConfig tiny_cg_emulated() {
  cg::CgWorkloadConfig cfg;
  cfg.n = 400;
  cfg.nz_per_row = 7;
  cfg.iters = 6;
  cfg.cache_bytes = 128u << 10;  // Small enough to lose history rows.
  cfg.cache_ways = 8;
  return cfg;
}

core::ScenarioConfig alg_config(const core::Workload& w) {
  core::ScenarioConfig cfg;
  cfg.mode = core::Mode::kAlgNvm;
  w.tune_env(cfg.mode, cfg.env);
  cfg.verify = true;
  return cfg;
}

TEST(EmulatedWorkload, CgPointCrashThroughRunnerVerifies) {
  cg::CgWorkload w(tiny_cg_emulated());
  core::ScenarioConfig cfg = alg_config(w);
  cfg.crash = *core::parse_crash("point:cg:p_updated:4");
  const core::ScenarioResult res = core::run_scenario(w, cfg);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.crash_unit, 3u);  // Interrupted in iteration 4.
  EXPECT_EQ(res.recomputation.partial_units, 1u);
  EXPECT_EQ(res.crash_site, "cg:p_updated");
  EXPECT_TRUE(res.verified);
}

TEST(EmulatedWorkload, CgBoundaryCrashThroughRunnerVerifies) {
  // Boundary plans work under the emulator too: inject_crash powers it off
  // at the planned unit boundary.
  cg::CgWorkload w(tiny_cg_emulated());
  core::ScenarioConfig cfg = alg_config(w);
  cfg.crash = *core::parse_crash("step:3");
  const core::ScenarioResult res = core::run_scenario(w, cfg);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.crash_unit, 3u);
  EXPECT_EQ(res.recomputation.partial_units, 0u);
  EXPECT_TRUE(res.verified);
}

TEST(EmulatedWorkload, CgFuzzCrashThroughRunnerVerifies) {
  cg::CgWorkload w(tiny_cg_emulated());
  core::ScenarioConfig cfg = alg_config(w);
  cfg.crash = *core::parse_crash("fuzz:11");
  const core::ScenarioResult a = run_scenario(w, cfg);
  const core::ScenarioResult b = run_scenario(w, cfg);
  EXPECT_EQ(a.crashes, 1u);
  EXPECT_EQ(a.crash_access, b.crash_access);  // Deterministic in the seed.
  EXPECT_TRUE(a.verified);
}

mm::MmWorkloadConfig tiny_mm_emulated() {
  mm::MmWorkloadConfig cfg;
  cfg.n = 64;
  cfg.rank_k = 16;  // 4 panels + 5 blocks.
  cfg.cache_bytes = 32u << 10;
  cfg.cache_ways = 4;
  return cfg;
}

TEST(EmulatedWorkload, MmLoopOneAndLoopTwoCrashesVerify) {
  mm::MmWorkload w(tiny_mm_emulated());
  for (const char* plan : {"point:mm:loop1_end:2", "point:mm:loop2_end:2", "fuzz:3"}) {
    core::ScenarioConfig cfg = alg_config(w);
    cfg.crash = *core::parse_crash(plan);
    const core::ScenarioResult res = core::run_scenario(w, cfg);
    EXPECT_EQ(res.crashes, 1u) << plan;
    EXPECT_TRUE(res.verified) << plan;
  }
}

TEST(EmulatedWorkload, MmCrashAtVeryLastUnitStillFinishes) {
  // A crash at the final Loop-2 block's crash point interrupts the last unit
  // before its checksum flush; recovery classifies every earlier unit and the
  // run re-executes the last one.
  mm::MmWorkload w(tiny_mm_emulated());
  core::ScenarioConfig cfg = alg_config(w);
  cfg.crash = *core::parse_crash("point:mm:loop2_end:5");
  const core::ScenarioResult res = core::run_scenario(w, cfg);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.crash_unit + 1, res.work_units);
  EXPECT_EQ(res.recomputation.partial_units, 1u);
  EXPECT_TRUE(res.verified);
}

mc::McWorkloadConfig tiny_mc_emulated(mc::XsFlushPolicy policy, std::uint64_t interval) {
  mc::McWorkloadConfig cfg;
  cfg.data.n_nuclides = 10;
  cfg.data.gridpoints_per_nuclide = 128;
  cfg.lookups = 2000;
  cfg.interval = interval;
  cfg.policy = policy;
  cfg.cache_bytes = 32u << 10;
  cfg.cache_ways = 4;
  return cfg;
}

TEST(EmulatedWorkload, McSelectiveCrashRecoversExactTallies) {
  mc::McWorkload w(tiny_mc_emulated(mc::XsFlushPolicy::kSelective, 25));
  core::ScenarioConfig cfg = alg_config(w);
  cfg.crash = *core::parse_crash("point:xs:lookup_end:600");
  const core::ScenarioResult res = core::run_scenario(w, cfg);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.crash_unit, 23u);  // Lookup 600 ends unit 24, before its flush.
  // Bounded loss: at most one flush interval re-executed.
  EXPECT_LE(res.recomputation.units_redone(), 1u);
  EXPECT_TRUE(res.verified);
}

TEST(EmulatedWorkload, McBasicIdeaCrashDivergesByDesign) {
  mc::McWorkload w(tiny_mc_emulated(mc::XsFlushPolicy::kBasicIdea, 1));
  core::ScenarioConfig cfg = alg_config(w);
  cfg.crash = *core::parse_crash("point:xs:lookup_end:600");
  const core::ScenarioResult res = core::run_scenario(w, cfg);
  EXPECT_EQ(res.crashes, 1u);
  // The basic idea loses the cache-resident counter updates: Fig. 10's point.
  EXPECT_TRUE(res.verify_ran);
  EXPECT_FALSE(res.verified);
  EXPECT_EQ(res.recomputation.units_redone(), 1u);
}

}  // namespace
}  // namespace adcc

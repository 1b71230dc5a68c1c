// Tests for the multi-shard execution engine: scoped crash-plan parsing,
// deterministic k-of-N victim selection, the coordinator's commit-ordering
// invariant (byte-level slot probes at every commit fault site), per-shard
// slot-image determinism, and survivor-no-recompute accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "cg/cg_shard.hpp"
#include "cg/cg_workload.hpp"
#include "checkpoint/chunk.hpp"
#include "core/scenario.hpp"
#include "core/shard.hpp"
#include "mc/mc_shard.hpp"
#include "mc/mc_workload.hpp"
#include "memsim/crash.hpp"
#include "mm/mm_shard.hpp"
#include "mm/mm_workload.hpp"

namespace adcc::core {
namespace {

// ---------------------------------------------------------------- parsing --

TEST(ParseCrash, ShardScopePrefixes) {
  const auto s = parse_crash("shard:1:step:3");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->scope, CrashScenario::Scope::kShard);
  EXPECT_EQ(s->shard, 1u);
  EXPECT_EQ(s->kind, CrashScenario::Kind::kAtStep);
  EXPECT_EQ(s->step, 3u);
  EXPECT_EQ(crash_name(*s), "shard:1:step:3");

  const auto k = parse_crash("shards:2:7:random:9");
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(k->scope, CrashScenario::Scope::kShardSet);
  EXPECT_EQ(k->victims, 2u);
  EXPECT_EQ(k->victim_seed, 7u);
  EXPECT_EQ(k->kind, CrashScenario::Kind::kRandom);
  EXPECT_EQ(crash_name(*k), "shards:2:7:random:9");

  const auto c = parse_crash("coord:point:global_commit");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->scope, CrashScenario::Scope::kCoordinator);
  EXPECT_EQ(c->kind, CrashScenario::Kind::kAtPoint);
  EXPECT_EQ(c->point, "global_commit");
  EXPECT_EQ(crash_name(*c), "coord:point:global_commit");
}

TEST(ParseCrash, ShardScopeRejectsMalformedAndScopedNone) {
  EXPECT_FALSE(parse_crash("shard:1:none").has_value());
  EXPECT_FALSE(parse_crash("coord:none").has_value());
  EXPECT_FALSE(parse_crash("shard:x:step:2").has_value());
  EXPECT_FALSE(parse_crash("shards:2:step:2").has_value());  // Missing seed.
  EXPECT_FALSE(parse_crash("shard:").has_value());
}

TEST(ParseCrash, ShardScopeComposesWithChains) {
  const auto chained = parse_crash("shard:0:step:2^point:ckpt_restore:1");
  ASSERT_TRUE(chained.has_value());
  EXPECT_EQ(chained->scope, CrashScenario::Scope::kShard);
  EXPECT_EQ(chained->kind, CrashScenario::Kind::kAtStep);
  ASSERT_EQ(chained->then.size(), 1u);
  EXPECT_EQ(chained->then[0].kind, CrashScenario::Kind::kAtPoint);
  EXPECT_EQ(crash_name(*chained), "shard:0:step:2^point:ckpt_restore");
}

// ------------------------------------------------------- victim selection --

TEST(CrashVictims, SeededSelectionIsDeterministicSortedAndDistinct) {
  const auto crash = *parse_crash("shards:3:42:step:2");
  const auto v1 = crash_victims(crash, 8);
  const auto v2 = crash_victims(crash, 8);
  EXPECT_EQ(v1, v2);
  ASSERT_EQ(v1.size(), 3u);
  for (std::size_t i = 0; i < v1.size(); ++i) {
    EXPECT_LT(v1[i], 8u);
    if (i > 0) {
      EXPECT_LT(v1[i - 1], v1[i]);  // Sorted => distinct.
    }
  }
}

TEST(CrashVictims, ClampsToShardCount) {
  EXPECT_EQ(crash_victims(*parse_crash("shard:9:step:1"), 4),
            std::vector<std::size_t>{3});
  EXPECT_EQ(crash_victims(*parse_crash("shards:9:5:step:1"), 4).size(), 4u);
}

TEST(ResolveCrashScope, SingleShardDegeneratesToProcess) {
  EXPECT_EQ(resolve_crash_scope(*parse_crash("shard:0:step:2"), 1).kind,
            CrashScope::Kind::kProcess);
  EXPECT_EQ(resolve_crash_scope(*parse_crash("coord:step:2"), 1).kind,
            CrashScope::Kind::kProcess);
  const CrashScope scoped = resolve_crash_scope(*parse_crash("shard:1:step:2"), 4);
  EXPECT_EQ(scoped.kind, CrashScope::Kind::kShards);
  EXPECT_EQ(scoped.victims, std::vector<std::size_t>{1});
  EXPECT_EQ(resolve_crash_scope(*parse_crash("coord:step:2"), 4).kind,
            CrashScope::Kind::kCoordinator);
}

// ------------------------------------------------------------- harnesses --

cg::CgWorkloadConfig tiny_cg() {
  cg::CgWorkloadConfig cfg;
  cfg.n = 96;
  cfg.nz_per_row = 6;
  cfg.iters = 6;
  return cfg;
}

mm::MmWorkloadConfig tiny_mm() {
  mm::MmWorkloadConfig cfg;
  cfg.n = 64;
  cfg.rank_k = 16;  // 4 panels.
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

std::unique_ptr<ShardGroup> cg_group(std::size_t shards) {
  const cg::CgWorkloadConfig cfg = tiny_cg();
  return std::make_unique<ShardGroup>(
      std::make_unique<cg::CgShardPlan>(cfg), ShardGroupConfig{shards},
      [cfg]() -> std::unique_ptr<Workload> { return std::make_unique<cg::CgWorkload>(cfg); });
}

std::unique_ptr<ShardGroup> mm_group(std::size_t shards) {
  const mm::MmWorkloadConfig cfg = tiny_mm();
  return std::make_unique<ShardGroup>(
      std::make_unique<mm::MmShardPlan>(cfg), ShardGroupConfig{shards},
      [cfg]() -> std::unique_ptr<Workload> { return std::make_unique<mm::MmWorkload>(cfg); });
}

std::unique_ptr<ShardGroup> mc_group(std::size_t shards) {
  const mc::McWorkloadConfig cfg = tiny_mc();
  return std::make_unique<ShardGroup>(
      std::make_unique<mc::McShardPlan>(cfg), ShardGroupConfig{shards},
      [cfg]() -> std::unique_ptr<Workload> { return std::make_unique<mc::McWorkload>(cfg); });
}

ScenarioConfig group_config(const Workload& w, Mode mode, const std::string& scratch) {
  ScenarioConfig cfg;
  cfg.mode = mode;
  cfg.env.scratch_dir = std::filesystem::temp_directory_path() / scratch;
  w.tune_env(mode, cfg.env);
  cfg.verify = true;
  return cfg;
}

/// True iff some committed slot of `backend` holds an intact image of
/// exactly `version`: valid magic, valid header CRC, matching version.
bool slot_holds_version(checkpoint::Backend& backend, std::uint64_t version) {
  for (int s = 0; s < checkpoint::kSlotCount; ++s) {
    checkpoint::SlotHeader h;
    if (backend.read_image(s, {reinterpret_cast<std::byte*>(&h), sizeof(h)}) != sizeof(h)) {
      continue;
    }
    checkpoint::SlotHeader probe = h;
    probe.header_crc = 0;
    if (h.magic == checkpoint::kSlotMagic &&
        h.header_crc == checkpoint::slot_header_crc(probe) && h.version == version) {
      return true;
    }
  }
  return false;
}

// -------------------------------------------------------- commit ordering --

// The global marker must never name a shard state that is not fully durable:
// crash the group at every fault site inside the commit sequence (each shard's
// join, the post-join global point, the marker's own chunk write) and check
// that (a) the durable marker still names the PREVIOUS epoch and (b) every
// shard's backend holds an intact image of exactly the slot version the marker
// records — probed at the byte level, not through the restore path.
TEST(GroupCoordinator, MarkerNeverObservableBeforeEveryShardCommitted) {
  const std::string sites[] = {
      std::string(kPointShardJoin) + ":1", std::string(kPointShardJoin) + ":2",
      std::string(kPointShardJoin) + ":3", std::string(kPointGlobalCommit) + ":1",
      std::string(kPointCoordCommit) + ":1"};
  for (const std::string& site : sites) {
    auto group = cg_group(3);
    ModeEnvConfig ec;
    ec.scratch_dir = std::filesystem::temp_directory_path() / "adcc_shard_commit_test";
    group->tune_env(Mode::kCkptDisk, ec);
    ModeEnv env = make_env(Mode::kCkptDisk, ec);
    group->prepare(env);
    ASSERT_TRUE(group->sharded());
    group->set_crash_scope({CrashScope::Kind::kCoordinator, {}});

    // Epoch 1 commits cleanly; epoch 2's commit crashes at the armed site.
    ASSERT_TRUE(group->run_step());
    group->make_durable();
    group->wait_durable();
    const auto colon = site.rfind(':');
    group->fault()->arm_at_point(site.substr(0, colon),
                                 std::stoull(site.substr(colon + 1)));
    ASSERT_TRUE(group->run_step());
    EXPECT_THROW(group->make_durable(), memsim::CrashException) << site;
    group->inject_crash();

    // Byte-level probe before any recovery path runs.
    const GroupCoordinator::Marker marker = group->coordinator()->reload();
    EXPECT_EQ(marker.epoch, 1u) << site;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(slot_holds_version(*group->shard_backend(i), marker.versions[i]))
          << site << " shard " << i;
    }

    // And the group recovers to the marker epoch and finishes correctly.
    const WorkloadRecovery rec = group->recover();
    EXPECT_EQ(rec.restart_unit, 2u) << site;
    EXPECT_EQ(rec.units_lost, 1u) << site;
    EXPECT_EQ(rec.epochs_rolled_back, 1u) << site;
    while (group->units_done() < group->work_units()) {
      ASSERT_TRUE(group->run_step());
      group->make_durable();
    }
    group->wait_durable();
    EXPECT_TRUE(group->verify()) << site;
  }
}

// ------------------------------------------------- k-of-N restore & bytes --

/// Runs a sharded CG scenario and returns every shard's raw slot images.
std::vector<std::vector<std::byte>> run_and_dump_slots(const std::string& scratch,
                                                       const std::string& crash) {
  auto group = cg_group(4);
  ScenarioConfig cfg = group_config(*group, Mode::kCkptDisk, scratch);
  cfg.crash = *parse_crash(crash);
  const ScenarioResult res = run_scenario(*group, cfg);
  EXPECT_TRUE(res.verify_ran);
  EXPECT_TRUE(res.verified) << crash;
  std::vector<std::vector<std::byte>> images;
  for (std::size_t i = 0; i < 4; ++i) {
    checkpoint::Backend& backend = *group->shard_backend(i);
    for (int s = 0; s < checkpoint::kSlotCount; ++s) {
      std::vector<std::byte> img(1u << 20);
      img.resize(backend.read_image(s, img));
      images.push_back(std::move(img));
    }
  }
  return images;
}

TEST(ShardGroup, KofNRestoreIsDeterministicAndSlotImagesByteIdentical) {
  const auto a = run_and_dump_slots("adcc_shard_det_a", "shards:2:5:step:4");
  const auto b = run_and_dump_slots("adcc_shard_det_b", "shards:2:5:step:4");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i].empty()) << "slot image " << i;
    EXPECT_EQ(a[i], b[i]) << "slot image " << i;
  }
}

// --------------------------------------------------- survivor accounting --

// A killed shard's recovery replays only its own delta: survivors execute
// exactly units x phases compute steps (never recomputed), the victim adds
// exactly phases x units_replayed steps on top. Async commit keeps the marker
// one epoch behind the crash, so the replay delta is non-empty.
TEST(ShardGroup, SurvivorsNeverRecomputeVictimReplaysOwnDelta) {
  auto group = cg_group(3);
  ScenarioConfig cfg = group_config(*group, Mode::kCkptDisk, "adcc_shard_survivor_test");
  cfg.env.ckpt_async = true;
  cfg.crash = *parse_crash("shard:1:step:4");
  const ScenarioResult res = run_scenario(*group, cfg);
  ASSERT_TRUE(res.verified);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_EQ(res.recomputation.shards_restored, 1u);
  EXPECT_GE(res.recomputation.units_replayed, 1u);
  EXPECT_GT(res.recomputation.halo_bytes, 0u);
  EXPECT_EQ(res.recomputation.units_lost, 0u);  // Boundary crash, victim-only scope.

  const std::uint64_t base = group->work_units() * group->phases();
  EXPECT_EQ(group->shard_exec_steps(0), base);  // Survivor: not one extra step.
  EXPECT_EQ(group->shard_exec_steps(2), base);
  EXPECT_EQ(group->shard_exec_steps(1),
            base + res.recomputation.units_replayed * group->phases());
}

// ----------------------------------------------------- group round trips --

TEST(ShardGroup, AdaptersVerifyAcrossScopes) {
  for (const char* crash :
       {"none", "shard:0:step:2", "shards:2:5:step:3", "coord:point:global_commit"}) {
    auto cg = cg_group(3);
    ScenarioConfig cfg = group_config(*cg, Mode::kCkptDisk, "adcc_shard_roundtrip");
    cfg.crash = *parse_crash(crash);
    EXPECT_TRUE(run_scenario(*cg, cfg).verified) << "cg " << crash;
  }
  for (const char* crash : {"shard:0:step:2", "coord:point:global_commit"}) {
    auto mm = mm_group(4);
    ScenarioConfig mcfg = group_config(*mm, Mode::kCkptNvm, "adcc_shard_roundtrip");
    mcfg.crash = *parse_crash(crash);
    EXPECT_TRUE(run_scenario(*mm, mcfg).verified) << "mm " << crash;
    auto mc = mc_group(4);
    ScenarioConfig ccfg = group_config(*mc, Mode::kCkptNvm, "adcc_shard_roundtrip");
    ccfg.crash = *parse_crash(crash);
    EXPECT_TRUE(run_scenario(*mc, ccfg).verified) << "mc " << crash;
  }
}

// Transaction/algorithm modes keep their single-rank engines: the group
// falls back transparently and scoped plans degenerate to process scope.
TEST(ShardGroup, NonCheckpointModesFallBackToSingleRank) {
  for (Mode m : {Mode::kPmemTx, Mode::kAlgNvm}) {
    auto group = cg_group(4);
    ScenarioConfig cfg = group_config(*group, m, "adcc_shard_fallback");
    cfg.crash = *parse_crash("shard:0:step:2");
    const ScenarioResult res = run_scenario(*group, cfg);
    EXPECT_TRUE(res.verified) << mode_name(m);
    EXPECT_FALSE(group->sharded()) << mode_name(m);
    EXPECT_EQ(group->shard_count(), 1u) << mode_name(m);
  }
}

}  // namespace
}  // namespace adcc::core

// Tests for the core facade: modes, environment factory, harness, reporting.
#include <gtest/gtest.h>

#include <set>

#include "common/check.hpp"
#include "core/harness.hpp"
#include "core/modes.hpp"
#include "core/report.hpp"

namespace adcc::core {
namespace {

TEST(Modes, SevenDistinctModesWithUniqueNames) {
  const auto modes = all_modes();
  EXPECT_EQ(modes.size(), 7u);  // The paper's seven test cases.
  std::set<std::string> names;
  for (Mode m : modes) names.insert(mode_name(m));
  EXPECT_EQ(names.size(), 7u);
}

TEST(Modes, Classification) {
  EXPECT_EQ(durability_kind(Mode::kNative), DurabilityKind::kNone);
  EXPECT_EQ(durability_kind(Mode::kCkptDisk), DurabilityKind::kCheckpoint);
  EXPECT_EQ(durability_kind(Mode::kCkptNvm), DurabilityKind::kCheckpoint);
  EXPECT_EQ(durability_kind(Mode::kCkptHetero), DurabilityKind::kCheckpoint);
  EXPECT_EQ(durability_kind(Mode::kPmemTx), DurabilityKind::kTransaction);
  EXPECT_EQ(durability_kind(Mode::kAlgNvm), DurabilityKind::kAlgorithm);
  EXPECT_EQ(durability_kind(Mode::kAlgHetero), DurabilityKind::kAlgorithm);
}

TEST(Modes, ParseModeRoundTripsEveryName) {
  for (Mode m : all_modes()) {
    const auto parsed = parse_mode(mode_name(m));
    ASSERT_TRUE(parsed.has_value()) << mode_name(m);
    EXPECT_EQ(*parsed, m) << mode_name(m);
  }
}

TEST(Modes, ParseModeAcceptsForgivingSpellings) {
  EXPECT_EQ(parse_mode("NATIVE"), Mode::kNative);
  EXPECT_EQ(parse_mode("ckpt_disk"), Mode::kCkptDisk);
  EXPECT_EQ(parse_mode("ckpt-hetero"), Mode::kCkptHetero);
  EXPECT_EQ(parse_mode("alg-hetero"), Mode::kAlgHetero);
  EXPECT_EQ(parse_mode("Alg_Nvm"), Mode::kAlgNvm);
  EXPECT_EQ(parse_mode("tx"), Mode::kPmemTx);
}

TEST(Modes, ParseModeRejectsUnknownNames) {
  EXPECT_FALSE(parse_mode("").has_value());
  EXPECT_FALSE(parse_mode("dram").has_value());
  EXPECT_FALSE(parse_mode("ckpt-tape").has_value());
}

ModeEnvConfig small_env() {
  ModeEnvConfig c;
  c.arena_bytes = 4u << 20;
  c.slot_bytes = 1u << 20;
  c.dram_cache_bytes = 1u << 20;
  c.scratch_dir = std::filesystem::temp_directory_path() / "adcc_core_test";
  return c;
}

TEST(MakeEnv, NativeHasNoSubstrate) {
  const ModeEnv env = make_env(Mode::kNative, small_env());
  EXPECT_EQ(env.perf, nullptr);
  EXPECT_EQ(env.region, nullptr);
  EXPECT_EQ(env.backend, nullptr);
}

TEST(MakeEnv, CkptDiskHasBackendWithoutArena) {
  const ModeEnv env = make_env(Mode::kCkptDisk, small_env());
  EXPECT_NE(env.backend, nullptr);
  EXPECT_EQ(env.region, nullptr);
}

TEST(MakeEnv, CkptNvmIsFullSpeedNvm) {
  const ModeEnv env = make_env(Mode::kCkptNvm, small_env());
  ASSERT_NE(env.perf, nullptr);
  EXPECT_FALSE(env.perf->config().enabled);  // NVM == DRAM assumption.
  EXPECT_NE(env.region, nullptr);
  EXPECT_NE(env.backend, nullptr);
  EXPECT_EQ(env.dram, nullptr);
}

TEST(MakeEnv, CkptHeteroThrottlesAndStagesThroughDram) {
  const ModeEnv env = make_env(Mode::kCkptHetero, small_env());
  ASSERT_NE(env.perf, nullptr);
  EXPECT_TRUE(env.perf->config().enabled);
  EXPECT_DOUBLE_EQ(env.perf->config().bandwidth_slowdown, 8.0);
  EXPECT_NE(env.dram, nullptr);
  EXPECT_NE(env.backend, nullptr);
}

TEST(MakeEnv, AlgorithmModesHaveArenaButNoBackend) {
  for (Mode m : {Mode::kAlgNvm, Mode::kAlgHetero, Mode::kPmemTx}) {
    const ModeEnv env = make_env(m, small_env());
    EXPECT_NE(env.region, nullptr) << mode_name(m);
    EXPECT_EQ(env.backend, nullptr) << mode_name(m);
  }
}

TEST(Harness, NormalizeComputesOverheadPercent) {
  const NormalizedTime n = normalize(1.25, 1.0);
  EXPECT_DOUBLE_EQ(n.normalized, 1.25);
  EXPECT_NEAR(n.overhead_percent(), 25.0, 1e-12);
}

TEST(Harness, RecomputationBreakdownNormalizesByUnit) {
  RecomputationBreakdown b;
  b.detect_seconds = 0.5;
  b.resume_seconds = 1.5;
  b.unit_seconds = 0.5;
  b.units_lost = 3;
  EXPECT_DOUBLE_EQ(b.detect_normalized(), 1.0);
  EXPECT_DOUBLE_EQ(b.resume_normalized(), 3.0);
  EXPECT_DOUBLE_EQ(b.total_normalized(), 4.0);
}

TEST(Report, TableRejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Report, FormattingHelpers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.082), "8.2%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Report, TablePrintsAllRows) {
  Table t({"col1", "col2"});
  t.add_row({"x", "1"});
  t.add_row({"y", "2"});
  testing::internal::CaptureStdout();
  t.print();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("col1"), std::string::npos);
  EXPECT_NE(out.find("y"), std::string::npos);
}

}  // namespace
}  // namespace adcc::core

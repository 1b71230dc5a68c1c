// Tests for the crash-consistent Monte-Carlo driver (paper Figs. 10–12).
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "mc/mc_ckpt.hpp"
#include "mc/xs_cc.hpp"

namespace adcc::mc {
namespace {

const XsDataHost& shared_data() {
  static XsDataHost d([] {
    XsConfig c;
    c.n_nuclides = 12;
    c.gridpoints_per_nuclide = 256;
    c.seed = 5;
    return c;
  }());
  return d;
}

XsCcConfig cc_config(XsFlushPolicy policy, std::size_t lookups = 4000) {
  XsCcConfig c;
  c.total_lookups = lookups;
  c.policy = policy;
  c.flush_interval = lookups / 100;  // 1 % granularity at test scale.
  c.cache.ways = 4;
  c.cache.size_bytes = 64u << 10;
  c.rng_seed = 77;
  return c;
}

Tally nocrash_reference(XsFlushPolicy policy, std::size_t lookups = 4000) {
  XsCrashConsistent xs(shared_data(), cc_config(policy, lookups));
  EXPECT_FALSE(xs.run());
  return xs.tally();
}

TEST(XsCc, UncrashedTallyMatchesNativeKernel) {
  const Tally sim = nocrash_reference(XsFlushPolicy::kSelective);
  const Tally native = run_xs_native(shared_data(), 4000, 77);
  EXPECT_EQ(sim.counts, native.counts);
}

TEST(XsCc, AllTypesRoughlyEquallyLikely) {
  // The paper's no-crash observation (Fig. 10, left bars ≈ 20 % each).
  const Tally t = nocrash_reference(XsFlushPolicy::kSelective);
  const auto pct = t.percentages(t.total());
  for (double p : pct) {
    EXPECT_GT(p, 8.0);
    EXPECT_LT(p, 40.0);
  }
}

TEST(XsCc, SelectiveFlushRecoveryIsExact) {
  // Fig. 12: crash at 10 % of lookups, restart — identical tallies.
  const Tally reference = nocrash_reference(XsFlushPolicy::kSelective);
  XsCrashConsistent xs(shared_data(), cc_config(XsFlushPolicy::kSelective));
  xs.sim().scheduler().arm_at_point(XsCrashConsistent::kPointLookupEnd, 400);
  ASSERT_TRUE(xs.run());
  const XsRecovery rec = xs.recover_and_resume();
  EXPECT_EQ(xs.tally().counts, reference.counts);
  EXPECT_EQ(rec.crash_lookup, 400u);
  // Restart lands on a flush boundary (tallies durable through it).
  EXPECT_EQ(rec.restart_lookup % cc_config(XsFlushPolicy::kSelective).flush_interval, 0u);
}

TEST(XsCc, BasicIdeaLosesTallies) {
  // Fig. 10: the basic idea restarts at the right lookup but the counters in
  // NVM are stale — counts are lost and the distribution diverges.
  const Tally reference = nocrash_reference(XsFlushPolicy::kBasicIdea);
  XsCrashConsistent xs(shared_data(), cc_config(XsFlushPolicy::kBasicIdea));
  xs.sim().scheduler().arm_at_point(XsCrashConsistent::kPointLookupEnd, 400);
  ASSERT_TRUE(xs.run());
  xs.recover_and_resume();
  const Tally crashed = xs.tally();
  EXPECT_LT(crashed.total(), reference.total());  // Tallies went missing.
  EXPECT_GT(max_percentage_gap(crashed, reference, reference.total()), 0.5);
}

TEST(XsCc, BasicIdeaRestartsAtCrashLookup) {
  XsCrashConsistent xs(shared_data(), cc_config(XsFlushPolicy::kBasicIdea));
  xs.sim().scheduler().arm_at_point(XsCrashConsistent::kPointLookupEnd, 123);
  ASSERT_TRUE(xs.run());
  const XsRecovery rec = xs.recover_and_resume();
  // The index line is flushed every iteration, so restart == crash lookup.
  EXPECT_EQ(rec.restart_lookup, 122u);
  EXPECT_EQ(xs.cursor(), 4000u);
}

TEST(XsCc, EveryIterationFlushAlsoExact) {
  const Tally reference = nocrash_reference(XsFlushPolicy::kEveryIteration, 1500);
  XsCrashConsistent xs(shared_data(), cc_config(XsFlushPolicy::kEveryIteration, 1500));
  xs.sim().scheduler().arm_at_point(XsCrashConsistent::kPointLookupEnd, 150);
  ASSERT_TRUE(xs.run());
  xs.recover_and_resume();
  EXPECT_EQ(xs.tally().counts, reference.counts);
}

TEST(XsCc, SelectiveFlushCountMatchesInterval) {
  XsCcConfig cfg = cc_config(XsFlushPolicy::kSelective, 2000);
  XsCrashConsistent xs(shared_data(), cfg);
  ASSERT_FALSE(xs.run());
  // flush_tallies issues 2 ranges (macro + counters) per boundary; progress
  // adds its own line. Just check the order of magnitude via sim stats.
  const auto& st = xs.sim().stats();
  EXPECT_GE(st.flush_lines, 2000 / cfg.flush_interval * 3);
  EXPECT_LE(st.flush_lines, 2000 / cfg.flush_interval * 4 + 8);
}

TEST(XsCc, RecoverWithoutCrashRejected) {
  XsCrashConsistent xs(shared_data(), cc_config(XsFlushPolicy::kSelective, 500));
  ASSERT_FALSE(xs.run());
  EXPECT_THROW(xs.recover_and_resume(), ContractViolation);
}

// Crash-site sweep for the selective policy: recovery is exact no matter
// where in the interval the crash lands.
class XsCrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XsCrashSweep, SelectiveRecoveryExactEverywhere) {
  const Tally reference = nocrash_reference(XsFlushPolicy::kSelective, 2000);
  XsCcConfig cfg = cc_config(XsFlushPolicy::kSelective, 2000);
  XsCrashConsistent xs(shared_data(), cfg);
  xs.sim().scheduler().arm_at_point(XsCrashConsistent::kPointLookupEnd, GetParam());
  ASSERT_TRUE(xs.run());
  xs.recover_and_resume();
  EXPECT_EQ(xs.tally().counts, reference.counts);
}

INSTANTIATE_TEST_SUITE_P(Sites, XsCrashSweep, ::testing::Values(1, 19, 20, 21, 777, 1999));

}  // namespace
}  // namespace adcc::mc

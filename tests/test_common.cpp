// Unit tests for adcc::common — alignment, RNG, statistics, options, checks.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/align.hpp"
#include "common/check.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"

namespace adcc {
namespace {

TEST(RoundUp, ExactMultipleUnchanged) { EXPECT_EQ(round_up(128, 64), 128u); }
TEST(RoundUp, RoundsUpwards) { EXPECT_EQ(round_up(129, 64), 192u); }
TEST(RoundUp, ZeroStaysZero) { EXPECT_EQ(round_up(0, 64), 0u); }

TEST(LineOf, MasksLowBits) {
  auto p = reinterpret_cast<const void*>(0x1234);
  EXPECT_EQ(line_of(p), 0x1200u);
}

TEST(LinesSpanned, EmptyRangeIsZero) {
  int x = 0;
  EXPECT_EQ(lines_spanned(&x, 0), 0u);
}

TEST(LinesSpanned, SingleByteIsOneLine) {
  alignas(64) char buf[128] = {};
  EXPECT_EQ(lines_spanned(buf, 1), 1u);
}

TEST(LinesSpanned, StraddlingRangeCountsBothLines) {
  alignas(64) char buf[128] = {};
  EXPECT_EQ(lines_spanned(buf + 60, 8), 2u);
}

TEST(LinesSpanned, FullAlignedRange) {
  alignas(64) char buf[256] = {};
  EXPECT_EQ(lines_spanned(buf, 256), 4u);
}

TEST(AlignedBuffer, ZeroInitialized) {
  AlignedBuffer b(200);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b.data()[i], std::byte{0});
}

TEST(AlignedBuffer, CacheLineAligned) {
  AlignedBuffer b(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLine, 0u);
}

TEST(AlignedBuffer, CopyIsDeep) {
  AlignedBuffer a(64);
  a.data()[0] = std::byte{42};
  AlignedBuffer b(a);
  a.data()[0] = std::byte{7};
  EXPECT_EQ(b.data()[0], std::byte{42});
}

TEST(AlignedBuffer, CopyAssignIsDeep) {
  AlignedBuffer a(64);
  a.data()[0] = std::byte{42};
  AlignedBuffer b;
  b = a;
  EXPECT_EQ(b.data()[0], std::byte{42});
  EXPECT_EQ(b.size(), 64u);
}

TEST(AlignedBuffer, MovedFromIsEmpty) {
  AlignedBuffer a(64);
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.size(), 64u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): defined behaviour here.
}

TEST(AlignedArray, SizeAndIndexing) {
  AlignedArray<double> a(10);
  EXPECT_EQ(a.size(), 10u);
  a[3] = 2.5;
  EXPECT_DOUBLE_EQ(a[3], 2.5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % kCacheLine, 0u);
}

TEST(SplitMix, DeterministicBySeed) {
  SplitMix64 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SplitMix, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(SplitMix, DoublesInUnitInterval) {
  SplitMix64 a(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = a.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix, NextBelowRespectsBound) {
  SplitMix64 a(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(a.next_below(13), 13u);
}

TEST(SplitMix, NextBelowZeroBoundThrows) {
  SplitMix64 a(7);
  EXPECT_THROW(a.next_below(0), ContractViolation);
}

TEST(SplitMix, NextBelowCoversRange) {
  SplitMix64 a(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(a.next_below(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(CounterRng, PureFunctionOfCounter) {
  CounterRng r(1234);
  EXPECT_EQ(r.u64(7), r.u64(7));
  EXPECT_EQ(r.uniform(42, 1), r.uniform(42, 1));
}

TEST(CounterRng, LanesAreIndependentStreams) {
  CounterRng r(1234);
  EXPECT_NE(r.u64(7, 0), r.u64(7, 1));
}

TEST(CounterRng, OrderIndependence) {
  CounterRng r(55);
  const auto late = r.u64(1000);
  const auto early = r.u64(1);
  CounterRng r2(55);
  EXPECT_EQ(r2.u64(1), early);
  EXPECT_EQ(r2.u64(1000), late);
}

TEST(CounterRng, UniformRoughlyUniform) {
  CounterRng r(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform(static_cast<std::uint64_t>(i));
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Median, OddCount) { EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0); }
TEST(Median, EvenCountAverages) { EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5); }
TEST(Median, EmptyIsZero) { EXPECT_DOUBLE_EQ(median({}), 0.0); }

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--quick", "--ratio=2.5"};
  Options o(4, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("n", 0), 128);
  EXPECT_TRUE(o.get_bool("quick"));
  EXPECT_DOUBLE_EQ(o.get_double("ratio", 0), 2.5);
  EXPECT_FALSE(o.has("absent"));
  EXPECT_EQ(o.get("absent", "dflt"), "dflt");
}

TEST(Options, MalformedArgumentThrows) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Options(2, const_cast<char**>(argv)), ContractViolation);
}

TEST(Options, FalseyBoolValues) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=off", "--d=no", "--e=on"};
  Options o(6, const_cast<char**>(argv));
  EXPECT_FALSE(o.get_bool("a"));
  EXPECT_FALSE(o.get_bool("b"));
  EXPECT_FALSE(o.get_bool("c"));
  EXPECT_FALSE(o.get_bool("d"));
  EXPECT_TRUE(o.get_bool("e"));
}

TEST(ParseSize, PlainNumbersAndBinarySuffixes) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("123"), 123u);
  EXPECT_EQ(parse_size("123B"), 123u);
  EXPECT_EQ(parse_size("4k"), 4096u);
  EXPECT_EQ(parse_size("4K"), 4096u);
  EXPECT_EQ(parse_size("64M"), 64u << 20);
  EXPECT_EQ(parse_size("64MB"), 64u << 20);
  EXPECT_EQ(parse_size("1G"), 1u << 30);
  EXPECT_EQ(parse_size("2T"), std::size_t{2} << 40);
}

TEST(ParseSize, RejectsMalformedAndOverflowing) {
  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("x").has_value());
  EXPECT_FALSE(parse_size("12Q").has_value());
  EXPECT_FALSE(parse_size("12MM").has_value());
  EXPECT_FALSE(parse_size("99999999999999999999").has_value());
  EXPECT_FALSE(parse_size("18446744073709551615G").has_value());  // Overflow.
}

TEST(Options, GetSizeParsesSuffixes) {
  const char* argv[] = {"prog", "--arena=64M", "--n=1500"};
  Options o(3, const_cast<char**>(argv));
  EXPECT_EQ(o.get_size("arena", 0), 64u << 20);
  EXPECT_EQ(o.get_size("n", 0), 1500u);
  EXPECT_EQ(o.get_size("absent", 42), 42u);
}

TEST(Options, GetSizeThrowsOnMalformedValue) {
  const char* argv[] = {"prog", "--arena=lots"};
  Options o(2, const_cast<char**>(argv));
  EXPECT_THROW(o.get_size("arena", 0), ContractViolation);
}

TEST(Options, NumericValuesMustParseWhole) {
  const char* argv[] = {"prog",       "--reps=2x",  "--ratio=1.5s", "--empty=",
                        "--word=abc", "--neg=-3",   "--sci=2.5e1"};
  Options o(7, const_cast<char**>(argv));
  for (const char* key : {"reps", "ratio", "empty", "word"}) {
    EXPECT_THROW(o.get_int(key, 0), ContractViolation) << key;  // Trailing garbage too.
  }
  for (const char* key : {"ratio", "empty", "word"}) {
    EXPECT_THROW(o.get_double(key, 0), ContractViolation) << key;
  }
  EXPECT_EQ(o.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(o.get_double("sci", 0), 25.0);
  EXPECT_EQ(o.get_int("absent", 7), 7);
}

TEST(Options, MalformedValueMessageNamesKeyAndValue) {
  const char* argv[] = {"prog", "--reps=2x", "--arena=lots"};
  Options o(3, const_cast<char**>(argv));
  const auto message = [](const auto& get) -> std::string {
    try {
      get();
    } catch (const ContractViolation& e) {
      return e.what();
    }
    return "(no exception)";
  };
  const std::string reps = message([&] { o.get_int("reps", 1); });
  EXPECT_NE(reps.find("--reps: '2x'"), std::string::npos) << reps;
  const std::string arena = message([&] { o.get_size("arena", 1); });
  EXPECT_NE(arena.find("--arena: 'lots'"), std::string::npos) << arena;
}

TEST(Options, HelpTextGeneratedFromRegisteredKeys) {
  Options o;
  o.doc("n", "problem size", "128").doc("quick", "CI-sized run");
  const std::string help = o.help_text("prog");
  EXPECT_NE(help.find("usage: prog"), std::string::npos);
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("problem size"), std::string::npos);
  EXPECT_NE(help.find("(default: 128)"), std::string::npos);
  EXPECT_NE(help.find("--quick"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(Options, UndocumentedKeysAreRejectedByName) {
  const char* argv[] = {"prog", "--cache_mb=1", "--cach_mb=1", "--help"};
  Options o(4, const_cast<char**>(argv));
  o.doc("cache_mb", "simulated LLC size, MB");
  EXPECT_TRUE(o.documented("cache_mb"));
  EXPECT_TRUE(o.documented("help"));  // --help lists itself.
  EXPECT_FALSE(o.documented("cach_mb"));
  std::string message = "(no exception)";
  try {
    o.reject_undocumented();
  } catch (const ContractViolation& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "unknown option --cach_mb (see --help)");

  o.doc("cach_mb", "now documented");
  EXPECT_NO_THROW(o.reject_undocumented());
}

TEST(Options, MaybePrintHelpOnlyWhenRequested) {
  const char* argv[] = {"prog", "--help"};
  Options with(2, const_cast<char**>(argv));
  testing::internal::CaptureStdout();
  EXPECT_TRUE(with.maybe_print_help("prog"));
  EXPECT_NE(testing::internal::GetCapturedStdout().find("usage:"), std::string::npos);
  Options without;
  EXPECT_FALSE(without.maybe_print_help("prog"));
}

TEST(Check, ThrowsWithExpression) {
  try {
    ADCC_CHECK(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::strstr(e.what(), "1 == 2"), nullptr);
    EXPECT_NE(std::strstr(e.what(), "math broke"), nullptr);
  }
}

TEST(Timer, ElapsedIsMonotonic) {
  Timer t;
  const double a = t.elapsed();
  const double b = t.elapsed();
  EXPECT_GE(b, a);
}

TEST(Timer, SpinForWaitsAtLeast) {
  Timer t;
  spin_for(0.002);
  EXPECT_GE(t.elapsed(), 0.0018);
}

TEST(PhaseTimer, AccumulatesAcrossWindows) {
  PhaseTimer p;
  p.start();
  spin_for(0.001);
  p.stop();
  const double first = p.total();
  p.start();
  spin_for(0.001);
  p.stop();
  EXPECT_GT(p.total(), first);
  p.clear();
  EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

}  // namespace
}  // namespace adcc

// Cross-module integration test: the umbrella header exposes every layer.
// The seven-mode adapters' per-mode checks live in test_adapters.cpp, and
// their crash recovery under the emulator in test_emulated.cpp.
#include <gtest/gtest.h>

#include "core/adcc.hpp"

namespace adcc {
namespace {

TEST(Integration, UmbrellaHeaderExposesAllLayers) {
  // Compile-time integration: one object of each namespace's flagship type.
  memsim::CacheConfig cc;
  EXPECT_GT(cc.num_sets(), 0u);
  EXPECT_EQ(core::all_modes().size(), 7u);
  EXPECT_GE(mc::kChannels, 5);
  SUCCEED();
}

}  // namespace
}  // namespace adcc

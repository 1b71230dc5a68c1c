// Unit tests for the checkpoint backends and CheckpointSet, parameterized over
// all three media (file / NVM-only / heterogeneous NVM-DRAM).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string_view>
#include <vector>

#include "checkpoint/checkpoint_set.hpp"
#include "checkpoint/file_backend.hpp"
#include "checkpoint/hetero_backend.hpp"
#include "checkpoint/nvm_backend.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"

namespace adcc::checkpoint {
namespace {

enum class Kind { kFile, kNvm, kHetero };

struct BackendBundle {
  std::unique_ptr<nvm::PerfModel> perf;
  std::unique_ptr<nvm::NvmRegion> region;
  std::unique_ptr<nvm::DramCache> dram;
  std::unique_ptr<Backend> backend;
  std::filesystem::path file_dir;  ///< kFile only: the backend's scratch dir.
};

BackendBundle make_backend(Kind kind, double throttle = 0.0) {
  BackendBundle b;
  nvm::PerfConfig pc;
  pc.dram_bw_bytes_per_s = 10e9;
  pc.bandwidth_slowdown = 1.0;
  pc.enabled = false;
  b.perf = std::make_unique<nvm::PerfModel>(pc);
  switch (kind) {
    case Kind::kFile: {
      // Unique per call: async tests hold two file backends alive at once
      // (sync-vs-async image comparison), which must not share slot files.
      static std::atomic<int> counter{0};
      FileBackendConfig fc;
      fc.directory = std::filesystem::temp_directory_path() /
                     ("adcc_test_ckpt_" + std::to_string(::getpid()) + "_" +
                      std::to_string(counter.fetch_add(1)));
      fc.throttle_bytes_per_s = throttle;
      b.file_dir = fc.directory;
      b.backend = std::make_unique<FileBackend>(fc);
      break;
    }
    case Kind::kNvm:
      b.region = std::make_unique<nvm::NvmRegion>(8u << 20, *b.perf);
      b.backend = std::make_unique<NvmBackend>(*b.region, 1u << 20);
      break;
    case Kind::kHetero:
      b.region = std::make_unique<nvm::NvmRegion>(8u << 20, *b.perf);
      b.dram = std::make_unique<nvm::DramCache>(1u << 20, *b.region);
      b.backend = std::make_unique<HeteroBackend>(*b.region, *b.dram, 1u << 20);
      break;
  }
  return b;
}

/// ChunkConfig with every non-positional knob (async, codec, ring depth,
/// dirty commit) at its default — the tests below flip those explicitly.
ChunkConfig chunk_cfg(std::size_t chunk_bytes, int threads) {
  ChunkConfig cc;
  cc.chunk_bytes = chunk_bytes;
  cc.threads = threads;
  return cc;
}

class BackendTest : public ::testing::TestWithParam<Kind> {};

TEST_P(BackendTest, SaveLoadRoundtrip) {
  auto b = make_backend(GetParam());
  std::vector<double> x(100, 1.5), y(50, 2.5);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}, {"y", y.data(), y.size() * 8}};
  b.backend->save(0, 1, objs);
  std::fill(x.begin(), x.end(), 0.0);
  std::fill(y.begin(), y.end(), 0.0);
  EXPECT_EQ(b.backend->load(0, objs), 1u);
  EXPECT_DOUBLE_EQ(x[99], 1.5);
  EXPECT_DOUBLE_EQ(y[49], 2.5);
}

TEST_P(BackendTest, LatestTracksCommittedVersion) {
  auto b = make_backend(GetParam());
  std::vector<double> x(10, 1.0);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  EXPECT_EQ(b.backend->latest().second, 0u);
  b.backend->save(0, 1, objs);
  b.backend->save(1, 2, objs);
  const auto [slot, ver] = b.backend->latest();
  EXPECT_EQ(slot, 1);
  EXPECT_EQ(ver, 2u);
}

TEST_P(BackendTest, DoubleBufferingPreservesOlderSlot) {
  auto b = make_backend(GetParam());
  std::vector<double> x(10, 1.0);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  b.backend->save(0, 1, objs);  // slot 0 holds 1.0
  std::fill(x.begin(), x.end(), 2.0);
  b.backend->save(1, 2, objs);  // slot 1 holds 2.0
  std::fill(x.begin(), x.end(), 0.0);
  b.backend->load(0, objs);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  b.backend->load(1, objs);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST_P(BackendTest, StatsCountTraffic) {
  auto b = make_backend(GetParam());
  std::vector<double> x(10, 1.0);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  b.backend->save(0, 1, objs);
  b.backend->load(0, objs);
  EXPECT_EQ(b.backend->stats().saves, 1u);
  EXPECT_EQ(b.backend->stats().loads, 1u);
  EXPECT_EQ(b.backend->stats().bytes_saved, 80u);
  EXPECT_EQ(b.backend->stats().bytes_loaded, 80u);
}

TEST_P(BackendTest, CheckpointSetSaveRestoreCycle) {
  auto b = make_backend(GetParam());
  std::vector<double> x(64, 0.0);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  for (int it = 1; it <= 3; ++it) {
    std::fill(x.begin(), x.end(), static_cast<double>(it));
    EXPECT_EQ(set.save(), static_cast<std::uint64_t>(it));
  }
  std::fill(x.begin(), x.end(), -1.0);
  EXPECT_EQ(set.restore(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
}

TEST_P(BackendTest, RestoreWithoutCheckpointReturnsZero) {
  auto b = make_backend(GetParam());
  std::vector<double> x(8, 5.0);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  EXPECT_EQ(set.restore(), 0u);
  EXPECT_DOUBLE_EQ(x[0], 5.0);  // Untouched.
}

INSTANTIATE_TEST_SUITE_P(AllMedia, BackendTest,
                         ::testing::Values(Kind::kFile, Kind::kNvm, Kind::kHetero),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kFile: return "File";
                             case Kind::kNvm: return "Nvm";
                             case Kind::kHetero: return "Hetero";
                           }
                           return "Unknown";
                         });

TEST(CheckpointSet, AddAfterFirstSaveThrows) {
  auto b = make_backend(Kind::kNvm);
  std::vector<double> x(8), y(8);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), 64);
  set.save();
  EXPECT_THROW(set.add("y", y.data(), 64), ContractViolation);
}

TEST(CheckpointSet, PayloadBytesSumsObjects) {
  auto b = make_backend(Kind::kNvm);
  std::vector<double> x(8), y(4);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), 64);
  set.add("y", y.data(), 32);
  EXPECT_EQ(set.payload_bytes(), 96u);
}

TEST(NvmBackend, OversizedCheckpointRejected) {
  auto b = make_backend(Kind::kNvm);
  std::vector<double> big((2u << 20) / 8, 1.0);
  std::vector<ObjectView> objs = {{"big", big.data(), big.size() * 8}};
  EXPECT_THROW(b.backend->save(0, 1, objs), ContractViolation);
}

TEST(FileBackend, ThrottleBoundsBandwidth) {
  auto b = make_backend(Kind::kFile, /*throttle=*/50e6);  // 50 MB/s
  std::vector<double> x((4u << 20) / 8, 1.0);             // 4 MB → ≥ 80 ms
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  Timer t;
  b.backend->save(0, 1, objs);
  EXPECT_GE(t.elapsed(), 0.07);
}

TEST(FileBackend, ThrottleHoldsForWindowsShorterThanTimerSlack) {
  // 200 chunks of 56 header + 64 payload bytes at 4 MB/s: 30 us windows,
  // below the timer slack, which write_span spins out instead of sleeping.
  auto b = make_backend(Kind::kFile, /*throttle=*/4e6);
  b.backend->configure_chunks(chunk_cfg(64, 1));
  std::vector<double> x(200 * 64 / 8, 1.0);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  Timer t;
  b.backend->save(0, 1, objs);
  EXPECT_GE(t.elapsed(), 200 * 120 / 4e6);
}

TEST(HeteroBackend, DramCacheSeesBothCopies) {
  auto b = make_backend(Kind::kHetero);
  std::vector<double> x(1024, 1.0);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  b.backend->save(0, 1, objs);
  // Every image byte (payload + chunk/slot headers) is staged once and
  // drained once; nothing may linger in volatile staging after the save.
  EXPECT_GE(b.dram->stats().staged_bytes, 8192u);
  EXPECT_EQ(b.dram->stats().staged_bytes, b.dram->stats().drained_bytes);
  EXPECT_EQ(b.dram->pending(), 0u);
}

// --------------------------------------------------- chunk engine behavior --

/// A non-crash exception for interrupting saves mid-pipeline in tests.
struct TestPowerFailure {};

/// A CheckpointSet whose point hook cuts the power after `chunks` persists.
struct InterruptibleSet {
  explicit InterruptibleSet(Backend& backend)
      : set(backend, [this](const char* point) {
          if (arm_after_chunks > 0 && std::string_view(point) == kPointChunkSaved &&
              ++fired == arm_after_chunks) {
            throw TestPowerFailure{};
          }
        }) {}

  CheckpointSet set;
  std::size_t arm_after_chunks = 0;
  std::size_t fired = 0;
};

TEST_P(BackendTest, ZeroByteObjectsRoundtrip) {
  auto b = make_backend(GetParam());
  std::vector<double> x(16, 3.0);
  double unused = 0.0;
  CheckpointSet set(*b.backend);
  set.add("empty_head", &unused, 0);
  set.add("x", x.data(), x.size() * 8);
  set.add("empty_tail", nullptr, 0);
  EXPECT_EQ(set.save(), 1u);
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(set.restore(), 1u);
  EXPECT_DOUBLE_EQ(x[15], 3.0);
}

TEST_P(BackendTest, PayloadSmallerThanOneChunkRoundtrips) {
  auto b = make_backend(GetParam());
  b.backend->configure_chunks(chunk_cfg(1u << 20, 1));  // 1 MB chunks, 11-byte payload.
  char small[11] = "0123456789";
  std::vector<ObjectView> objs = {{"small", small, sizeof(small)}};
  b.backend->save(0, 1, objs);
  std::fill(std::begin(small), std::end(small), '\0');
  EXPECT_EQ(b.backend->load(0, objs), 1u);
  EXPECT_STREQ(small, "0123456789");
}

TEST_P(BackendTest, MoreThreadsThanChunksRoundtrips) {
  auto b = make_backend(GetParam());
  b.backend->configure_chunks(chunk_cfg(64u << 10, 8));  // 8 workers, 1-chunk payload.
  std::vector<double> x(64, 4.5);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  b.backend->save(0, 7, objs);
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(b.backend->load(0, objs), 7u);
  EXPECT_DOUBLE_EQ(x[0], 4.5);
}

TEST_P(BackendTest, SlotImagesAreByteIdenticalAcrossThreadCounts) {
  // The acceptance criterion: serial and 8-worker saves of the same data
  // produce bit-for-bit identical slot images on every medium.
  std::vector<double> x(4096), y(777);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i) * 0.5;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = -static_cast<double>(i);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8},
                                  {"y", y.data(), y.size() * 8}};
  const std::size_t image = checkpoint_image_bytes(objs, 4096);

  std::vector<std::byte> serial(image), parallel(image);
  for (int threads : {1, 8}) {
    auto b = make_backend(GetParam());
    b.backend->configure_chunks(chunk_cfg(4096, threads));  // 10 chunks across 2 objects.
    b.backend->save(1, 3, objs);
    auto& out = threads == 1 ? serial : parallel;
    ASSERT_EQ(b.backend->read_image(1, out), image);
  }
  EXPECT_EQ(serial, parallel);
}

TEST_P(BackendTest, UnchangedChunksAreSkippedPerSlot) {
  auto b = make_backend(GetParam());
  b.backend->configure_chunks(chunk_cfg(4096, 1));
  std::vector<double> x(4 * 4096 / 8, 1.0);  // 4 chunks.
  std::vector<double> y(4096 / 8, 5.0);      // 1 chunk, filtered independently.
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  set.add("y", y.data(), y.size() * 8);
  set.save();  // v1 -> slot 1, full.
  set.save();  // v2 -> slot 0, full (first image there).
  set.save();  // v3 -> slot 1, identical to v1: everything skips.
  EXPECT_EQ(set.last_save().chunks_written, 0u);
  EXPECT_EQ(set.last_save().chunks_skipped, 5u);
  x[0] = 2.0;  // Dirty chunk 0 of x only.
  set.save();  // v4 -> slot 0.
  EXPECT_EQ(set.last_save().chunks_written, 1u);
  EXPECT_EQ(set.last_save().chunks_skipped, 4u);
  std::fill(x.begin(), x.end(), 0.0);
  std::fill(y.begin(), y.end(), 0.0);
  EXPECT_EQ(set.restore(), 4u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
}

TEST_P(BackendTest, InterruptedSaveLeavesPreviousCheckpointAndIsDetected) {
  auto b = make_backend(GetParam());
  b.backend->configure_chunks(chunk_cfg(4096, 1));
  std::vector<double> x(4 * 4096 / 8, 1.0);
  InterruptibleSet is(*b.backend);
  is.set.add("x", x.data(), x.size() * 8);
  is.set.save();  // v1 -> slot 1.
  std::fill(x.begin(), x.end(), 2.0);
  is.set.save();  // v2 -> slot 0.
  std::fill(x.begin(), x.end(), 3.0);
  is.arm_after_chunks = 2;  // Power fails two chunks into save v3 (slot 1).
  EXPECT_THROW(is.set.save(), TestPowerFailure);

  // The committed checkpoint (v2) survives; the torn in-flight slot is
  // *classified* by the restore probe instead of being silent garbage.
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(is.set.restore(), 2u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_GT(is.set.last_restore().chunks_probed, 0u);

  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  if (GetParam() == Kind::kHetero) {
    // Hetero's distinguishing crash behavior: the interrupted chunks were
    // still staged in volatile DRAM (never drained), so the slot's previous
    // image is INTACT — clean, not torn.
    EXPECT_EQ(is.set.last_restore().torn_chunks, 0u);
    EXPECT_EQ(b.backend->load(1, objs), 1u);
    EXPECT_DOUBLE_EQ(x[0], 1.0);
  } else {
    // File/NVM persist chunk spans immediately: the in-flight save left torn
    // evidence, and loading the torn slot reports it explicitly.
    EXPECT_GE(is.set.last_restore().torn_chunks, 1u);
    EXPECT_THROW(b.backend->load(1, objs), TornCheckpoint);
  }
}

TEST_P(BackendTest, MismatchedLayoutIsACheckedError) {
  auto b = make_backend(GetParam());
  std::vector<double> x(64, 1.0), y(32, 2.0);
  std::vector<ObjectView> saved = {{"x", x.data(), x.size() * 8},
                                   {"y", y.data(), y.size() * 8}};
  b.backend->save(0, 1, saved);

  // Wrong object size: must throw before any byte lands in a live object.
  std::vector<double> wrong(48, -1.0);
  std::vector<ObjectView> resized = {{"x", wrong.data(), wrong.size() * 8},
                                     {"y", y.data(), y.size() * 8}};
  EXPECT_THROW(b.backend->load(0, resized), LayoutMismatch);
  EXPECT_DOUBLE_EQ(wrong[0], -1.0);  // Untouched.

  // Wrong object count.
  std::vector<ObjectView> fewer = {{"x", x.data(), x.size() * 8}};
  EXPECT_THROW(b.backend->load(0, fewer), LayoutMismatch);

  // The matching layout still loads.
  EXPECT_EQ(b.backend->load(0, saved), 1u);
}

TEST(FileBackend, CorruptedPayloadFailsItsCrc) {
  auto b = make_backend(Kind::kFile);
  std::vector<double> x(1024, 1.25);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  b.backend->save(0, 5, objs);

  // Flip one payload byte on disk (the image's last bytes are payload).
  const std::size_t image = checkpoint_image_bytes(objs, b.backend->chunk_config().chunk_bytes);
  const std::filesystem::path slot = b.file_dir / "slot0.ckpt";
  ASSERT_TRUE(std::filesystem::exists(slot));
  {
    std::fstream f(slot, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(image - 4));
    char flip = 0x5A;
    f.write(&flip, 1);
  }
  EXPECT_THROW(b.backend->load(0, objs), TornCheckpoint);
}

TEST(HeteroBackend, InterruptedSaveDebrisDoesNotTearTheNextSave) {
  // Chunks staged by an interrupted save must not be drained by a later
  // save's epilogue into the other slot's committed image.
  auto b = make_backend(Kind::kHetero);
  b.backend->configure_chunks(chunk_cfg(4096, 1));
  std::vector<double> x(4 * 4096 / 8, 1.0);
  InterruptibleSet is(*b.backend);
  is.set.add("x", x.data(), x.size() * 8);
  is.set.save();  // v1 -> slot 1.
  std::fill(x.begin(), x.end(), 2.0);
  is.arm_after_chunks = 2;
  EXPECT_THROW(is.set.save(), TestPowerFailure);  // v2 debris stays staged.
  is.arm_after_chunks = 0;
  std::fill(x.begin(), x.end(), 3.0);
  // The failed version is rolled back: the retry is v2 again, aimed at the
  // same uncommitted slot, and its begin_slot drops the stale staged debris.
  is.set.save();
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(is.set.restore(), 2u);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_EQ(is.set.last_restore().torn_chunks, 0u);  // Slot 1 kept v1 intact.
}

TEST(CheckpointSet, FailedSaveRollsBackTheVersionSoRetriesSpareTheCommittedSlot) {
  auto b = make_backend(Kind::kNvm);
  b.backend->configure_chunks(chunk_cfg(4096, 1));
  std::vector<double> x(2 * 4096 / 8, 1.0);
  InterruptibleSet is(*b.backend);
  is.set.add("x", x.data(), x.size() * 8);
  is.set.save();  // v1 committed to slot 1.
  std::fill(x.begin(), x.end(), 2.0);
  is.arm_after_chunks = 1;
  EXPECT_THROW(is.set.save(), TestPowerFailure);  // v2 attempt dies.
  EXPECT_EQ(is.set.version(), 1u);                // Rolled back.
  is.arm_after_chunks = 0;
  is.set.save();  // Retry: v2 again -> slot 0, never slot 1 (the committed one).
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(is.set.restore(), 2u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  // And the previous checkpoint is still loadable from its slot.
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  EXPECT_EQ(b.backend->load(1, objs), 1u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
}

TEST(CheckpointSet, ZeroChunkSetSavesAndRestores) {
  auto b = make_backend(Kind::kNvm);
  double unused = 0.0;
  CheckpointSet set(*b.backend);
  set.add("empty", &unused, 0);
  EXPECT_EQ(set.save(), 1u);
  EXPECT_EQ(set.payload_bytes(), 0u);
  EXPECT_EQ(set.restore(), 1u);
}

// ------------------------------------------------- asynchronous save path --

TEST_P(BackendTest, AsyncSaveCommitsAfterWaitDurable) {
  auto b = make_backend(GetParam());
  std::vector<double> x(4096, 1.5);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  EXPECT_EQ(set.save_async(), 1u);
  EXPECT_TRUE(set.async_pending());
  EXPECT_EQ(set.wait_durable(), 1u);
  EXPECT_FALSE(set.async_pending());
  EXPECT_EQ(b.backend->latest().second, 1u);
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(set.restore(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 1.5);
}

TEST_P(BackendTest, AsyncSaveSnapshotsAtCallTime) {
  // The whole point of the staging arena: the caller may clobber the live
  // objects the moment save_async returns, and the drain still persists the
  // values the save saw.
  auto b = make_backend(GetParam());
  std::vector<double> x(4096, 1.5);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  set.save_async();
  std::fill(x.begin(), x.end(), 9.0);  // Next unit's writes, racing the drain.
  set.wait_durable();
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(set.restore(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 1.5);
  EXPECT_DOUBLE_EQ(x[4095], 1.5);
}

TEST_P(BackendTest, BackToBackAsyncSavesJoinTheFirst) {
  auto b = make_backend(GetParam());
  std::vector<double> x(2048, 1.0);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  EXPECT_EQ(set.save_async(), 1u);
  std::fill(x.begin(), x.end(), 2.0);
  EXPECT_EQ(set.save_async(), 2u);  // Joins drain 1 before staging v2.
  EXPECT_EQ(set.wait_durable(), 2u);
  EXPECT_EQ(b.backend->latest().second, 2u);
  // Both slots hold committed images (double buffering survived the overlap).
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8}};
  EXPECT_EQ(b.backend->load(1, objs), 1u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_EQ(b.backend->load(0, objs), 2u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST_P(BackendTest, WaitDurableIsIdempotent) {
  auto b = make_backend(GetParam());
  std::vector<double> x(512, 4.0);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  EXPECT_EQ(set.wait_durable(), 0u);  // Nothing pending, nothing saved.
  set.save_async();
  EXPECT_EQ(set.wait_durable(), 1u);
  EXPECT_EQ(set.wait_durable(), 1u);  // Second join is a no-op.
  EXPECT_EQ(set.wait_durable(), 1u);
  EXPECT_EQ(b.backend->latest().second, 1u);
}

TEST_P(BackendTest, AsyncSlotImagesMatchSyncByteForByte) {
  // The same save sequence through save() and save_async() must produce
  // byte-identical slot images on every medium — async changes when bytes
  // land, never which bytes.
  auto sync_b = make_backend(GetParam());
  auto async_b = make_backend(GetParam());
  std::vector<double> x(3000, 0.0), y(700, 0.0);
  CheckpointSet sync_set(*sync_b.backend);
  CheckpointSet async_set(*async_b.backend);
  for (CheckpointSet* set : {&sync_set, &async_set}) {
    set->add("x", x.data(), x.size() * 8);
    set->add("y", y.data(), y.size() * 8);
  }
  for (int ver = 1; ver <= 3; ++ver) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = ver * 1.25 + double(i);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = ver * 2.5 - double(i);
    sync_set.save();
    async_set.save_async();
    async_set.wait_durable();
  }
  const std::size_t image_bytes =
      checkpoint_image_bytes(std::vector<ObjectView>{{"x", x.data(), x.size() * 8},
                                                     {"y", y.data(), y.size() * 8}},
                             sync_b.backend->chunk_config().chunk_bytes);
  for (int slot = 0; slot < 2; ++slot) {
    std::vector<std::byte> sync_img(image_bytes), async_img(image_bytes);
    ASSERT_EQ(sync_b.backend->read_image(slot, sync_img), image_bytes);
    ASSERT_EQ(async_b.backend->read_image(slot, async_img), image_bytes);
    EXPECT_EQ(sync_img, async_img) << "slot " << slot;
  }
}

TEST_P(BackendTest, AsyncDirtyChunkFilterSkipsUnchangedChunks) {
  auto b = make_backend(GetParam());
  std::vector<double> x(3 * 4096, 7.0);
  b.backend->configure_chunks(chunk_cfg(4096, 1));
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  set.save_async();  // v1 -> slot 1.
  set.save_async();  // v2 -> slot 0 (first image there: full write).
  set.save_async();  // v3 -> slot 1 again, data unchanged since v1.
  EXPECT_EQ(set.wait_durable(), 3u);
  EXPECT_EQ(set.last_save().chunks_written, 0u);
  EXPECT_GT(set.last_save().chunks_skipped, 0u);
}

/// An InterruptibleSet variant for the async sites: cuts the power at the
/// N-th hit of one crash-point name (ckpt_stage / ckpt_drain).
struct AsyncInterruptibleSet {
  AsyncInterruptibleSet(Backend& backend, const char* at)
      : set(backend, [this, at](const char* point) {
          if (arm_after > 0 && std::string_view(point) == at && ++fired == arm_after) {
            throw TestPowerFailure{};
          }
        }) {}

  CheckpointSet set;
  std::size_t arm_after = 0;
  std::size_t fired = 0;
};

TEST_P(BackendTest, CrashBetweenStageAndDrainLeavesBackendUntouched) {
  auto b = make_backend(GetParam());
  b.backend->configure_chunks(chunk_cfg(4096, 1));
  std::vector<double> x(4 * 4096 / 8, 1.0);
  AsyncInterruptibleSet is(*b.backend, kPointChunkStaged);
  is.set.add("x", x.data(), x.size() * 8);
  is.set.save_async();
  EXPECT_EQ(is.set.wait_durable(), 1u);  // v1 committed.
  std::fill(x.begin(), x.end(), 2.0);
  is.arm_after = 2;  // Power fails two chunks into v2's staging pass.
  EXPECT_THROW(is.set.save_async(), TestPowerFailure);
  EXPECT_EQ(is.set.version(), 1u);  // Rolled back; nothing reached the medium.
  EXPECT_FALSE(is.set.async_pending());

  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(is.set.restore(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  // No save started, so not a single torn chunk — on ANY medium.
  EXPECT_EQ(is.set.last_restore().torn_chunks, 0u);
}

TEST_P(BackendTest, CrashMidDrainSurfacesAtJoinAndClassifiesLikeSyncMidSave) {
  auto b = make_backend(GetParam());
  b.backend->configure_chunks(chunk_cfg(4096, 1));
  std::vector<double> x(4 * 4096 / 8, 1.0);
  AsyncInterruptibleSet is(*b.backend, kPointChunkDrained);
  is.set.add("x", x.data(), x.size() * 8);
  is.set.save_async();
  EXPECT_EQ(is.set.wait_durable(), 1u);
  std::fill(x.begin(), x.end(), 2.0);
  is.set.save_async();
  EXPECT_EQ(is.set.wait_durable(), 2u);
  std::fill(x.begin(), x.end(), 3.0);
  is.arm_after = 2;  // Power fails two chunks into v3's background drain.
  is.set.save_async();                                 // Launch succeeds...
  EXPECT_THROW(is.set.wait_durable(), TestPowerFailure);  // ...the join reports.
  EXPECT_EQ(is.set.version(), 2u);  // Rolled back to the committed version.

  // Power-loss epilogue, as the workloads' inject_crash does it.
  if (b.dram) b.dram->discard();
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(is.set.restore(), 2u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  if (GetParam() == Kind::kHetero) {
    // The drained-but-undrained chunks died in volatile DRAM staging: the
    // slot's previous image is intact — clean-old, hetero's crash signature.
    EXPECT_EQ(is.set.last_restore().torn_chunks, 0u);
  } else {
    EXPECT_GE(is.set.last_restore().torn_chunks, 1u);
  }
}

TEST_P(BackendTest, AbortAsyncEmulatesPowerFailureAndRecoversConsistently) {
  // abort_async lands at a nondeterministic drain position (that is the
  // point); whatever it cut off, restore must land on a committed version
  // whose payload matches it exactly.
  auto b = make_backend(GetParam());
  b.backend->configure_chunks(chunk_cfg(4096, 1));
  std::vector<double> x(8 * 4096 / 8, 1.0);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  set.save_async();
  set.wait_durable();  // v1 committed.
  std::fill(x.begin(), x.end(), 2.0);
  set.save_async();    // v2 drains in the background...
  set.abort_async();   // ...and the power fails.
  EXPECT_FALSE(set.async_pending());
  if (b.dram) b.dram->discard();
  std::fill(x.begin(), x.end(), 0.0);
  const std::uint64_t restored = set.restore();
  EXPECT_TRUE(restored == 1u || restored == 2u);  // Committed either way.
  EXPECT_DOUBLE_EQ(x[0], restored == 1u ? 1.0 : 2.0);
  EXPECT_EQ(set.version(), restored);
  // Life goes on: the next save commits the next version durably.
  std::fill(x.begin(), x.end(), 5.0);
  const std::uint64_t next = set.save();
  EXPECT_EQ(next, restored + 1);
  EXPECT_EQ(b.backend->latest().second, next);
}

TEST_P(BackendTest, ConfiguredAsyncDispatchesPlainSave) {
  // ChunkConfig::async reroutes save() through the async path, which is how
  // --ckpt_async reaches adapters without any adapter change.
  auto b = make_backend(GetParam());
  ChunkConfig cc = b.backend->chunk_config();
  cc.async = true;
  b.backend->configure_chunks(cc);
  std::vector<double> x(1024, 6.5);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  EXPECT_EQ(set.save(), 1u);
  EXPECT_TRUE(set.async_pending());
  EXPECT_EQ(set.wait_durable(), 1u);
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(set.restore(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 6.5);
}

// ------------------------------------------------- per-chunk compression --

CodecSpec lz_spec() {
  CodecSpec cs;
  EXPECT_TRUE(parse_codec("lz", &cs));
  return cs;
}

TEST_P(BackendTest, CompressedSaveShrinksStoredBytesAndRestoresExactly) {
  auto b = make_backend(GetParam());
  ChunkConfig cc = chunk_cfg(4096, 1);
  cc.compress = lz_spec();
  b.backend->configure_chunks(cc);
  // Smoothly varying doubles: constant exponent planes, slow mantissa drift —
  // the payload shape the byte-plane codec exists for.
  std::vector<double> x(8 * 4096 / 8);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1e6 + 0.125 * static_cast<double>(i);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  EXPECT_EQ(set.save(), 1u);
  EXPECT_LT(b.backend->stats().bytes_stored, b.backend->stats().bytes_saved);
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(set.restore(), 1u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_DOUBLE_EQ(x[i], 1e6 + 0.125 * static_cast<double>(i)) << "i=" << i;
  }
}

TEST_P(BackendTest, CompressedSlotImagesAreByteIdenticalAcrossThreadCounts) {
  // The codec is a pure function of the payload bytes: with compression on,
  // serial and 8-worker saves must still produce bit-identical slot images.
  std::vector<double> x(4096), y(777);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1e6 + 0.125 * static_cast<double>(i);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = -static_cast<double>(i);
  std::vector<ObjectView> objs = {{"x", x.data(), x.size() * 8},
                                  {"y", y.data(), y.size() * 8}};
  const std::size_t image = checkpoint_image_bytes(objs, 4096);
  std::vector<std::byte> serial(image), parallel(image);
  std::size_t serial_bytes = 0, parallel_bytes = 0;
  for (int threads : {1, 8}) {
    auto b = make_backend(GetParam());
    ChunkConfig cc = chunk_cfg(4096, threads);
    cc.compress = lz_spec();
    b.backend->configure_chunks(cc);
    b.backend->save(1, 3, objs);
    EXPECT_LT(b.backend->stats().bytes_stored, b.backend->stats().bytes_saved);
    auto& out = threads == 1 ? serial : parallel;
    (threads == 1 ? serial_bytes : parallel_bytes) = b.backend->read_image(1, out);
  }
  EXPECT_EQ(serial_bytes, parallel_bytes);
  EXPECT_EQ(serial, parallel);
}

// ------------------------------------------------------ ring depth crashes --

TEST_P(BackendTest, RingDepthCrashMatrixRecoversACommittedConsistentState) {
  // Every async crash site (staging pass, background drain, ring admission)
  // at every supported ring depth: whatever the cut lost, restore must land
  // on a version whose payload matches it exactly, and the set must accept
  // (and durably commit) new saves afterwards.
  for (int depth : {1, 2, 4}) {
    for (const char* at : {kPointChunkStaged, kPointChunkDrained, kPointRingStaged}) {
      if (depth == 1 && std::string_view(at) == kPointRingStaged) {
        continue;  // ring_stage only fires for rings deeper than one.
      }
      SCOPED_TRACE(::testing::Message() << "depth=" << depth << " point=" << at);
      auto b = make_backend(GetParam());
      ChunkConfig cc = chunk_cfg(4096, 1);
      cc.async_depth = depth;
      b.backend->configure_chunks(cc);
      std::vector<double> x(4 * 4096 / 8, 0.0);
      AsyncInterruptibleSet is(*b.backend, at);
      is.set.add("x", x.data(), x.size() * 8);
      for (std::uint64_t v = 1; v <= 2; ++v) {  // Two committed baselines.
        std::fill(x.begin(), x.end(), static_cast<double>(v));
        is.set.save_async();
        ASSERT_EQ(is.set.wait_durable(), v);
      }
      is.arm_after = 2;
      bool cut = false;
      try {
        // Overfill the ring so the crash can land with saves queued behind it.
        for (std::uint64_t v = 3; v <= 3 + static_cast<std::uint64_t>(depth); ++v) {
          std::fill(x.begin(), x.end(), static_cast<double>(v));
          is.set.save_async();
        }
        is.set.wait_durable();
      } catch (const TestPowerFailure&) {
        cut = true;
      }
      EXPECT_TRUE(cut);
      is.arm_after = 0;
      // Power-loss epilogue, as the workloads' inject_crash does it.
      is.set.abort_async();
      if (b.dram) b.dram->discard();
      std::fill(x.begin(), x.end(), 0.0);
      const std::uint64_t restored = is.set.restore();
      EXPECT_GE(restored, 2u);  // Never behind the pre-burst commits.
      EXPECT_LE(restored, 3 + static_cast<std::uint64_t>(depth));
      EXPECT_DOUBLE_EQ(x[0], static_cast<double>(restored));
      EXPECT_DOUBLE_EQ(x.back(), static_cast<double>(restored));
      // Life goes on: the next save commits durably past the crash.
      std::fill(x.begin(), x.end(), 9.0);
      EXPECT_EQ(is.set.save(), restored + 1);
      EXPECT_EQ(b.backend->latest().second, restored + 1);
    }
  }
}

TEST_P(BackendTest, DrainFailureSkipsQueuedRingSavesAndRetryRecommits) {
  auto b = make_backend(GetParam());
  ChunkConfig cc = chunk_cfg(4096, 1);
  cc.async_depth = 4;
  b.backend->configure_chunks(cc);
  std::vector<double> x(4 * 4096 / 8, 1.0);
  AsyncInterruptibleSet is(*b.backend, kPointChunkDrained);
  is.set.add("x", x.data(), x.size() * 8);
  is.set.save_async();
  ASSERT_EQ(is.set.wait_durable(), 1u);  // v1 committed.
  is.arm_after = 1;  // The next drained chunk — v2's first — dies.
  std::fill(x.begin(), x.end(), 2.0);
  is.set.save_async();  // v2: its drain will fail.
  std::fill(x.begin(), x.end(), 3.0);
  is.set.save_async();  // v3, queued behind the failure: must never run.
  std::fill(x.begin(), x.end(), 4.0);
  is.set.save_async();  // v4, possibly enqueued only after the failure hit.
  EXPECT_THROW(is.set.wait_durable(), TestPowerFailure);
  EXPECT_EQ(is.set.version(), 1u);       // Rolled back to before the failed save.
  EXPECT_FALSE(is.set.async_pending());  // The queued saves were dropped.
  // v1 is still the restorable truth...
  if (b.dram) b.dram->discard();
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(is.set.restore(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  // ...and the ring accepts (and commits) new work: the skip latch covering
  // the failure window must not leak into the retry.
  is.arm_after = 0;
  std::fill(x.begin(), x.end(), 5.0);
  EXPECT_EQ(is.set.save_async(), 2u);
  EXPECT_EQ(is.set.wait_durable(), 2u);
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(is.set.restore(), 2u);
  EXPECT_DOUBLE_EQ(x[0], 5.0);
}

// -------------------------------------- dirty-chunk commit and salvage --

TEST_P(BackendTest, DirtyCommitStampsCleanChunksAndReusesTheCommittedSlot) {
  auto b = make_backend(GetParam());
  ChunkConfig cc = chunk_cfg(4096, 1);
  cc.dirty_commit = true;
  b.backend->configure_chunks(cc);
  std::vector<double> x(4 * 4096 / 8, 1.0);
  CheckpointSet set(*b.backend);
  set.add("x", x.data(), x.size() * 8);
  set.save();  // v1: no committed image anywhere yet — classic alternation.
  const int slot_v1 = b.backend->latest().first;
  set.save();  // v2: the OTHER slot holds no fallback yet — still alternates.
  const int slot_v2 = b.backend->latest().first;
  EXPECT_EQ(slot_v2, 1 - slot_v1);
  x[0] = 2.0;  // One dirty chunk.
  set.save();  // v3: both slots committed — in-place dirty commit engages.
  EXPECT_EQ(b.backend->latest().first, slot_v2);  // Same slot re-committed.
  EXPECT_EQ(b.backend->latest().second, 3u);
  EXPECT_EQ(set.last_save().chunks_written, 1u);
  EXPECT_EQ(set.last_save().chunks_stamped, 3u);
  EXPECT_EQ(set.last_save().chunks_skipped, 0u);
  std::fill(x.begin(), x.end(), 0.0);
  EXPECT_EQ(set.restore(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[512], 1.0);  // Stamped chunk intact.
}

TEST_P(BackendTest, TornInPlaceSaveFallsBackToTheAgedSlot) {
  auto b = make_backend(GetParam());
  ChunkConfig cc = chunk_cfg(4096, 1);
  cc.dirty_commit = true;
  b.backend->configure_chunks(cc);
  std::vector<double> x(4 * 4096 / 8, 1.0);
  InterruptibleSet is(*b.backend);
  is.set.add("x", x.data(), x.size() * 8);
  is.set.save();  // v1.
  std::fill(x.begin(), x.end(), 2.0);
  is.set.save();  // v2 — the slot the in-place save will now rewrite.
  std::fill(x.begin(), x.end(), 3.0);  // Every chunk dirty.
  is.arm_after_chunks = 2;  // Power fails two chunks into the in-place save.
  EXPECT_THROW(is.set.save(), TestPowerFailure);
  EXPECT_EQ(is.set.version(), 2u);  // Rolled back.
  if (b.dram) b.dram->discard();
  std::fill(x.begin(), x.end(), 0.0);
  const std::uint64_t restored = is.set.restore();
  if (GetParam() == Kind::kHetero) {
    // The interrupted chunks died in volatile DRAM staging: the in-place
    // image is intact and the marker's checkpoint survives untorn.
    EXPECT_EQ(restored, 2u);
    EXPECT_DOUBLE_EQ(x[0], 2.0);
    EXPECT_EQ(is.set.last_restore().torn_chunks, 0u);
  } else {
    // The committed image itself is torn (half v3, half v2, epochs
    // incoherent): restore falls back to the aged other slot and re-commits
    // it — the documented dirty-commit recovery trade.
    EXPECT_EQ(restored, 1u);
    EXPECT_DOUBLE_EQ(x[0], 1.0);
    EXPECT_GE(is.set.last_restore().torn_chunks, 1u);
  }
  // Life goes on from whatever was recovered.
  is.arm_after_chunks = 0;
  std::fill(x.begin(), x.end(), 7.0);
  EXPECT_EQ(is.set.save(), restored + 1);
  EXPECT_EQ(b.backend->latest().second, restored + 1);
}

TEST_P(BackendTest, TornSlotSalvageRecoversACompletedSaveAndRollsBackShortOfOne) {
  // The salvage boundary, one chunk apart: a crash AFTER the last chunk write
  // (before the slot header + marker) leaves a salvage-ready slot — restore
  // recovers the interrupted save past the committed marker. One chunk
  // earlier, salvage is impossible and restore rolls back to the marker.
  for (const std::size_t cut : {std::size_t{4}, std::size_t{3}}) {
    SCOPED_TRACE(::testing::Message() << "cut after chunk " << cut);
    auto b = make_backend(GetParam());
    b.backend->configure_chunks(chunk_cfg(4096, 1));
    std::vector<double> x(4 * 4096 / 8, 1.0);
    InterruptibleSet is(*b.backend);
    is.set.add("x", x.data(), x.size() * 8);
    is.set.save();  // v1.
    std::fill(x.begin(), x.end(), 2.0);
    is.set.save();  // v2.
    std::fill(x.begin(), x.end(), 3.0);  // Every chunk dirty for v3.
    is.arm_after_chunks = cut;
    EXPECT_THROW(is.set.save(), TestPowerFailure);
    if (b.dram) b.dram->discard();
    std::fill(x.begin(), x.end(), 0.0);
    const std::uint64_t restored = is.set.restore();
    if (GetParam() == Kind::kHetero) {
      // Nothing drained before the crash: no salvage candidate on media,
      // clean rollback to the marker either way.
      EXPECT_EQ(restored, 2u);
      EXPECT_DOUBLE_EQ(x[0], 2.0);
      EXPECT_EQ(is.set.last_restore().salvaged_chunks, 0u);
    } else if (cut == 4) {
      // All four chunks of v3 landed: salvage recovers it and re-commits.
      EXPECT_EQ(restored, 3u);
      EXPECT_DOUBLE_EQ(x[0], 3.0);
      EXPECT_EQ(is.set.last_restore().salvaged_chunks, 4u);
      EXPECT_EQ(is.set.last_restore().torn_chunks, 0u);  // Recovered, not lost.
      EXPECT_EQ(b.backend->latest().second, 3u);  // Salvage committed durably.
    } else {
      // Chunk 4 never landed: the slot is torn beyond salvage — rollback.
      EXPECT_EQ(restored, 2u);
      EXPECT_DOUBLE_EQ(x[0], 2.0);
      EXPECT_EQ(is.set.last_restore().salvaged_chunks, 0u);
      EXPECT_GE(is.set.last_restore().torn_chunks, 1u);
    }
  }
}

}  // namespace
}  // namespace adcc::checkpoint

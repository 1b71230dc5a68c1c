// NVM-only memory checkpointing (paper test case 3): chunk spans are
// write_durable'd (memcpy + flush + fence) into slot arenas allocated from
// an NvmRegion, charged to the arena's perf model. With a slowdown-1 model
// this is the paper's optimistic "NVM as fast as DRAM" configuration (4.2 %
// overhead for CG); with slowdown 8 it is the pessimistic one (43.6 %).
//
// The NVM "device" is a single memory channel here, so span persists are
// serialized under a mutex; pipeline workers still overlap chunk
// serialization and CRC computation with each other's persists.
#pragma once

#include <mutex>

#include "checkpoint/backend.hpp"
#include "nvm/nvm_region.hpp"

namespace adcc::checkpoint {

class NvmBackend final : public Backend {
 public:
  /// The backend allocates two slots of `capacity_per_slot` in `region`.
  NvmBackend(nvm::NvmRegion& region, std::size_t capacity_per_slot);
  /// Joins an in-flight drain before the slot arenas can dangle.
  ~NvmBackend() override { teardown_drain(); }

  std::pair<int, std::uint64_t> latest() const override;

 protected:
  void begin_slot(int slot, std::size_t image_bytes) override;
  void write_span(int slot, std::size_t offset, const void* src, std::size_t bytes) override;
  void finish_slot(int slot) override;
  void commit_marker(int slot, std::uint64_t version) override;
  std::size_t read_span(int slot, std::size_t offset, void* dst,
                        std::size_t bytes) const override;

 private:
  nvm::NvmRegion& region_;
  std::span<std::byte> slots_[kSlotCount];
  std::span<std::uint64_t> meta_;  ///< [slot, version]
  std::mutex media_mu_;
};

}  // namespace adcc::checkpoint

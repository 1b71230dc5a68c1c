#include "core/coordinator.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "core/fault.hpp"
#include "core/telemetry.hpp"

namespace adcc::core {

GroupCoordinator::GroupCoordinator(checkpoint::Backend& backend, FaultSurface* fault,
                                   std::size_t shards)
    : fault_(fault),
      versions_(shards, 0),
      marker_(backend, [fault](const char* p) {
        if (fault == nullptr) return;
        // The marker's own chunk persists are the "coord_commit" crash site;
        // loads keep their generic name (they ride the recovery path).
        fault->point(std::strcmp(p, checkpoint::kPointChunkSaved) == 0 ? kPointCoordCommit : p);
      }) {
  ADCC_CHECK(shards >= 1, "a shard group needs at least one shard");
  ADCC_CHECK(!backend.chunk_config().async,
             "the marker backend must be synchronous (the marker IS the commit point)");
  marker_.add("epoch", &epoch_, sizeof(epoch_));
  marker_.add("versions", versions_.data(), versions_.size() * sizeof(std::uint64_t));
}

void GroupCoordinator::commit_epoch(
    std::uint64_t epoch,
    const std::vector<std::unique_ptr<checkpoint::CheckpointSet>>& shard_ckpts) {
  ADCC_CHECK(shard_ckpts.size() == versions_.size(), "coordinator/shard count mismatch");
  {
    // coord/join is where a stalled drain shows up: the barrier that makes
    // every shard's epoch image durable before the marker may reference it.
    const StageTimer timer("coord/join");
    for (std::size_t i = 0; i < shard_ckpts.size(); ++i) {
      // The join is what makes this shard's epoch image durable; only then may
      // the marker reference its version.
      shard_ckpts[i]->wait_durable();
      versions_[i] = shard_ckpts[i]->version();
      if (fault_ != nullptr) fault_->point(kPointShardJoin);
    }
  }
  epoch_ = epoch;
  if (fault_ != nullptr) fault_->point(kPointGlobalCommit);
  // A throw below (coord_commit crash site, medium failure) rolls the marker
  // save back inside CheckpointSet; the previous epoch stays committed and
  // reload() realigns the in-memory table during recovery.
  const StageTimer timer("coord/commit");
  marker_.save();
}

GroupCoordinator::Marker GroupCoordinator::reload() {
  const std::uint64_t ver = marker_.restore();
  if (ver == 0) {
    epoch_ = 0;
    std::fill(versions_.begin(), versions_.end(), 0);
  }
  return {epoch_, versions_};
}

void GroupCoordinator::clobber() {
  epoch_ = 0;
  std::fill(versions_.begin(), versions_.end(), 0);
}

}  // namespace adcc::core

// GroupCoordinator — the global-snapshot commit protocol of a multi-shard
// execution group (core::ShardGroup).
//
// Each shard owns a private CheckpointSet (own backend, own double-buffered
// slots). A shard save alone is NOT group-durable: the group's restart point
// is the *global epoch marker*, a tiny checkpoint of its own — written on the
// group's main-env backend — recording the epoch number plus, per shard, the
// exact slot version that holds that shard's epoch image. The commit order is
// strict:
//
//     for each shard, in shard order:
//         join the shard's drain            -> its slot image is durable
//         record its committed slot version
//         [crash site "shard_join"]
//     [crash site "global_commit"]
//     save the marker checkpoint            -> chunk sites "coord_commit"
//
// so the marker can never reference an uncommitted shard version, and a crash
// anywhere before the marker's own commit leaves the previous global epoch as
// the group's restart point (the shard images newer than the marker survive in
// the other slot of each shard's double buffer — CheckpointSet::restore_version
// is the rollback primitive that retrieves the marker's exact version).
//
// The coordinator's in-memory epoch/version table is volatile by design:
// inject_crash clobbers it and recovery must re-read the durable marker
// (reload()), which also realigns the table after a commit the crash
// interrupted half-way.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "checkpoint/checkpoint_set.hpp"

namespace adcc::core {

class FaultSurface;

/// Crash sites of the global commit protocol (crash-plan spellings
/// coord:point:shard_join[:K], coord:point:global_commit,
/// coord:point:coord_commit[:K]).
inline constexpr const char* kPointShardJoin = "shard_join";
inline constexpr const char* kPointGlobalCommit = "global_commit";
inline constexpr const char* kPointCoordCommit = "coord_commit";

/// Owns the global epoch marker and runs the join-then-commit sequence (see
/// the file comment for the full protocol and its crash sites).
class GroupCoordinator {
 public:
  /// `backend` hosts the marker checkpoint (the group's main-env backend —
  /// shard data lives on the per-shard backends, never here) and must be
  /// configured for synchronous saves. `fault` (may be null) receives the
  /// protocol's crash sites; marker chunk persists are announced as
  /// kPointCoordCommit.
  GroupCoordinator(checkpoint::Backend& backend, FaultSurface* fault, std::size_t shards);

  /// The durable restart point: last fully committed epoch (0 = none) and the
  /// per-shard slot versions that hold it.
  struct Marker {
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> versions;
  };

  /// Commits `epoch` as the group's restart point: joins every shard's
  /// outstanding drain in shard order, records the committed slot versions,
  /// then saves the marker. Throws (a crash site firing, a medium failure)
  /// leave the previous marker committed; call reload() during recovery to
  /// realign the in-memory table.
  void commit_epoch(std::uint64_t epoch,
                    const std::vector<std::unique_ptr<checkpoint::CheckpointSet>>& shard_ckpts);

  /// Restores the newest committed marker into the in-memory table and
  /// returns it; epoch 0 (nothing ever committed) zeroes the table. Fires the
  /// translated chunk-load sites through the fault surface, so crash-during-
  /// recovery plans reach the marker load too.
  Marker reload();

  /// Power-failure emulation: the volatile epoch/version table dies.
  void clobber();

  /// Torn marker chunks classified by the last reload() (an interrupted
  /// global commit's evidence).
  std::size_t last_restore_torn() const { return marker_.last_restore().torn_chunks; }

  std::uint64_t epoch() const { return epoch_; }
  std::size_t shards() const { return versions_.size(); }

 private:
  FaultSurface* fault_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> versions_;
  checkpoint::CheckpointSet marker_;
};

}  // namespace adcc::core

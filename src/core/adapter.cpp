#include "core/adapter.hpp"

namespace adcc::core {

std::unique_ptr<checkpoint::CheckpointSet> make_checkpoint_set(checkpoint::Backend& backend,
                                                               FaultSurface& fault) {
  return std::make_unique<checkpoint::CheckpointSet>(
      backend, [&fault](const char* p) { fault.point(p); });
}

void drop_in_flight(checkpoint::CheckpointSet* ckpt, ModeEnv* env) {
  if (ckpt != nullptr) ckpt->abort_async();
  if (env != nullptr && env->dram) env->dram->discard();
}

void add_restore_stats(WorkloadRecovery& rec, const checkpoint::CheckpointSet& ckpt) {
  const checkpoint::CheckpointSet::RestoreStats& rs = ckpt.last_restore();
  rec.candidates_checked += rs.chunks_probed;
  rec.torn_chunks += rs.torn_chunks;
  rec.salvaged_chunks += rs.salvaged_chunks;
}

void AdapterBase::begin_prepare(ModeEnv& env, std::size_t cache_bytes, std::size_t cache_ways) {
  env_ = &env;
  done_ = 0;
  crashed_done_ = 0;
  fault_.reset();  // Software-counted unless the alg engine emulates.
  ckpt_.reset();
  engine_ = durability_kind(env.mode);
  ADCC_CHECK(cache_bytes == 0 || engine_ == DurabilityKind::kAlgorithm,
             "cache_mb: the crash emulator runs only under the alg-* modes");
  switch (engine_) {
    case DurabilityKind::kNone:
      break;
    case DurabilityKind::kCheckpoint:
      ADCC_CHECK(env.backend != nullptr, "checkpoint modes need a backend");
      ckpt_ = make_checkpoint_set(*env.backend, fault_);
      break;
    case DurabilityKind::kTransaction:
      ADCC_CHECK(env.perf != nullptr, "pmem-tx mode needs a perf model");
      break;
    case DurabilityKind::kAlgorithm:
      ADCC_CHECK(env.region != nullptr, "algorithm modes need an NVM arena");
      if (cache_bytes > 0) fault_.emulate({.size_bytes = cache_bytes, .ways = cache_ways});
      break;
  }
}

void AdapterBase::begin_crash() {
  crashed_done_ = done_;
  drop_in_flight(ckpt_.get(), env_);
  fault_.power_fail();
}

std::uint64_t AdapterBase::restore_checkpoint(WorkloadRecovery& rec) {
  const std::uint64_t version = ckpt_->restore();
  add_restore_stats(rec, *ckpt_);
  return version;
}

WorkloadRecovery AdapterBase::finish_recovery(WorkloadRecovery rec) const {
  rec.restart_unit = done_ + 1;
  rec.units_lost += crashed_done_ - done_;
  return rec;
}

}  // namespace adcc::core

#include "core/shard.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "core/adapter.hpp"
#include "core/telemetry.hpp"

namespace adcc::core {

// ---------------------------------------------------------------------------
// ShardExchange
// ---------------------------------------------------------------------------

void ShardExchange::publish(std::size_t unit, std::string tag, std::size_t shard,
                            std::vector<double> value) {
  const StageTimer timer("shard/halo");
  // Overwrite semantics: a replaying shard republishes (identical) values.
  entries_[Key{unit, std::move(tag), shard}] = std::move(value);
}

std::span<const double> ShardExchange::fetch(std::size_t unit, const std::string& tag,
                                             std::size_t shard) {
  const StageTimer timer("shard/halo");
  const auto it = entries_.find(Key{unit, tag, shard});
  ADCC_CHECK(it != entries_.end(), "exchange fetch of an unpublished value (phase-order bug)");
  fetched_bytes_ += it->second.size() * sizeof(double);
  return it->second;
}

void ShardExchange::trim(std::size_t upto) {
  // Keys order by unit first, so the stale range is a prefix.
  entries_.erase(entries_.begin(), entries_.lower_bound(Key{upto + 1, std::string(), 0}));
}

void ShardExchange::clear() { entries_.clear(); }

// ---------------------------------------------------------------------------
// ShardGroup
// ---------------------------------------------------------------------------

ShardGroup::ShardGroup(std::unique_ptr<ShardPlan> plan, ShardGroupConfig cfg,
                       FallbackFactory fallback)
    : plan_(std::move(plan)), cfg_(cfg), fallback_factory_(std::move(fallback)) {
  ADCC_CHECK(plan_ != nullptr, "shard group needs a plan");
  ADCC_CHECK(cfg_.shards >= 1, "shard count must be >= 1");
  ADCC_CHECK(fallback_factory_ != nullptr, "shard group needs an unsharded fallback");
}

ShardGroup::~ShardGroup() = default;

Workload& ShardGroup::ensure_fallback() const {
  if (!fallback_) fallback_ = fallback_factory_();
  return *fallback_;
}

std::string ShardGroup::name() const { return plan_->name(); }

std::size_t ShardGroup::work_units() const {
  return use_fallback_ ? ensure_fallback().work_units() : plan_->work_units();
}

std::size_t ShardGroup::units_done() const {
  return use_fallback_ ? ensure_fallback().units_done() : done_;
}

std::size_t ShardGroup::phases() const { return plan_->phases(); }

std::size_t ShardGroup::shard_count() const { return use_fallback_ ? 1 : parts_.size(); }

FaultSurface* ShardGroup::fault() {
  return use_fallback_ ? ensure_fallback().fault() : &fault_;
}

void ShardGroup::tune_env(Mode mode, ModeEnvConfig& cfg) const {
  const DurabilityKind kind = durability_kind(mode);
  const bool shardable = cfg_.shards > 1 && (kind == DurabilityKind::kNone ||
                                             kind == DurabilityKind::kCheckpoint);
  if (!shardable) {
    ensure_fallback().tune_env(mode, cfg);
    return;
  }
  plan_->tune_env(mode, cfg, cfg_.shards);
}

void ShardGroup::prepare(ModeEnv& env) {
  const DurabilityKind kind = durability_kind(env.mode);
  // Transaction and algorithm modes keep their single-rank durability engines
  // (their actions interleave with the kernels and do not decompose along the
  // group snapshot protocol): delegate wholesale.
  use_fallback_ = cfg_.shards <= 1 ||
                  (kind != DurabilityKind::kNone && kind != DurabilityKind::kCheckpoint);
  if (use_fallback_) {
    ensure_fallback().prepare(env);
    return;
  }

  env_ = &env;
  kind_ = kind;
  async_ = env.cfg.ckpt_async;
  done_ = 0;
  crashed_done_ = 0;
  scope_ = {};
  pending_epoch_.reset();
  exchange_.clear();
  fault_.reset();

  const std::size_t n = cfg_.shards;
  progress_.assign(n, 0);
  exec_steps_.assign(n, 0);
  last_saved_epoch_.assign(n, 0);
  saved_version_.assign(n, 0);

  // Tear down the previous run's engines before rebuilding: checkpoint sets
  // reference the shard backends, and a FileBackend removes its slot files on
  // destruction — the old namespace must clear before the new one claims it.
  coordinator_.reset();
  parts_.clear();
  ckpts_.clear();
  shard_envs_.clear();

  if (kind_ == DurabilityKind::kCheckpoint) {
    ADCC_CHECK(env.backend != nullptr, "checkpoint modes need a backend");
    // The main env hosts only the coordinator's marker; force it synchronous
    // (the marker save IS the global commit point) and single-threaded — it
    // is a few dozen bytes.
    env.backend->configure_chunks(checkpoint::ChunkConfig{});
    const std::filesystem::path base =
        env.cfg.scratch_dir.empty()
            ? std::filesystem::temp_directory_path() / "adcc_ckpt"
            : env.cfg.scratch_dir;
    for (std::size_t i = 0; i < n; ++i) {
      ModeEnvConfig sc = env.cfg;
      sc.scratch_dir = base / ("shard" + std::to_string(i));
      shard_envs_.push_back(std::make_unique<ModeEnv>(make_env(env.mode, sc)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      ckpts_.push_back(make_checkpoint_set(*shard_envs_[i]->backend, fault_));
    }
    coordinator_ = std::make_unique<GroupCoordinator>(*env.backend, &fault_, n);
  }

  for (std::size_t i = 0; i < n; ++i) {
    parts_.push_back(plan_->make_part(i, n, fault_));
    parts_[i]->prepare(kind_ == DurabilityKind::kCheckpoint ? ckpts_[i].get() : nullptr);
  }
}

bool ShardGroup::run_step() {
  if (use_fallback_) return ensure_fallback().run_step();
  if (done_ >= plan_->work_units()) return false;
  const std::size_t u = done_ + 1;
  const std::size_t phases = plan_->phases();
  for (std::size_t ph = 0; ph < phases; ++ph) {
    const std::size_t target = (u - 1) * phases + ph + 1;
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      // Phase-steps a shard already holds (a replayed victim, or a survivor
      // of a mid-unit crash) are never recomputed.
      if (progress_[i] >= target) continue;
      parts_[i]->compute(u, ph, exchange_);
      ++exec_steps_[i];
      progress_[i] = target;
    }
  }
  ++done_;
  return true;
}

void ShardGroup::commit_pending() {
  const std::size_t e = *pending_epoch_;
  coordinator_->commit_epoch(e, ckpts_);
  pending_epoch_.reset();
  // Nothing can need exchange entries at or before the committed epoch: every
  // shard's durable image is now >= e.
  exchange_.trim(e);
}

void ShardGroup::make_durable() {
  if (use_fallback_) {
    ensure_fallback().make_durable();
    return;
  }
  if (kind_ != DurabilityKind::kCheckpoint) return;
  const std::size_t u = done_;
  // Pipelined commit: epoch u-1's drains (issued last unit) joined and
  // committed first, then epoch u's saves are issued. The marker thus lags
  // the newest save by at most one epoch — exactly what the two-slot buffer
  // can roll back.
  if (pending_epoch_) commit_pending();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    parts_[i]->on_save(u);
    saved_version_[i] = ckpts_[i]->save();
    last_saved_epoch_[i] = u;
  }
  if (async_) {
    pending_epoch_ = u;
  } else {
    coordinator_->commit_epoch(u, ckpts_);
    exchange_.trim(u);
  }
}

void ShardGroup::wait_durable() {
  if (use_fallback_) {
    ensure_fallback().wait_durable();
    return;
  }
  if (kind_ != DurabilityKind::kCheckpoint) return;
  if (pending_epoch_) commit_pending();
}

bool ShardGroup::durability_pending() const {
  if (use_fallback_) return ensure_fallback().durability_pending();
  return pending_epoch_.has_value();
}

void ShardGroup::set_crash_scope(const CrashScope& scope) {
  if (use_fallback_) {
    ensure_fallback().set_crash_scope(scope);
    return;
  }
  scope_ = scope;
  for (std::size_t& v : scope_.victims) v = std::min(v, parts_.size() - 1);
}

void ShardGroup::inject_crash() {
  if (use_fallback_) {
    ensure_fallback().inject_crash();
    return;
  }
  crashed_done_ = done_;
  if (scope_.kind == CrashScope::Kind::kShards && !scope_.victims.empty()) {
    for (const std::size_t v : scope_.victims) {
      // The victim's drain and DRAM staging die with it.
      if (kind_ == DurabilityKind::kCheckpoint) {
        drop_in_flight(ckpts_[v].get(), shard_envs_[v].get());
      }
      parts_[v]->clobber();
      progress_[v] = 0;  // Unknown until recovery replays.
    }
    // Survivors keep their live state; the exchange log and any pending
    // global epoch survive too — recovery repairs the commit.
    return;
  }
  // Whole-group power failure (process scope, or the coordinator dying
  // mid-commit and taking the group with it).
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (kind_ == DurabilityKind::kCheckpoint) {
      drop_in_flight(ckpts_[i].get(), shard_envs_[i].get());
    }
    parts_[i]->clobber();
    progress_[i] = 0;
  }
  if (coordinator_) coordinator_->clobber();
  drop_in_flight(nullptr, env_);
  exchange_.clear();
  pending_epoch_.reset();
}

std::size_t ShardGroup::replay(std::size_t i, std::size_t from) {
  const std::size_t phases = plan_->phases();
  for (std::size_t u = from + 1; u <= done_; ++u) {
    for (std::size_t ph = 0; ph < phases; ++ph) {
      // Producers the victim would have consumed are fetched from the
      // retained exchange, so survivors never recompute; the victim's own
      // republications are idempotent (deterministic values).
      parts_[i]->compute(u, ph, exchange_);
      ++exec_steps_[i];
    }
  }
  progress_[i] = done_ * phases;
  return done_ - from;
}

void ShardGroup::reform_commit() {
  const std::size_t u = done_;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    // A shard's epoch-u image is intact if it took that save and the slot
    // version it produced was not rolled back by an aborted/failed drain.
    const bool intact =
        last_saved_epoch_[i] == u && ckpts_[i]->version() == saved_version_[i];
    if (intact) continue;
    parts_[i]->on_save(u);
    saved_version_[i] = ckpts_[i]->save();
    last_saved_epoch_[i] = u;
  }
  coordinator_->commit_epoch(u, ckpts_);
  pending_epoch_.reset();
  exchange_.trim(u);
}

WorkloadRecovery ShardGroup::recover() {
  if (use_fallback_) return ensure_fallback().recover();
  WorkloadRecovery rec;
  const std::size_t fetched_before = exchange_.fetched_bytes();
  double repair = 0.0;

  if (scope_.kind == CrashScope::Kind::kShards && !scope_.victims.empty()) {
    // k-of-N: survivors keep computing state; only the victims reload and
    // replay their own deltas. done_ does not move.
    if (kind_ == DurabilityKind::kCheckpoint) {
      const GroupCoordinator::Marker marker = coordinator_->reload();
      rec.torn_chunks += coordinator_->last_restore_torn();
      const auto epoch = static_cast<std::size_t>(marker.epoch);
      for (const std::size_t v : scope_.victims) {
        ckpts_[v]->restore_version(marker.versions[v]);
        add_restore_stats(rec, *ckpts_[v]);
        saved_version_[v] = marker.versions[v];
        last_saved_epoch_[v] = epoch;
        parts_[v]->restored(epoch);
        Timer t;
        rec.units_replayed += replay(v, epoch);
        repair += t.elapsed();
      }
      rec.shards_restored = scope_.victims.size();
      if (epoch < done_) {
        // The crash interrupted (or pre-empted) the commit of an epoch newer
        // than the marker: re-form it now, so the double buffer protects the
        // replayed state again before execution resumes.
        Timer t;
        reform_commit();
        repair += t.elapsed();
      }
    } else {
      for (const std::size_t v : scope_.victims) {
        parts_[v]->restored(0);
        Timer t;
        rec.units_replayed += replay(v, 0);
        repair += t.elapsed();
      }
      rec.shards_restored = scope_.victims.size();
    }
    rec.restart_unit = done_ + 1;
    rec.units_lost = 0;
  } else {
    // Whole-group rollback to the last fully committed global epoch.
    if (kind_ == DurabilityKind::kCheckpoint) {
      const GroupCoordinator::Marker marker = coordinator_->reload();
      rec.torn_chunks += coordinator_->last_restore_torn();
      const auto epoch = static_cast<std::size_t>(marker.epoch);
      for (std::size_t i = 0; i < parts_.size(); ++i) {
        ckpts_[i]->restore_version(epoch == 0 ? 0 : marker.versions[i]);
        add_restore_stats(rec, *ckpts_[i]);
        saved_version_[i] = marker.versions[i];
        last_saved_epoch_[i] = epoch;
        parts_[i]->restored(epoch);
        progress_[i] = epoch * plan_->phases();
      }
      done_ = epoch;
      rec.shards_restored = epoch > 0 ? parts_.size() : 0;
      rec.epochs_rolled_back = crashed_done_ - done_;
    } else {
      for (std::size_t i = 0; i < parts_.size(); ++i) {
        parts_[i]->restored(0);
        progress_[i] = 0;
      }
      done_ = 0;
    }
    rec.restart_unit = done_ + 1;
    rec.units_lost = crashed_done_ - done_;
  }

  rec.halo_bytes = exchange_.fetched_bytes() - fetched_before;
  rec.repair_seconds = repair;
  return rec;
}

bool ShardGroup::verify() {
  if (use_fallback_) return ensure_fallback().verify();
  std::vector<ShardPart*> raw;
  raw.reserve(parts_.size());
  for (const auto& p : parts_) raw.push_back(p.get());
  return plan_->verify(raw);
}

}  // namespace adcc::core

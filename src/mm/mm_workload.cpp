// The adapter's loops (the checksum scans, the emulated traffic
// announcements, recovery's repair) start on 32-byte boundaries, so their
// timing does not move with the size of earlier translation units (see
// kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "mm/mm_workload.hpp"

#include <cmath>
#include <cstring>

#include "common/align.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "core/registry.hpp"
#include "kernels/backend.hpp"
#include "linalg/gemm.hpp"
#include "mm/mm_shard.hpp"

namespace adcc::mm {

using linalg::Matrix;

namespace {

// Arena bytes of the alg-* engines: panels + 1 temporal matrices plus the
// progress-counter and alignment slack.
std::size_t alg_arena_bytes(std::size_t n, std::size_t rank_k) {
  const std::size_t nc = n + 1;
  const std::size_t panels = (n + rank_k - 1) / rank_k;
  return (panels + 1) * nc * nc * sizeof(double) + (panels + 8) * 2 * kCacheLine;
}

// pmem-tx heap sizing for an n x n product: the (n+1)^2 accumulator, and a
// log holding one full accumulator snapshot plus per-4KB-chunk headers.
std::size_t tx_data_bytes(std::size_t n) {
  return round_up((n + 1) * (n + 1) * sizeof(double), kCacheLine) + 16 * kCacheLine;
}

std::size_t tx_log_bytes(std::size_t n) {
  const std::size_t payload = (n + 1) * (n + 1) * sizeof(double);
  return round_up(payload + payload / 32, kCacheLine) + 128 * kCacheLine;
}

}  // namespace

MmWorkloadConfig mm_workload_config(const Options& opts) {
  const bool quick = opts.get_bool("quick");
  MmWorkloadConfig cfg;
  cfg.n = opts.get_size("n", quick ? 192 : 500);
  cfg.rank_k = opts.get_size("rank", quick ? 48 : 50);
  const std::int64_t base = opts.get_int("seed", 3);  // Shared --seed knob.
  cfg.seed_a = static_cast<std::uint64_t>(opts.get_int("seed_a", base));
  cfg.seed_b = static_cast<std::uint64_t>(opts.get_int("seed_b", base + 1));
  cfg.cache_bytes = opts.get_size("cache_mb", 0) << 20;
  return cfg;
}

MmWorkload::MmWorkload(const MmWorkloadConfig& cfg) : cfg_(cfg) {
  ADCC_CHECK(cfg_.n >= 2 && cfg_.rank_k >= 1, "bad MM workload shape");
  nc_ = cfg_.n + 1;
  panels_ = (cfg_.n + cfg_.rank_k - 1) / cfg_.rank_k;
  blocks_ = (nc_ + cfg_.rank_k - 1) / cfg_.rank_k;
  Matrix a(cfg_.n, cfg_.n), b(cfg_.n, cfg_.n);
  a.fill_random(cfg_.seed_a, -1, 1);
  b.fill_random(cfg_.seed_b, -1, 1);
  ac_ = abft::encode_column_checksum(a);
  br_ = abft::encode_row_checksum(b);
}

std::size_t MmWorkload::work_units() const {
  return panels_ + (engine_ == core::DurabilityKind::kAlgorithm ? blocks_ : 0);
}

void MmWorkload::tune_env(core::Mode mode, core::ModeEnvConfig& env) const {
  const std::size_t cf_bytes = nc_ * nc_ * sizeof(double);
  env.slot_bytes = cf_bytes + (1u << 20);
  switch (core::durability_kind(mode)) {
    case core::DurabilityKind::kAlgorithm:
      env.arena_bytes = alg_arena_bytes(cfg_.n, cfg_.rank_k);
      break;
    case core::DurabilityKind::kCheckpoint:
      env.arena_bytes = 2 * cf_bytes + (16u << 20);  // Two slots (fig8 sizing).
      break;
    default:
      env.arena_bytes = 1u << 20;  // Native/tx never touch env.region.
      break;
  }
}

void MmWorkload::prepare(core::ModeEnv& env) {
  begin_prepare(env, cfg_.cache_bytes, cfg_.cache_ways);
  switch (engine_) {
    case core::DurabilityKind::kNone:
      cf_ = Matrix(nc_, nc_);
      cf_.set_zero();
      break;
    case core::DurabilityKind::kCheckpoint:
      cf_ = Matrix(nc_, nc_);
      cf_.set_zero();
      ckpt_step_ = 0;
      ckpt_->add("Cf", cf_.data(), cf_.size_bytes());
      ckpt_->add("step", &ckpt_step_, sizeof(ckpt_step_));
      break;
    case core::DurabilityKind::kTransaction: {
      heap_ = std::make_unique<pmemtx::PersistentHeap>(tx_data_bytes(cfg_.n),
                                                       tx_log_bytes(cfg_.n), *env.perf);
      tx_cf_ = heap_->allocate<double>(nc_ * nc_);
      tx_step_ = heap_->allocate<std::uint64_t>(kCacheLine / sizeof(std::uint64_t));
      std::memset(tx_cf_.data(), 0, tx_cf_.size_bytes());
      tx_step_[0] = 0;
      heap_->region().persist(tx_cf_.data(), tx_cf_.size_bytes());
      heap_->region().persist(tx_step_.data(), sizeof(std::uint64_t));
      log_ = std::make_unique<pmemtx::UndoLog>(*heap_);
      break;
    }
    case core::DurabilityKind::kAlgorithm: {
      ctemp_s_.assign(panels_, {});
      for (std::size_t s = 0; s < panels_; ++s) {
        ctemp_s_[s] = env.region->allocate<double>(nc_ * nc_);
      }
      ctemp_ = env.region->allocate<double>(nc_ * nc_);
      progress_ = env.region->allocate<std::int64_t>(kCacheLine / sizeof(std::int64_t));
      if (fault_.emulated()) {
        // Registration order places the regions in the cache model.
        fault_.track_input("mm.Ac", std::span<const double>(ac_.data(), nc_ * cfg_.n));
        fault_.track_input("mm.Br", std::span<const double>(br_.data(), cfg_.n * nc_));
        fault_.track("mm.Ctemp", ctemp_);
        for (std::size_t s = 0; s < panels_; ++s) {
          fault_.track("mm.Ctemp_s" + std::to_string(s + 1), ctemp_s_[s]);
        }
        fault_.track("mm.progress", progress_);
      }
      progress_[0] = 0;
      env.region->persist(progress_.data(), sizeof(std::int64_t));
      break;
    }
  }
}

void MmWorkload::multiply_panel_into(std::size_t s, double* out, bool accumulate) const {
  const std::size_t c0 = (s - 1) * cfg_.rank_k;
  const std::size_t k = std::min(cfg_.rank_k, cfg_.n - c0);
  linalg::gemm_panel(ac_, c0, k, br_, c0, out, accumulate);
}

void MmWorkload::alg_multiply(std::size_t s) {
  double* out = ctemp_s_[s - 1].data();
  multiply_panel_into(s, out, /*accumulate=*/false);
  if (!fault_.emulated()) return;
  // Per 64-row block: the Ac row slices, the streamed Br panel (resident
  // across blocks on a real cache; re-touching keeps it MRU) and the produced
  // rows. Each line is written once per execution, so announcing after the
  // GEMM leaves the same dirty lines as announcing per block.
  const std::size_t c0 = (s - 1) * cfg_.rank_k;
  const std::size_t k = std::min(cfg_.rank_k, cfg_.n - c0);
  constexpr std::size_t kRowBlock = 64;
  for (std::size_t i0 = 0; i0 < nc_; i0 += kRowBlock) {
    const std::size_t i1 = std::min(nc_, i0 + kRowBlock);
    for (std::size_t i = i0; i < i1; ++i) {
      fault_.read(ac_.data() + i * cfg_.n + c0, k * sizeof(double));
    }
    fault_.read(br_.data() + c0 * nc_, k * nc_ * sizeof(double));
    fault_.write(out + i0 * nc_, (i1 - i0) * nc_ * sizeof(double));
  }
}

void MmWorkload::alg_add_block(std::size_t blk) {
  const std::size_t r0 = (blk - 1) * cfg_.rank_k;
  const std::size_t r1 = std::min(nc_, r0 + cfg_.rank_k);
  const std::size_t bytes = (r1 - r0) * nc_ * sizeof(double);
  std::vector<const double*> panels(panels_);
  for (std::size_t s = 0; s < panels_; ++s) panels[s] = ctemp_s_[s].data() + r0 * nc_;
  core::active_kernel_backend().panel_sum(panels.data(), panels_, r1 - r0, nc_, nc_,
                                          ctemp_.data() + r0 * nc_, nc_);
  if (!fault_.emulated()) return;
  for (const double* p : panels) fault_.read(p, bytes);
  fault_.write(ctemp_.data() + r0 * nc_, bytes);
}

void MmWorkload::alg_persist_unit(std::size_t unit) {
  nvm::NvmRegion& region = *env_->region;
  if (unit <= panels_) {
    // Loop 1: persist the temporal matrix's checksum row + column (Fig. 6
    // lines 4-5).
    const double* out = ctemp_s_[unit - 1].data();
    fault_.persist(region, out + (nc_ - 1) * nc_, nc_ * sizeof(double));
    for (std::size_t i = 0; i < nc_; ++i) {
      fault_.persist(region, out + i * nc_ + (nc_ - 1), sizeof(double));
    }
  } else {
    // Loop 2: persist the block's row checksums (Fig. 6 line 13).
    const std::size_t r0 = (unit - panels_ - 1) * cfg_.rank_k;
    const std::size_t r1 = std::min(nc_, r0 + cfg_.rank_k);
    for (std::size_t i = r0; i < r1; ++i) {
      fault_.persist(region, ctemp_.data() + i * nc_ + (nc_ - 1), sizeof(double));
    }
  }
}

bool MmWorkload::run_step() {
  // Fault-surface sites (tick/point may throw mid-unit, see cg_workload.cpp):
  // all precede ++done_ and the tx commit, so a crash leaves the durable image
  // at the previous unit boundary.
  //
  // Silent-fault detection under a flip: plan, before the end-of-run early
  // return so a flip in the final unit is still caught. Native re-runs its
  // Fig. 5 full-checksum test on the accumulator — correcting in place when
  // the ABFT report isolates a single error (detected-and-corrected), raising
  // when it cannot (detected-and-rolled-back). Alg engines re-validate the
  // last completed unit's checksums (temporal matrix in Loop 1, summed block
  // rows in Loop 2). ckpt/tx carry no checksums: their flips ride to verify()
  // as honest misses. The flip_active() gate keeps all of this off the
  // fail-stop and crash-free paths.
  if (fault_.flip_active() && done_ >= 1) {
    if (engine_ == core::DurabilityKind::kNone) {
      const abft::ChecksumReport rep = abft::verify_full_checksums(cf_, cfg_.tol);
      if (!rep.consistent()) {
        if (abft::try_correct(cf_, rep, cfg_.tol) > 0) {
          fault_.report_detected(/*corrected=*/true);
        } else {
          throw core::SilentFaultDetected("mm:checksum", done_ + 1,
                                          fault_.access_count());
        }
      }
    } else if (engine_ == core::DurabilityKind::kAlgorithm) {
      if (done_ <= panels_) {
        if (!alg_temporal_consistent(done_)) {
          throw core::SilentFaultDetected("mm:temporal", done_ + 1,
                                          fault_.access_count());
        }
      } else if (!alg_block_consistent(done_ - panels_)) {
        throw core::SilentFaultDetected("mm:block", done_ + 1, fault_.access_count());
      }
    }
  }
  if (done_ >= work_units()) return false;
  const std::size_t panel_cost =
      nc_ * nc_ * std::min(cfg_.rank_k, cfg_.n);  // Elements a panel GEMM touches.
  switch (engine_) {
    case core::DurabilityKind::kNone: {
      // Fig. 5 line 2: verify Cf's checksum relationship before the update,
      // attempting single-error correction on failure (soft-error ABFT) —
      // the native-ABFT baseline cost the fig8 comparison normalizes against.
      const abft::ChecksumReport rep = abft::verify_full_checksums(cf_, cfg_.tol);
      fault_.tick(nc_ * nc_);
      if (!rep.consistent()) {
        ADCC_CHECK(abft::try_correct(cf_, rep, cfg_.tol) > 0,
                   "uncorrectable checksum error in native ABFT accumulator");
      }
      multiply_panel_into(done_ + 1, cf_.data(), /*accumulate=*/true);
      fault_.tick(panel_cost);
      // Silent-corruption target: the checksummed accumulator this panel just
      // updated — the check at the next unit's top corrects or raises.
      fault_.corrupt("mm:cf", cf_.data(), cf_.size_bytes());
      fault_.point(kPointMultEnd);
      break;
    }
    case core::DurabilityKind::kCheckpoint:
      multiply_panel_into(done_ + 1, cf_.data(), /*accumulate=*/true);
      fault_.tick(panel_cost);
      // Undefended: the flip is checkpointed along with the accumulator and
      // rides to verify() as an honest miss.
      fault_.corrupt("mm:cf", cf_.data(), cf_.size_bytes());
      fault_.point(kPointMultEnd);
      break;
    case core::DurabilityKind::kTransaction: {
      pmemtx::Transaction tx(*log_);
      tx.add(tx_cf_);  // Snapshot the whole accumulator (undo log).
      tx.add(tx_step_.subspan(0, 1));
      fault_.tick(nc_ * nc_);
      multiply_panel_into(done_ + 1, tx_cf_.data(), /*accumulate=*/true);
      fault_.tick(panel_cost);
      fault_.corrupt("mm:cf", tx_cf_);
      fault_.point(kPointMultEnd);
      tx_step_[0] = done_ + 1;
      tx.commit();
      break;
    }
    case core::DurabilityKind::kAlgorithm: {
      if (done_ < panels_) {
        alg_multiply(done_ + 1);
        fault_.tick(panel_cost);
        // Flip target: the temporal matrix this unit wrote; its Eq. 6
        // checksums catch the corruption at the next unit's top.
        fault_.corrupt("mm:ctemp", ctemp_s_[done_]);
        fault_.point(kPointMultEnd);
      } else {
        alg_add_block(done_ - panels_ + 1);
        fault_.tick(cfg_.rank_k * nc_ * (panels_ + 1));
        {
          // Flip target: the Loop-2 block rows just summed into ctemp_.
          const std::size_t blk = done_ - panels_ + 1;
          const std::size_t r0 = (blk - 1) * cfg_.rank_k;
          const std::size_t r1 = std::min(nc_, r0 + cfg_.rank_k);
          fault_.corrupt("mm:cblock",
                         std::span<double>(ctemp_.data() + r0 * nc_, (r1 - r0) * nc_));
        }
        fault_.point(kPointAddEnd);
      }
      break;
    }
  }
  ++done_;
  return true;
}

void MmWorkload::make_durable() {
  switch (engine_) {
    case core::DurabilityKind::kNone:
    case core::DurabilityKind::kTransaction:
      break;  // Nothing / the transaction in run_step.
    case core::DurabilityKind::kCheckpoint:
      ckpt_step_ = done_;
      ckpt_->save();
      break;
    case core::DurabilityKind::kAlgorithm:
      alg_persist_unit(done_);
      progress_[0] = static_cast<std::int64_t>(done_);
      fault_.write(progress_.data(), sizeof(std::int64_t));
      fault_.persist(*env_->region, progress_.data(), sizeof(std::int64_t));
      break;
  }
}

void MmWorkload::inject_crash() {
  begin_crash();
  // The DRAM accumulator dies with the power. The pmem-tx and alg-* engines
  // keep all run state in the heap / arena (emulated, the arena now holds
  // only what NVM held).
  if (engine_ == core::DurabilityKind::kNone || engine_ == core::DurabilityKind::kCheckpoint) {
    cf_.set_zero();
    ckpt_step_ = 0;
  }
}

bool MmWorkload::alg_temporal_consistent(std::size_t s) const {
  // Full-checksum test of temporal matrix s against the paper's Eq. 6: every
  // row sums to its last-column checksum, every column to its last-row one.
  const double* m = ctemp_s_[s - 1].data();
  const auto close = [&](double sum, double checksum, double scale) {
    return std::fabs(sum - checksum) <= cfg_.tol.rel * scale + cfg_.tol.abs;
  };
  for (std::size_t i = 0; i < nc_ - 1; ++i) {
    double sum = 0.0, scale = 0.0;
    for (std::size_t j = 0; j < nc_ - 1; ++j) {
      sum += m[i * nc_ + j];
      scale += std::fabs(m[i * nc_ + j]);
    }
    if (!close(sum, m[i * nc_ + (nc_ - 1)], scale)) return false;
  }
  for (std::size_t j = 0; j < nc_ - 1; ++j) {
    double sum = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < nc_ - 1; ++i) {
      sum += m[i * nc_ + j];
      scale += std::fabs(m[i * nc_ + j]);
    }
    if (!close(sum, m[(nc_ - 1) * nc_ + j], scale)) return false;
  }
  return true;
}

bool MmWorkload::alg_temporal_correct(std::size_t s) {
  // Checksum-directed correction of isolated element errors, in place.
  Matrix m(nc_, nc_);
  std::memcpy(m.data(), ctemp_s_[s - 1].data(), m.size_bytes());
  if (abft::try_correct(m, abft::verify_full_checksums(m, cfg_.tol), cfg_.tol) == 0) {
    return false;
  }
  std::memcpy(ctemp_s_[s - 1].data(), m.data(), m.size_bytes());
  return true;
}

bool MmWorkload::alg_block_consistent(std::size_t blk) const {
  // Row-checksum test of a Loop-2 block: every summed row of ctemp_ must
  // match its last-column checksum (the temporal matrices' row checksums
  // carry through panel_sum, so the invariant holds for the sum too — and
  // for the final block's column-checksum row, whose own "checksum" is the
  // grand total).
  const std::size_t r0 = (blk - 1) * cfg_.rank_k;
  const std::size_t r1 = std::min(nc_, r0 + cfg_.rank_k);
  const auto close = [&](double sum, double checksum, double scale) {
    return std::fabs(sum - checksum) <= cfg_.tol.rel * scale + cfg_.tol.abs;
  };
  for (std::size_t i = r0; i < r1; ++i) {
    const double* row = ctemp_.data() + i * nc_;
    double sum = 0.0, scale = 0.0;
    for (std::size_t j = 0; j < nc_ - 1; ++j) {
      sum += row[j];
      scale += std::fabs(row[j]);
    }
    if (!close(sum, row[nc_ - 1], scale)) return false;
  }
  return true;
}

core::WorkloadRecovery MmWorkload::recover() {
  core::WorkloadRecovery rec;
  switch (engine_) {
    case core::DurabilityKind::kNone:
      cf_.set_zero();
      done_ = 0;
      break;
    case core::DurabilityKind::kCheckpoint:
      if (restore_checkpoint(rec) != 0) {
        done_ = static_cast<std::size_t>(ckpt_step_);
      } else {
        cf_.set_zero();
        done_ = 0;
      }
      break;
    case core::DurabilityKind::kTransaction:
      log_->recover();  // Rolls back an uncommitted transaction, if any.
      done_ = static_cast<std::size_t>(tx_step_[0]);
      break;
    case core::DurabilityKind::kAlgorithm: {
      // The durable progress counter bounds what exists. Classify every
      // completed unit from the durable image: consistent, correctable from
      // its checksums, or lost. Lost panels are recomputed before lost
      // blocks, which sum them.
      const auto durable = static_cast<std::size_t>(progress_[0]);
      std::vector<std::size_t> corrected, lost;
      for (std::size_t s = 1; s <= std::min(durable, panels_); ++s) {
        ++rec.candidates_checked;
        if (alg_temporal_consistent(s)) continue;
        (alg_temporal_correct(s) ? corrected : lost).push_back(s);
      }
      for (std::size_t unit = panels_ + 1; unit <= durable; ++unit) {
        ++rec.candidates_checked;
        if (!alg_block_consistent(unit - panels_)) lost.push_back(unit);
      }
      // Repair in place and re-persist; the run resumes at the durable
      // counter.
      const Timer repair;
      for (const std::size_t s : corrected) {
        fault_.write(ctemp_s_[s - 1]);
        fault_.persist(*env_->region, ctemp_s_[s - 1].data(), ctemp_s_[s - 1].size_bytes());
      }
      for (const std::size_t unit : lost) {
        if (unit <= panels_) {
          alg_multiply(unit);
        } else {
          alg_add_block(unit - panels_);
        }
        alg_persist_unit(unit);
      }
      rec.repair_seconds = repair.elapsed();
      rec.units_corrected = corrected.size();
      rec.units_lost = lost.size();
      done_ = durable;
      break;
    }
  }
  return finish_recovery(rec);
}

Matrix MmWorkload::result() const {
  const auto strip_raw = [&](const double* src) {
    Matrix c(cfg_.n, cfg_.n);
    for (std::size_t i = 0; i < cfg_.n; ++i) {
      std::memcpy(c.row(i).data(), src + i * nc_, cfg_.n * sizeof(double));
    }
    return c;
  };
  switch (engine_) {
    case core::DurabilityKind::kNone:
    case core::DurabilityKind::kCheckpoint:
      return abft::strip_checksums(cf_);
    case core::DurabilityKind::kTransaction:
      return strip_raw(tx_cf_.data());
    case core::DurabilityKind::kAlgorithm:
      return strip_raw(ctemp_.data());
  }
  ADCC_CHECK(false, "unknown engine");
}

bool MmWorkload::verify() {
  ADCC_CHECK(done_ == work_units(), "verify requires a completed run");
  if (!reference_) {
    // Reference product of the original (checksum-stripped) inputs.
    Matrix a(cfg_.n, cfg_.n), b(cfg_.n, cfg_.n);
    a.fill_random(cfg_.seed_a, -1, 1);
    b.fill_random(cfg_.seed_b, -1, 1);
    reference_.emplace(cfg_.n, cfg_.n);
    linalg::gemm(a, b, *reference_);
  }
  const Matrix c = result();
  double scale = 1.0;
  for (std::size_t i = 0; i < cfg_.n; ++i) {
    for (std::size_t j = 0; j < cfg_.n; ++j) {
      scale = std::max(scale, std::fabs((*reference_)(i, j)));
    }
  }
  return Matrix::max_abs_diff(c, *reference_) <= cfg_.verify_rel_tol * scale;
}

ADCC_REGISTER_WORKLOAD(
    "mm", "ABFT dense matrix multiplication (paper SIII-C, Figs. 5-8)",
    [](const Options& opts) {
      ADCC_CHECK(!opts.has("policy"), "policy: only the mc alg-* engines have a flush policy");
      return core::make_adapter<MmWorkload, MmShardPlan>(opts, mm_workload_config(opts));
    });

}  // namespace adcc::mm

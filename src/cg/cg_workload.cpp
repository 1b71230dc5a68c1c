// The adapter's loops (the alg-* invariant scans, the fault-surface
// announcements) start on 32-byte boundaries, so their timing does not move
// with the size of earlier translation units (see
// kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "cg/cg_workload.hpp"

#include <cmath>

#include "cg/cg_shard.hpp"
#include "common/align.hpp"
#include "common/check.hpp"
#include "core/registry.hpp"
#include "linalg/spgen.hpp"
#include "linalg/vec_ops.hpp"

namespace adcc::cg {

namespace {

// pmem-tx heap sizing for an n-row system: the data space holds p, r, z and
// the two scalars; the log holds the three snapshotted vectors plus
// per-4KB-chunk headers/padding (~2 %) and slack for the scalar entries.
std::size_t tx_data_bytes(std::size_t n) {
  return round_up(4 * n * sizeof(double), kCacheLine) + 16 * kCacheLine;
}

std::size_t tx_log_bytes(std::size_t n) {
  const std::size_t payload = 3 * n * sizeof(double);
  return round_up(payload + payload / 32, kCacheLine) + 128 * kCacheLine;
}

}  // namespace

std::size_t cg_workload_arena_bytes(std::size_t n, std::size_t iters) {
  // Four history arrays of (iters + 2) rows plus counter/alignment slack —
  // the fig4 sizing.
  return (iters + 4) * n * sizeof(double) * 4 + (8u << 20);
}

CgWorkloadConfig cg_workload_config(const Options& opts) {
  const bool quick = opts.get_bool("quick");
  linalg::CgProblemShape shape{quick ? 2000u : 14000u, 15};
  if (opts.has("class")) {
    const std::string name = opts.get("class", "");
    bool known = false;
    for (const linalg::CgClass cls : {linalg::CgClass::S, linalg::CgClass::W, linalg::CgClass::A,
                                      linalg::CgClass::B, linalg::CgClass::C}) {
      if (linalg::name_of(cls) != name) continue;
      shape = linalg::shape_of(cls);
      known = true;
    }
    ADCC_CHECK(known, ("unknown NPB class for --class: '" + name + "' (want S | W | A | B | C)")
                          .c_str());
  }
  CgWorkloadConfig cfg;
  cfg.n = opts.get_size("n", shape.n);
  cfg.nz_per_row = opts.get_size("nz", shape.nz_per_row);
  cfg.iters = opts.get_size("iters", quick ? 10 : 15);
  cfg.matrix_seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  cfg.cache_bytes = opts.get_size("cache_mb", 0) << 20;
  return cfg;
}

CgWorkload::CgWorkload(const CgWorkloadConfig& cfg)
    : cfg_(cfg),
      a_(linalg::make_spd(cfg.n, cfg.nz_per_row, cfg.matrix_seed)),
      b_(linalg::make_rhs(cfg.n, cfg.rhs_seed)) {
  ADCC_CHECK(cfg_.iters >= 1, "CG workload needs at least one iteration");
}

void CgWorkload::tune_env(core::Mode mode, core::ModeEnvConfig& env) const {
  env.slot_bytes = 4 * cfg_.n * sizeof(double) + (1u << 20);
  switch (core::durability_kind(mode)) {
    case core::DurabilityKind::kAlgorithm:
      env.arena_bytes = cg_workload_arena_bytes(cfg_.n, cfg_.iters);
      break;
    case core::DurabilityKind::kCheckpoint:
      env.arena_bytes = 2 * env.slot_bytes + (8u << 20);  // Two slots + headers.
      break;
    default:
      env.arena_bytes = 1u << 20;  // Native/tx never touch env.region.
      break;
  }
}

void CgWorkload::prepare(core::ModeEnv& env) {
  begin_prepare(env, cfg_.cache_bytes, cfg_.cache_ways);
  switch (engine_) {
    case core::DurabilityKind::kNone:
      cg_init(a_, b_, state_);
      break;
    case core::DurabilityKind::kCheckpoint:
      cg_init(a_, b_, state_);
      ckpt_scalars_ = {state_.rho, 0};
      ckpt_->add("p", state_.p.data(), state_.p.size() * sizeof(double));
      ckpt_->add("r", state_.r.data(), state_.r.size() * sizeof(double));
      ckpt_->add("z", state_.z.data(), state_.z.size() * sizeof(double));
      ckpt_->add("scalars", &ckpt_scalars_, sizeof(ckpt_scalars_));
      break;
    case core::DurabilityKind::kTransaction: {
      const std::size_t n = cfg_.n;
      heap_ = std::make_unique<pmemtx::PersistentHeap>(tx_data_bytes(n), tx_log_bytes(n),
                                                       *env.perf);
      tx_p_ = heap_->allocate<double>(n);
      tx_r_ = heap_->allocate<double>(n);
      tx_z_ = heap_->allocate<double>(n);
      tx_scalars_ = heap_->allocate<double>(2);
      tx_q_.assign(n, 0.0);
      linalg::copy(b_, tx_p_);
      linalg::copy(b_, tx_r_);
      linalg::zero(tx_z_);
      tx_rho_ = linalg::dot(std::span<const double>(tx_r_), std::span<const double>(tx_r_));
      tx_scalars_[0] = tx_rho_;
      tx_scalars_[1] = 0.0;
      heap_->region().persist(tx_p_.data(), tx_p_.size_bytes());
      heap_->region().persist(tx_r_.data(), tx_r_.size_bytes());
      heap_->region().persist(tx_z_.data(), tx_z_.size_bytes());
      heap_->region().persist(tx_scalars_.data(), tx_scalars_.size_bytes());
      log_ = std::make_unique<pmemtx::UndoLog>(*heap_);
      break;
    }
    case core::DurabilityKind::kAlgorithm: {
      const std::size_t rows = (cfg_.iters + 2) * cfg_.n;
      hp_ = env.region->allocate<double>(rows);
      hq_ = env.region->allocate<double>(rows);
      hr_ = env.region->allocate<double>(rows);
      hz_ = env.region->allocate<double>(rows);
      counter_ = env.region->allocate<std::int64_t>(kCacheLine / sizeof(std::int64_t));
      if (fault_.emulated()) {
        // Registration order places the regions in the cache model.
        fault_.track("cg.p", hp_);
        fault_.track("cg.q", hq_);
        fault_.track("cg.r", hr_);
        fault_.track("cg.z", hz_);
        fault_.track_input("cg.b", std::span<const double>(b_));
        fault_.track_input("cg.A.values", a_.values());
        fault_.track_input("cg.A.colidx", a_.col_idx());
        fault_.track("cg.iter", counter_);
      }
      alg_write_initial_rows();
      counter_[0] = 0;
      fault_.write(counter_.data(), sizeof(std::int64_t));
      fault_.persist(*env.region, counter_.data(), sizeof(std::int64_t));
      break;
    }
  }
}

void CgWorkload::alg_write_initial_rows() {
  linalg::copy(b_, row(hp_, 1));
  linalg::copy(b_, row(hr_, 1));
  linalg::zero(row(hz_, 1));
  alg_rho_ = linalg::dot(crow(hr_, 1), crow(hr_, 1));
  fault_.write(row(hr_, 1));
  fault_.write(row(hp_, 1));
  fault_.write(row(hz_, 1));
  fault_.read(std::span<const double>(b_));
  fault_.read(crow(hr_, 1));
}

void CgWorkload::alg_announce_iteration(std::size_t i) {
  // Each row is written once per iteration, so announcing the iteration's
  // traffic after its kernels leaves the same dirty lines, evictions and
  // durable image as announcing after every statement.
  // q(i) ← A·p(i): the source row once, then per 512-row block the streamed
  // CSR slices (the traffic that evicts old history rows) and the q rows.
  constexpr std::size_t kBlock = 512;
  const auto row_ptr = a_.row_ptr();
  fault_.read(crow(hp_, i));
  for (std::size_t r0 = 0; r0 < cfg_.n; r0 += kBlock) {
    const std::size_t r1 = std::min(cfg_.n, r0 + kBlock);
    const std::size_t k0 = row_ptr[r0];
    fault_.read(a_.values().subspan(k0, row_ptr[r1] - k0));
    fault_.read(a_.col_idx().subspan(k0, row_ptr[r1] - k0));
    fault_.write(row(hq_, i).subspan(r0, r1 - r0));
  }
  fault_.read(crow(hp_, i));  // pᵀq
  fault_.read(crow(hq_, i));
  fault_.read(crow(hz_, i));  // z(i+1) ← z(i) + α·p(i)
  fault_.read(crow(hp_, i));
  fault_.write(row(hz_, i + 1));
  fault_.read(crow(hr_, i));  // r(i+1) ← r(i) − α·q(i)
  fault_.read(crow(hq_, i));
  fault_.write(row(hr_, i + 1));
  fault_.read(crow(hr_, i + 1));  // ρ
  fault_.read(crow(hr_, i + 1));  // p(i+1) ← r(i+1) + β·p(i)
  fault_.read(crow(hp_, i));
  fault_.write(row(hp_, i + 1));
}

bool CgWorkload::run_step() {
  // Fault-surface instrumentation: tick() announces the element accesses each
  // sub-statement touched and point() names the paper's crash sites; either
  // may throw memsim::CrashException mid-unit when ScenarioRunner armed a
  // trigger. All sites precede ++done_ (and the tx commit), so a mid-unit
  // crash never leaves the cursor or the durable image ahead of the crash.
  //
  // Online-ABFT silent-fault detection (alg engines only): while a flip: plan
  // is in flight, re-validate the Eq. 1/2 invariants on the last completed
  // iteration before starting the next — exactly the checks recovery scans
  // with, run online. The flip_active() gate is one relaxed atomic load, so
  // fail-stop and crash-free runs pay nothing.
  if (engine_ == core::DurabilityKind::kAlgorithm && fault_.flip_active() &&
      done_ >= 1 && !alg_rows_consistent(done_)) {
    throw core::SilentFaultDetected("cg:invariant", done_ + 1, fault_.access_count());
  }
  if (done_ >= cfg_.iters) return false;
  const std::size_t n = cfg_.n;
  switch (engine_) {
    case core::DurabilityKind::kNone:
    case core::DurabilityKind::kCheckpoint:
      cg_step(a_, state_);
      fault_.tick(a_.nnz() + 10 * n);
      // Silent-corruption targets: the state this unit just wrote. Undefended
      // engines carry the flip to verify() as an honest miss; ckpt engines
      // even persist it.
      fault_.corrupt("cg:p", std::span<double>(state_.p));
      fault_.corrupt("cg:r", std::span<double>(state_.r));
      fault_.corrupt("cg:z", std::span<double>(state_.z));
      fault_.point(kPointPUpdated);
      fault_.point(kPointIterEnd);
      break;
    case core::DurabilityKind::kTransaction: {
      pmemtx::Transaction tx(*log_);
      tx.add(tx_p_);
      tx.add(tx_r_);
      tx.add(tx_z_);
      tx.add(tx_scalars_);
      a_.spmv(tx_p_, tx_q_);
      fault_.tick(a_.nnz() + 2 * n);
      const double pq = linalg::dot(std::span<const double>(tx_p_),
                                    std::span<const double>(tx_q_));
      fault_.tick(2 * n);
      ADCC_CHECK(pq > 0, "A is not positive definite along p");
      const double alpha = tx_rho_ / pq;
      linalg::axpy(alpha, tx_p_, tx_z_);
      linalg::axpy(-alpha, tx_q_, tx_r_);
      fault_.tick(6 * n);
      const double rho_new =
          linalg::dot(std::span<const double>(tx_r_), std::span<const double>(tx_r_));
      fault_.tick(2 * n);
      const double beta = rho_new / tx_rho_;
      tx_rho_ = rho_new;
      linalg::xpay(std::span<const double>(tx_r_), beta, std::span<const double>(tx_p_), tx_p_);
      fault_.tick(3 * n);
      fault_.corrupt("cg:p", tx_p_);
      fault_.corrupt("cg:r", tx_r_);
      fault_.corrupt("cg:z", tx_z_);
      fault_.point(kPointPUpdated);
      // "iter_end" = end of compute, before the unit's durability action; no
      // sites may follow the commit (the cursor/durable image would run ahead
      // of a crash the runner then mis-attributes).
      fault_.point(kPointIterEnd);
      tx_scalars_[0] = tx_rho_;
      tx_scalars_[1] = static_cast<double>(done_ + 1);
      tx.commit();
      break;
    }
    case core::DurabilityKind::kAlgorithm: {
      const std::size_t i = done_ + 1;  // 1-based, matching the Fig. 2 rows.
      a_.spmv(row(hp_, i), row(hq_, i));
      fault_.tick(a_.nnz() + 2 * n);
      const double pq = linalg::dot(crow(hp_, i), crow(hq_, i));
      fault_.tick(2 * n);
      ADCC_CHECK(pq > 0, "A is not positive definite along p");
      const double alpha = alg_rho_ / pq;
      linalg::xpay(crow(hz_, i), alpha, crow(hp_, i), row(hz_, i + 1));
      fault_.tick(3 * n);
      linalg::xpay(crow(hr_, i), -alpha, crow(hq_, i), row(hr_, i + 1));
      fault_.tick(3 * n);
      const double rho_new = linalg::dot(crow(hr_, i + 1), crow(hr_, i + 1));
      fault_.tick(2 * n);
      const double beta = rho_new / alg_rho_;
      alg_rho_ = rho_new;
      linalg::xpay(crow(hr_, i + 1), beta, crow(hp_, i), row(hp_, i + 1));
      fault_.tick(3 * n);
      if (fault_.emulated()) alg_announce_iteration(i);
      // Flip targets: the history rows this iteration wrote — exactly what
      // the Eq. 1/2 invariants cover, so the online check above catches the
      // corruption at the next unit's start (detect_lat = 1).
      fault_.corrupt("cg:p", row(hp_, i + 1));
      fault_.corrupt("cg:r", row(hr_, i + 1));
      fault_.corrupt("cg:z", row(hz_, i + 1));
      fault_.point(kPointPUpdated);
      fault_.point(kPointIterEnd);
      break;
    }
  }
  ++done_;
  return true;
}

void CgWorkload::make_durable() {
  switch (engine_) {
    case core::DurabilityKind::kNone:
      break;  // Test case 1: no durability mechanism at all.
    case core::DurabilityKind::kCheckpoint:
      ckpt_scalars_ = {state_.rho, static_cast<std::uint64_t>(state_.iter)};
      ckpt_->save();
      break;
    case core::DurabilityKind::kTransaction:
      break;  // The transaction in run_step is the durability action.
    case core::DurabilityKind::kAlgorithm:
      // The entire runtime durability cost: one cache line flushed per unit.
      counter_[0] = static_cast<std::int64_t>(done_);
      fault_.write(counter_.data(), sizeof(std::int64_t));
      fault_.persist(*env_->region, counter_.data(), sizeof(std::int64_t));
      break;
  }
}

void CgWorkload::inject_crash() {
  begin_crash();
  switch (engine_) {
    case core::DurabilityKind::kNone:
    case core::DurabilityKind::kCheckpoint:
      // Everything in CgState is volatile; clobber it so recovery must
      // genuinely rebuild (native) or restore (ckpt).
      linalg::zero(state_.p);
      linalg::zero(state_.q);
      linalg::zero(state_.r);
      linalg::zero(state_.z);
      state_.rho = 0.0;
      state_.iter = 0;
      break;
    case core::DurabilityKind::kTransaction:
      // The heap survives; the reconstructible q and the cached rho do not.
      linalg::zero(std::span<double>(tx_q_));
      tx_rho_ = 0.0;
      break;
    case core::DurabilityKind::kAlgorithm:
      // History arrays and counter line live in the arena; emulated, it now
      // holds only what NVM held.
      alg_rho_ = 0.0;
      break;
  }
}

bool CgWorkload::alg_rows_consistent(std::size_t j) const {
  const double tol = cfg_.invariant_rel_tol;
  // Eq. 2: r(j+1) = b − A·z(j+1).
  std::vector<double> az(cfg_.n);
  a_.spmv(crow(hz_, j + 1), az);
  double err2 = 0.0, b2 = 0.0;
  const auto rj = crow(hr_, j + 1);
  for (std::size_t t = 0; t < cfg_.n; ++t) {
    const double d = rj[t] - (b_[t] - az[t]);
    err2 += d * d;
    b2 += b_[t] * b_[t];
  }
  if (std::sqrt(err2) > tol * std::sqrt(b2)) return false;

  if (j >= 1) {
    // Eq. 1: p(j+1)ᵀ · q(j) = 0.
    const auto pj = crow(hp_, j + 1);
    const auto qj = crow(hq_, j);
    const double pq = linalg::dot(pj, qj);
    const double np = linalg::norm2(pj);
    const double nq = linalg::norm2(qj);
    if (std::fabs(pq) > tol * (np * nq + 1e-300)) return false;
    if (np == 0.0) return false;
  } else {
    // j = 0: the initialization invariant p₁ = r₁ stands in for Eq. 1.
    const auto p1 = crow(hp_, 1);
    double diff2 = 0.0, r2 = 0.0;
    for (std::size_t t = 0; t < cfg_.n; ++t) {
      const double d = p1[t] - rj[t];
      diff2 += d * d;
      r2 += rj[t] * rj[t];
    }
    if (std::sqrt(diff2) > tol * (std::sqrt(r2) + 1e-300)) return false;
  }
  return true;
}

core::WorkloadRecovery CgWorkload::recover() {
  core::WorkloadRecovery rec;
  switch (engine_) {
    case core::DurabilityKind::kNone:
      cg_init(a_, b_, state_);
      done_ = 0;
      break;
    case core::DurabilityKind::kCheckpoint:
      if (restore_checkpoint(rec) != 0) {
        state_.rho = ckpt_scalars_.rho;
        state_.iter = static_cast<std::size_t>(ckpt_scalars_.iter);
        // q is reconstructed by the next cg_step; p was checkpointed so the
        // step sequence continues exactly.
        done_ = state_.iter;
      } else {
        cg_init(a_, b_, state_);
        done_ = 0;
      }
      break;
    case core::DurabilityKind::kTransaction:
      log_->recover();  // Rolls back an uncommitted transaction, if any.
      tx_rho_ = tx_scalars_[0];
      done_ = static_cast<std::size_t>(tx_scalars_[1]);
      break;
    case core::DurabilityKind::kAlgorithm: {
      // Scan j = durable counter … 0 for the first row pair passing the
      // Eq. 1/2 invariants; restart from iteration j + 1 (Fig. 2 recovery).
      const auto durable = static_cast<std::size_t>(counter_[0]);
      bool found = false;
      for (std::size_t j = durable;; --j) {
        ++rec.candidates_checked;
        if (alg_rows_consistent(j)) {
          done_ = j;
          found = true;
          break;
        }
        if (j == 0) break;
      }
      if (!found) {
        alg_write_initial_rows();
        done_ = 0;
      } else {
        alg_rho_ = linalg::dot(crow(hr_, done_ + 1), crow(hr_, done_ + 1));
        fault_.read(crow(hr_, done_ + 1));
      }
      break;
    }
  }
  return finish_recovery(rec);
}

std::vector<double> CgWorkload::solution() const {
  switch (engine_) {
    case core::DurabilityKind::kNone:
    case core::DurabilityKind::kCheckpoint:
      return state_.z;
    case core::DurabilityKind::kTransaction:
      return {tx_z_.begin(), tx_z_.end()};
    case core::DurabilityKind::kAlgorithm: {
      const auto z = crow(hz_, done_ + 1);
      return {z.begin(), z.end()};
    }
  }
  ADCC_CHECK(false, "unknown engine");
}

bool CgWorkload::verify() {
  ADCC_CHECK(done_ == cfg_.iters, "verify requires a completed run");
  if (!reference_) reference_ = cg_solve(a_, b_, cfg_.iters);
  const std::vector<double> x = solution();
  const double err = linalg::max_abs_diff(x, reference_->x);
  double scale = 1.0;
  for (const double v : reference_->x) scale = std::max(scale, std::fabs(v));
  return err <= cfg_.verify_rel_tol * scale;
}

ADCC_REGISTER_WORKLOAD(
    "cg", "NPB-style sparse CG solver (paper SIII-B, Figs. 2-4)",
    [](const Options& opts) {
      ADCC_CHECK(!opts.has("policy"), "policy: only the mc alg-* engines have a flush policy");
      return core::make_adapter<CgWorkload, CgShardPlan>(opts, cg_workload_config(opts));
    });

}  // namespace adcc::cg

#include "cg/cg_cc.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "linalg/vec_ops.hpp"

namespace adcc::cg {

using linalg::CsrMatrix;

CgCrashConsistent::CgCrashConsistent(const CsrMatrix& a, std::span<const double> b,
                                     const CgCcConfig& cfg)
    : a_(a),
      b_host_(b.begin(), b.end()),
      cfg_(cfg),
      n_(a.rows()),
      sim_(cfg.cache),
      p_(sim_, "cg.p", (cfg.n_iters + 2) * n_),
      q_(sim_, "cg.q", (cfg.n_iters + 2) * n_),
      r_(sim_, "cg.r", (cfg.n_iters + 2) * n_),
      z_(sim_, "cg.z", (cfg.n_iters + 2) * n_),
      b_(sim_, "cg.b", n_, /*read_only=*/true),
      a_values_(sim_, "cg.A.values", a.nnz(), /*read_only=*/true),
      a_colidx_(sim_, "cg.A.colidx", a.nnz(), /*read_only=*/true) {
  ADCC_CHECK(b.size() == n_, "rhs size mismatch");
  std::copy(b.begin(), b.end(), b_.raw().begin());
  std::copy(a.values().begin(), a.values().end(), a_values_.raw().begin());
  std::copy(a.col_idx().begin(), a.col_idx().end(), a_colidx_.raw().begin());
  iter_ = std::make_unique<memsim::TrackedScalar<std::int64_t>>(sim_, "cg.iter", 0);
}

std::span<double> CgCrashConsistent::row(memsim::TrackedArray<double>& arr, std::size_t r) {
  return arr.raw().subspan(r * n_, n_);
}

std::span<const double> CgCrashConsistent::row(const memsim::TrackedArray<double>& arr,
                                               std::size_t r) const {
  return arr.raw().subspan(r * n_, n_);
}

void CgCrashConsistent::write_initial_state() {
  // Row 1 holds the paper's iteration-1 input state: r₁ = p₁ = b, z₁ = 0.
  linalg::copy(b_host_, row(r_, 1));
  r_.touch_write(n_, n_);
  linalg::copy(b_host_, row(p_, 1));
  p_.touch_write(n_, n_);
  linalg::zero(row(z_, 1));
  z_.touch_write(n_, n_);
  b_.touch_read(0, n_);
  rho_ = linalg::dot(row(r_, 1), row(r_, 1));
  r_.touch_read(n_, n_);
}

void CgCrashConsistent::spmv_instrumented(std::size_t p_row, std::size_t q_row) {
  // q[q_row] ← A · p[p_row], announcing accesses block-of-rows at a time: the
  // CSR arrays stream (the traffic that evicts old history rows), the source
  // vector is touched once, the destination row as it is produced.
  constexpr std::size_t kBlock = 512;
  p_.touch_read(p_row * n_, n_);
  const auto row_ptr = a_.row_ptr();
  std::span<const double> x = row(p_, p_row);
  std::span<double> y = row(q_, q_row);
  for (std::size_t r0 = 0; r0 < n_; r0 += kBlock) {
    const std::size_t r1 = std::min(n_, r0 + kBlock);
    for (std::size_t rr = r0; rr < r1; ++rr) y[rr] = a_.spmv_row(rr, x);
    const std::size_t k0 = row_ptr[r0];
    const std::size_t k1 = row_ptr[r1];
    a_values_.touch_read(k0, k1 - k0);
    a_colidx_.touch_read(k0, k1 - k0);
    q_.touch_write(q_row * n_ + r0, r1 - r0);
  }
}

void CgCrashConsistent::iteration(std::size_t i) {
  Timer t;
  // Fig. 2 line 3: make the iteration number durable — the one-line flush that
  // is the entire runtime cost of the scheme.
  iter_->set_and_flush(static_cast<std::int64_t>(i));

  spmv_instrumented(i, i);  // q[i] ← A·p[i]

  p_.touch_read(i * n_, n_);
  q_.touch_read(i * n_, n_);
  const double pq = linalg::dot(row(p_, i), row(q_, i));
  ADCC_CHECK(pq > 0, "A is not positive definite along p");
  const double alpha = rho_ / pq;

  // z[i+1] ← z[i] + α·p[i]
  linalg::xpay(row(z_, i), alpha, row(p_, i), row(z_, i + 1));
  z_.touch_read(i * n_, n_);
  p_.touch_read(i * n_, n_);
  z_.touch_write((i + 1) * n_, n_);

  // r[i+1] ← r[i] − α·q[i]
  linalg::xpay(row(r_, i), -alpha, row(q_, i), row(r_, i + 1));
  r_.touch_read(i * n_, n_);
  q_.touch_read(i * n_, n_);
  r_.touch_write((i + 1) * n_, n_);

  const double rho_new = linalg::dot(row(r_, i + 1), row(r_, i + 1));
  r_.touch_read((i + 1) * n_, n_);
  const double beta = rho_new / rho_;
  rho_ = rho_new;

  // p[i+1] ← r[i+1] + β·p[i]  (Fig. 2 line 11; paper's crash site is line 10)
  linalg::xpay(row(r_, i + 1), beta, row(p_, i), row(p_, i + 1));
  r_.touch_read((i + 1) * n_, n_);
  p_.touch_read(i * n_, n_);
  p_.touch_write((i + 1) * n_, n_);
  sim_.crash_point(kPointPUpdated);

  completed_ = i;
  iter_seconds_sum_ += t.elapsed();
  ++iter_seconds_count_;
  sim_.crash_point(kPointIterEnd);
}

bool CgCrashConsistent::step() {
  if (completed_ >= cfg_.n_iters) return false;
  try {
    if (!started_) {
      write_initial_state();
      started_ = true;
    }
    iteration(completed_ + 1);
  } catch (const memsim::CrashException&) {
    crash_iter_ = completed_ + 1;  // The interrupted iteration.
    throw;
  }
  return true;
}

bool CgCrashConsistent::run() {
  try {
    while (step()) {
    }
  } catch (const memsim::CrashException&) {
    return true;
  }
  return false;
}

bool CgCrashConsistent::check_invariants_durable(std::size_t j, std::vector<double>& sp,
                                                 std::vector<double>& sq, std::vector<double>& sr,
                                                 std::vector<double>& sz,
                                                 std::vector<double>& saz) const {
  const double tol = cfg_.invariant_rel_tol;
  // Durable snapshots of the candidate rows.
  sim_.durable_read(row(r_, j + 1).data(), sr.data(), n_ * sizeof(double));
  sim_.durable_read(row(z_, j + 1).data(), sz.data(), n_ * sizeof(double));

  // Eq. 2: r(j+1) = b − A·z(j+1). This also rejects never-written (all-zero
  // durable) rows because b ≠ 0.
  a_.spmv(sz, saz);
  double err2 = 0.0;
  double b2 = 0.0;
  for (std::size_t t = 0; t < n_; ++t) {
    const double d = sr[t] - (b_host_[t] - saz[t]);
    err2 += d * d;
    b2 += b_host_[t] * b_host_[t];
  }
  if (std::sqrt(err2) > tol * std::sqrt(b2)) return false;

  if (j >= 1) {
    // Eq. 1: p(j+1)ᵀ · q(j) = 0.
    sim_.durable_read(row(p_, j + 1).data(), sp.data(), n_ * sizeof(double));
    sim_.durable_read(row(q_, j).data(), sq.data(), n_ * sizeof(double));
    const double pq = linalg::dot(sp, sq);
    const double np = linalg::norm2(sp);
    const double nq = linalg::norm2(sq);
    if (std::fabs(pq) > tol * (np * nq + 1e-300)) return false;
    // Guard against the trivially-orthogonal all-zero p row.
    if (np == 0.0) return false;
  } else {
    // j = 0: Eq. 1 has no q(0); the initialization invariant p₁ = r₁ (Fig. 2
    // line 1) stands in. Without it a partially-stale durable p₁ could pass
    // (r₁/z₁ alone say nothing about p) and restart from a corrupt direction.
    sim_.durable_read(row(p_, 1).data(), sp.data(), n_ * sizeof(double));
    double diff2 = 0.0;
    double r2 = 0.0;
    for (std::size_t t = 0; t < n_; ++t) {
      const double d = sp[t] - sr[t];
      diff2 += d * d;
      r2 += sr[t] * sr[t];
    }
    if (std::sqrt(diff2) > tol * (std::sqrt(r2) + 1e-300)) return false;
  }
  return true;
}

CgRecovery CgCrashConsistent::begin_recovery() {
  ADCC_CHECK(sim_.crashed(), "recovery requires a prior crash");
  CgRecovery rec;
  if (crash_iter_ == 0) crash_iter_ = completed_ + 1;  // Externally injected crash.
  rec.crash_iter = crash_iter_;

  // ---- Phase 1: detect where to restart (durable image only). ----
  Timer detect;
  const auto durable_iter = static_cast<std::size_t>(iter_->durable());
  std::vector<double> sp(n_), sq(n_), sr(n_), sz(n_), saz(n_);
  std::size_t found = 0;
  bool ok = false;
  // The counter was flushed at the top of iteration `durable_iter`; rows for
  // j > durable_iter cannot exist.
  for (std::size_t j = durable_iter; j + 1 >= 1; --j) {
    ++rec.candidates_checked;
    if (check_invariants_durable(j, sp, sq, sr, sz, saz)) {
      found = j;
      ok = true;
      break;
    }
    if (j == 0) break;
  }
  rec.detect_seconds = detect.elapsed();
  rec.restart_iter = ok ? found + 1 : 1;
  rec.iters_lost = rec.crash_iter - rec.restart_iter + 1;

  // ---- Reload: the restarted process maps NVM (charged to resume). ----
  Timer reload;
  sim_.reset_after_crash();
  sim_.restore_all();  // Live = durable.
  if (!ok) {
    write_initial_state();
  } else {
    rho_ = linalg::dot(row(r_, rec.restart_iter), row(r_, rec.restart_iter));
    r_.touch_read(rec.restart_iter * n_, n_);
  }
  completed_ = rec.restart_iter - 1;  // step() re-executes the lost iterations.
  started_ = true;
  crash_iter_ = 0;
  rec.resume_seconds = reload.elapsed();
  return rec;
}

CgRecovery CgCrashConsistent::recover_and_resume() {
  const std::size_t crashed = crash_iter_ == 0 ? completed_ + 1 : crash_iter_;
  CgRecovery rec = begin_recovery();

  // ---- Phase 2: resume from the detected iteration to the crash point. ----
  Timer resume;
  for (std::size_t i = rec.restart_iter; i <= crashed && i <= cfg_.n_iters; ++i) {
    iteration(i);
  }
  rec.resume_seconds += resume.elapsed();
  return rec;
}

void CgCrashConsistent::finish() {
  for (std::size_t i = completed_ + 1; i <= cfg_.n_iters; ++i) iteration(i);
}

std::vector<double> CgCrashConsistent::solution() const {
  const std::size_t last = completed_ + 1;
  auto sp = row(z_, last);
  return {sp.begin(), sp.end()};
}

double CgCrashConsistent::avg_iter_seconds() const {
  return iter_seconds_count_ == 0 ? 0.0 : iter_seconds_sum_ / static_cast<double>(iter_seconds_count_);
}

}  // namespace adcc::cg

#include "mm/mm_cc.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "kernels/backend.hpp"
#include "linalg/gemm.hpp"

namespace adcc::mm {

using linalg::Matrix;

namespace {
constexpr std::int64_t kPhaseStride = 1'000'000;
std::int64_t encode_progress(int phase, std::size_t unit) {
  return phase * kPhaseStride + static_cast<std::int64_t>(unit);
}
std::pair<int, std::size_t> decode_progress(std::int64_t v) {
  return {static_cast<int>(v / kPhaseStride), static_cast<std::size_t>(v % kPhaseStride)};
}
}  // namespace

MmCrashConsistent::MmCrashConsistent(const Matrix& a, const Matrix& b, const MmCcConfig& cfg)
    : cfg_(cfg),
      nc_(cfg.n + 1),
      panels_((cfg.n + cfg.rank_k - 1) / cfg.rank_k),
      blocks_((nc_ + cfg.rank_k - 1) / cfg.rank_k),
      ac_host_(abft::encode_column_checksum(a)),
      br_host_(abft::encode_row_checksum(b)),
      sim_(cfg.cache),
      ac_(sim_, "mm.Ac", nc_ * cfg.n, /*read_only=*/true),
      br_(sim_, "mm.Br", cfg.n * nc_, /*read_only=*/true),
      ctemp_(sim_, "mm.Ctemp", nc_ * nc_) {
  ADCC_CHECK(a.rows() == cfg.n && a.cols() == cfg.n, "A must be n×n");
  ADCC_CHECK(b.rows() == cfg.n && b.cols() == cfg.n, "B must be n×n");
  ADCC_CHECK(cfg.rank_k >= 1 && cfg.rank_k <= cfg.n, "invalid rank");
  std::memcpy(ac_.data(), ac_host_.data(), ac_host_.size_bytes());
  std::memcpy(br_.data(), br_host_.data(), br_host_.size_bytes());
  ctemp_s_.reserve(panels_);
  for (std::size_t s = 0; s < panels_; ++s) {
    ctemp_s_.push_back(std::make_unique<memsim::TrackedArray<double>>(
        sim_, "mm.Ctemp_s" + std::to_string(s + 1), nc_ * nc_));
  }
  progress_ = std::make_unique<memsim::TrackedScalar<std::int64_t>>(sim_, "mm.progress", 0);
}

std::size_t MmCrashConsistent::rows_of_panel(std::size_t s) const {
  const std::size_t c0 = (s - 1) * cfg_.rank_k;
  return std::min(cfg_.rank_k, cfg_.n - c0);
}

void MmCrashConsistent::flush_full_checksums(memsim::TrackedArray<double>& m) {
  // Checksum row (contiguous) …
  m.flush((nc_ - 1) * nc_, nc_);
  // … and checksum column (one line per row — the rank-dependent flush cost).
  for (std::size_t i = 0; i < nc_; ++i) m.flush(i * nc_ + (nc_ - 1), 1);
  sim_.sfence();
}

void MmCrashConsistent::multiply_panel(std::size_t s) {
  Timer t;
  const std::size_t c0 = (s - 1) * cfg_.rank_k;
  const std::size_t k = rows_of_panel(s);
  double* out = ctemp_s_[s - 1]->data();
  const double* acd = ac_.data();
  const double* brd = br_.data();

  constexpr std::size_t kRowBlock = 64;
  for (std::size_t i0 = 0; i0 < nc_; i0 += kRowBlock) {
    const std::size_t i1 = std::min(nc_, i0 + kRowBlock);
    core::active_kernel_backend().gemm_tile(acd + i0 * cfg_.n + c0, cfg_.n, brd + c0 * nc_, nc_,
                                            i1 - i0, nc_, k, out + i0 * nc_, nc_,
                                            /*accumulate=*/false);
    // Announce the block's traffic: Ac slices, the streamed Br panel (resident
    // across row blocks on a real cache; re-touching keeps it MRU), and the
    // freshly produced Ctemp_s rows.
    for (std::size_t i = i0; i < i1; ++i) ac_.touch_read(i * cfg_.n + c0, k);
    br_.touch_read(c0 * nc_, k * nc_);
    ctemp_s_[s - 1]->touch_write(i0 * nc_, (i1 - i0) * nc_);
  }

  // Fig. 6 line 5: persist this panel's checksums.
  flush_full_checksums(*ctemp_s_[s - 1]);
  progress_->set_and_flush(encode_progress(1, s));

  done_mults_ = s;
  mult_seconds_ += t.elapsed();
  sim_.crash_point(kPointMultEnd);
}

void MmCrashConsistent::add_block(std::size_t blk) {
  Timer t;
  const std::size_t r0 = (blk - 1) * cfg_.rank_k;
  const std::size_t r1 = std::min(nc_, r0 + cfg_.rank_k);
  double* out = ctemp_.data();

  std::vector<const double*> panels(panels_);
  for (std::size_t s = 0; s < panels_; ++s) panels[s] = ctemp_s_[s]->data() + r0 * nc_;
  core::active_kernel_backend().panel_sum(panels.data(), panels_, r1 - r0, nc_, nc_,
                                          out + r0 * nc_, nc_);
  for (std::size_t s = 0; s < panels_; ++s) ctemp_s_[s]->touch_read(r0 * nc_, (r1 - r0) * nc_);
  ctemp_.touch_write(r0 * nc_, (r1 - r0) * nc_);

  // Fig. 6 line 13: persist the k row checksums of this block.
  for (std::size_t i = r0; i < r1; ++i) ctemp_.flush(i * nc_ + (nc_ - 1), 1);
  sim_.sfence();
  progress_->set_and_flush(encode_progress(2, blk));

  done_adds_ = blk;
  add_seconds_ += t.elapsed();
  sim_.crash_point(kPointAddEnd);
}

bool MmCrashConsistent::step() {
  if (done_mults_ < panels_) {
    multiply_panel(done_mults_ + 1);
    return true;
  }
  if (done_adds_ < blocks_) {
    add_block(done_adds_ + 1);
    return true;
  }
  return false;
}

bool MmCrashConsistent::run() {
  try {
    while (step()) {
    }
  } catch (const memsim::CrashException&) {
    return true;
  }
  return false;
}

bool MmCrashConsistent::durable_full_consistent(const memsim::TrackedArray<double>& m,
                                                Matrix& scratch) const {
  sim_.durable_read(m.data(), scratch.data(), nc_ * nc_ * sizeof(double));
  return abft::verify_full_checksums(scratch, cfg_.tol).consistent();
}

MmRecovery MmCrashConsistent::begin_recovery() {
  ADCC_CHECK(sim_.crashed(), "recovery requires a prior crash");
  MmRecovery rec;

  // ---- Phase 1: classify every unit from the durable image. ----
  Timer detect;
  const auto [phase_d, unit_d] = decode_progress(progress_->durable());
  rec.crash_phase = phase_d == 0 ? 1 : phase_d;
  rec.crash_unit = phase_d == 0 ? 1 : unit_d;
  const std::size_t done_mults = phase_d >= 2 ? panels_ : unit_d;
  const std::size_t done_adds = phase_d >= 2 ? unit_d : 0;

  Matrix scratch(nc_, nc_);
  std::vector<std::size_t> lost_mults;
  std::vector<std::size_t> correctable_mults;
  for (std::size_t s = 1; s <= done_mults; ++s) {
    ++rec.candidates_checked;
    sim_.durable_read(ctemp_s_[s - 1]->data(), scratch.data(), nc_ * nc_ * sizeof(double));
    auto report = abft::verify_full_checksums(scratch, cfg_.tol);
    if (report.consistent()) continue;
    if (abft::try_correct(scratch, report, cfg_.tol) > 0) {
      correctable_mults.push_back(s);
    } else {
      lost_mults.push_back(s);
    }
  }

  // Row blocks of loop 2: verify durable row checksums of completed blocks.
  std::vector<std::size_t> lost_adds;
  if (phase_d >= 2) {
    Matrix ct(nc_, nc_);
    sim_.durable_read(ctemp_.data(), ct.data(), nc_ * nc_ * sizeof(double));
    const auto rows = abft::verify_row_checksums(ct, /*has_checksum_row=*/false, cfg_.tol);
    std::vector<bool> block_bad(blocks_ + 1, false);
    for (const std::size_t r : rows.bad_rows) {
      const std::size_t blk = r / cfg_.rank_k + 1;
      if (blk <= done_adds) block_bad[blk] = true;
    }
    for (std::size_t blk = 1; blk <= done_adds; ++blk) {
      ++rec.candidates_checked;
      if (block_bad[blk]) lost_adds.push_back(blk);
    }
  }
  rec.detect_seconds = detect.elapsed();

  // ---- Phase 2: repair / recompute up to the crash point. ----
  Timer resume;
  sim_.reset_after_crash();
  sim_.restore_all();
  for (const std::size_t s : correctable_mults) {
    // Repair purely from checksums: fix the durable copy in place and
    // re-persist (much cheaper than a panel multiplication).
    sim_.durable_read(ctemp_s_[s - 1]->data(), scratch.data(), nc_ * nc_ * sizeof(double));
    auto report = abft::verify_full_checksums(scratch, cfg_.tol);
    ADCC_CHECK(abft::try_correct(scratch, report, cfg_.tol) > 0, "correction regressed");
    std::memcpy(ctemp_s_[s - 1]->data(), scratch.data(), nc_ * nc_ * sizeof(double));
    ctemp_s_[s - 1]->touch_write(0, nc_ * nc_);
    ctemp_s_[s - 1]->flush_all();
    ++rec.units_corrected;
  }
  for (const std::size_t s : lost_mults) {
    multiply_panel(s);
    ++rec.units_recomputed;
  }
  for (const std::size_t blk : lost_adds) {
    add_block(blk);
    ++rec.units_recomputed;
  }
  // Restore the progress counter (recompute of old units overwrote it).
  if (phase_d >= 2) {
    progress_->set_and_flush(encode_progress(2, done_adds));
    done_adds_ = done_adds;
  } else {
    progress_->set_and_flush(encode_progress(1, done_mults));
    done_adds_ = 0;
  }
  done_mults_ = done_mults;
  rec.resume_seconds = resume.elapsed();  // Caught up to the crash point.
  return rec;
}

MmRecovery MmCrashConsistent::recover_and_resume() {
  MmRecovery rec = begin_recovery();

  // ---- Finish the remaining (never-executed) units normally (untimed:
  // resume_seconds covers only the catch-up to the crash point). ----
  while (step()) {
  }
  return rec;
}

void MmCrashConsistent::corrupt_element_for_test(std::size_t s, std::size_t i, std::size_t j,
                                                 double value) {
  ADCC_CHECK(s >= 1 && s <= panels_, "panel out of range");
  ADCC_CHECK(i < nc_ - 1 && j < nc_ - 1, "only data elements may be corrupted");
  auto& m = *ctemp_s_[s - 1];
  m.data()[i * nc_ + j] = value;
  m.touch_write(i * nc_ + j, 1);
  m.flush(i * nc_ + j, 1);  // Push the corruption into the durable image.
  sim_.sfence();
}

Matrix MmCrashConsistent::result() const {
  ADCC_CHECK(finished(), "result before completion");
  Matrix c(cfg_.n, cfg_.n);
  const double* src = ctemp_.data();
  for (std::size_t i = 0; i < cfg_.n; ++i) {
    std::memcpy(c.row(i).data(), src + i * nc_, cfg_.n * sizeof(double));
  }
  return c;
}

double MmCrashConsistent::avg_mult_seconds() const {
  return done_mults_ == 0 ? 0.0 : mult_seconds_ / static_cast<double>(done_mults_);
}

double MmCrashConsistent::avg_add_seconds() const {
  return done_adds_ == 0 ? 0.0 : add_seconds_ / static_cast<double>(done_adds_);
}

}  // namespace adcc::mm

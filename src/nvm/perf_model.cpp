#include "nvm/perf_model.hpp"

#include <cstring>
#include <vector>

#include "common/align.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"

namespace adcc::nvm {

PerfModel::PerfModel(const PerfConfig& cfg) : cfg_(cfg) {
  ADCC_CHECK(cfg_.bandwidth_slowdown >= 1.0, "NVM cannot be faster than DRAM in this model");
  if (cfg_.dram_bw_bytes_per_s > 0) {
    dram_bw_ = cfg_.dram_bw_bytes_per_s;
  } else if (!cfg_.enabled || cfg_.bandwidth_slowdown <= 1.0) {
    dram_bw_ = 10e9;  // Never charged; skip the costly calibration sweep.
  } else {
    dram_bw_ = calibrate_dram_bandwidth();
  }
  ADCC_CHECK(dram_bw_ > 0, "DRAM bandwidth must be positive");
}

double PerfModel::seconds_per_byte() const {
  if (!cfg_.enabled || cfg_.bandwidth_slowdown <= 1.0) return 0.0;
  return (cfg_.bandwidth_slowdown - 1.0) / dram_bw_;
}

void PerfModel::charge_write(std::size_t bytes) {
  stats_.bytes_written += bytes;
  const double delay = static_cast<double>(bytes) * seconds_per_byte();
  if (delay > 0.0) {
    stats_.injected_seconds += delay;
    spin_for(delay);
  }
}

void PerfModel::charge_flush_lines(std::size_t lines) {
  stats_.lines_flushed += lines;
  double delay = static_cast<double>(lines * kCacheLine) * seconds_per_byte();
  if (cfg_.enabled) delay += static_cast<double>(lines) * cfg_.flush_latency_ns * 1e-9;
  if (delay > 0.0) {
    stats_.injected_seconds += delay;
    spin_for(delay);
  }
}

double PerfModel::calibrate_dram_bandwidth() {
  // Copy 32 MB back and forth a few times; take the best rate (least noisy).
  constexpr std::size_t kBytes = 32u << 20;
  AlignedBuffer src(kBytes);
  AlignedBuffer dst(kBytes);
  std::memset(src.data(), 0x5A, kBytes);
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    std::memcpy(dst.data(), src.data(), kBytes);
    std::memcpy(src.data(), dst.data(), kBytes);
    const double secs = t.elapsed();
    if (secs > 0) best = std::max(best, 2.0 * static_cast<double>(kBytes) / secs);
  }
  return best > 0 ? best : 10e9;  // Fallback: assume 10 GB/s.
}

}  // namespace adcc::nvm

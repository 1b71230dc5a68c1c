// Quartz-style NVM performance emulation.
//
// Quartz emulates slower NVM on DRAM hardware by injecting delays sized to the
// bandwidth/latency gap. We reproduce the same first-order model in software:
// every byte written through to "NVM" is charged
//
//     delay = bytes / BW_nvm − bytes / BW_dram
//
// busy-wait seconds on top of the real DRAM-speed operation, plus a fixed
// per-flush latency. The paper's configuration (NVM bandwidth = 1/8 DRAM) is
// the default. A slowdown of 1 models the paper's "NVM as fast as DRAM"
// optimistic configuration and charges nothing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace adcc::nvm {

struct PerfConfig {
  double dram_bw_bytes_per_s = 0.0;  ///< 0 → calibrate with a memcpy sweep at first use.
  double bandwidth_slowdown = 8.0;   ///< BW_nvm = BW_dram / slowdown (paper: 8).
  double flush_latency_ns = 0.0;     ///< Extra fixed cost per flushed line.
  bool enabled = true;               ///< false → charge nothing (pure DRAM).
};

struct PerfStats {
  std::uint64_t bytes_written = 0;
  std::uint64_t lines_flushed = 0;
  double injected_seconds = 0.0;
};

class PerfModel {
 public:
  explicit PerfModel(const PerfConfig& cfg = {});

  /// Charges the throttle for `bytes` written through to NVM.
  void charge_write(std::size_t bytes);

  /// Charges `lines` cache-line flushes (media write of 64 B each + latency).
  void charge_flush_lines(std::size_t lines);

  /// Measured/configured DRAM bandwidth in bytes/s.
  double dram_bandwidth() const { return dram_bw_; }
  double nvm_bandwidth() const { return cfg_.bandwidth_slowdown > 0 ? dram_bw_ / cfg_.bandwidth_slowdown : dram_bw_; }

  const PerfConfig& config() const { return cfg_; }
  const PerfStats& stats() const { return stats_; }

  /// One-time memcpy sweep measuring sustained DRAM copy bandwidth.
  static double calibrate_dram_bandwidth();

 private:
  double seconds_per_byte() const;

  PerfConfig cfg_;
  double dram_bw_;
  PerfStats stats_;
};

}  // namespace adcc::nvm

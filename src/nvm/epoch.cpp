#include "nvm/epoch.hpp"

#include "common/check.hpp"
#include "nvm/flush.hpp"

namespace adcc::nvm {

void EpochPersister::stage(const void* p, std::size_t bytes) {
  ADCC_CHECK(region_.contains(p, bytes), "staged range must be arena memory");
  if (bytes == 0) return;
  staged_.push_back({p, bytes});
  ++stats_.staged_ranges;
}

void EpochPersister::commit_epoch() {
  if (staged_.empty()) return;
  std::size_t lines = 0;
  for (const Range& r : staged_) {
    // No fence between ranges: with CLWB/CLFLUSHOPT the flushes overlap.
    flush_range(r.p, r.bytes);
    lines += flush_line_count(r.p, r.bytes);
  }
  store_fence();  // One ordering point per epoch.
  region_.perf_model().charge_flush_lines(lines);
  stats_.lines_flushed += lines;
  ++stats_.epochs;
  staged_.clear();
}

}  // namespace adcc::nvm

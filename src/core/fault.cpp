// The surface's loops (announcements, flip injection) start on 32-byte
// boundaries, so the per-unit tick/point cost does not move with the size of
// earlier translation units (see kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "core/fault.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "memsim/memsim.hpp"
#include "nvm/nvm_region.hpp"

namespace adcc::core {

namespace {
// Distinct splitmix64 tweak constants so the site-skip draw and each bit
// position draw come from independent streams of the same flip seed.
constexpr std::uint64_t kFlipSkipSalt = 0xF11D'5C1F'7A11'0C85ULL;
constexpr std::uint64_t kFlipBitSalt = 0xB17F'11B5'EED0'3A1DULL;
// A flip lands on one of the next kFlipSiteSpread eligible corrupt() calls
// after the access threshold, so workloads offering several state regions at
// one program point still expose every region to the seed sweep.
constexpr std::uint64_t kFlipSiteSpread = 4;
}  // namespace

FaultSurface::FaultSurface() = default;
FaultSurface::~FaultSurface() = default;

void FaultSurface::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sim_.reset();
  inputs_.clear();
  scheduler_.disarm();
  accesses_ = 0;
  flip_armed_.store(false, std::memory_order_relaxed);
  flip_fired_.store(false, std::memory_order_relaxed);
  flip_stats_ = {};
}

void FaultSurface::emulate(const memsim::CacheConfig& cache) {
  reset();  // Drops the previous emulator and its inputs.
  sim_ = std::make_unique<memsim::MemorySimulator>(cache);
}

void FaultSurface::track_bytes(std::string name, void* data, std::size_t bytes) {
  std::memset(data, 0, bytes);
  sim_->register_region(std::move(name), data, bytes);
}

void FaultSurface::track_input_bytes(std::string name, const void* data, std::size_t bytes) {
  Input in;
  in.base = static_cast<const std::byte*>(data);
  in.bytes = bytes;
  in.standin = AlignedBuffer(bytes);
  sim_->register_region(std::move(name), in.standin.data(), bytes, /*read_only=*/true);
  inputs_.push_back(std::move(in));
}

void FaultSurface::announce(const void* p, std::size_t bytes, bool is_write) {
  const auto* b = static_cast<const std::byte*>(p);
  for (const Input& in : inputs_) {
    if (b >= in.base && b < in.base + in.bytes) {
      ADCC_CHECK(!is_write, "read-only inputs are never written");
      sim_->on_read(in.standin.data() + (b - in.base), bytes);
      return;
    }
  }
  if (is_write) {
    sim_->on_write(p, bytes);
  } else {
    sim_->on_read(p, bytes);
  }
}

void FaultSurface::persist(nvm::NvmRegion& region, const void* p, std::size_t bytes) {
  region.persist(p, bytes);
  if (sim_ != nullptr) {
    sim_->clflush(p, bytes);
    sim_->sfence();
  }
}

void FaultSurface::power_fail() {
  if (sim_ == nullptr) return;
  if (!sim_->crashed()) sim_->crash();
  sim_->restore_all();
  sim_->reset_after_crash();
}

void FaultSurface::arm_at_access(std::uint64_t n) {
  if (sim_ != nullptr) {
    sim_->scheduler().arm_at_access(n);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    scheduler_.arm_at_access(n);
  }
}

void FaultSurface::arm_at_point(std::string name, std::uint64_t occurrence) {
  if (sim_ != nullptr) {
    sim_->scheduler().arm_at_point(std::move(name), occurrence);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    scheduler_.arm_at_point(std::move(name), occurrence);
  }
}

void FaultSurface::arm_flip(std::uint64_t at_access, std::uint64_t seed,
                            std::uint64_t bits) {
  std::lock_guard<std::mutex> lock(mu_);
  flip_at_ = at_access;
  flip_seed_ = seed;
  flip_bits_ = bits == 0 ? 1 : bits;
  flip_skip_ = splitmix64(seed ^ kFlipSkipSalt) % kFlipSiteSpread;
  flip_group_ = 0;
  flip_stats_ = {};
  flip_fired_.store(false, std::memory_order_relaxed);
  flip_armed_.store(true, std::memory_order_relaxed);
}

void FaultSurface::disarm() {
  if (sim_ != nullptr) {
    sim_->scheduler().disarm();
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    scheduler_.disarm();
  }
}

bool FaultSurface::armed() const {
  if (sim_ != nullptr) return sim_->scheduler().armed();
  std::lock_guard<std::mutex> lock(mu_);
  return scheduler_.armed();
}

FlipStats FaultSurface::flip_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flip_stats_;
}

void FaultSurface::report_detected(bool corrected) {
  std::lock_guard<std::mutex> lock(mu_);
  ++flip_stats_.detected;
  if (corrected) ++flip_stats_.corrected;
}

std::uint64_t FaultSurface::access_count() const {
  if (sim_ != nullptr) return sim_->access_count();
  std::lock_guard<std::mutex> lock(mu_);
  return accesses_;
}

void FaultSurface::tick(std::uint64_t accesses) {
  if (sim_ != nullptr) return;  // The simulator counts its own accesses.
  std::lock_guard<std::mutex> lock(mu_);
  accesses_ += accesses;
  if (scheduler_.on_access(accesses_)) fire("access", accesses_);
}

void FaultSurface::point(const char* name) {
  if (sim_ != nullptr) {
    sim_->crash_point(name);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (scheduler_.on_point(name)) fire(name, accesses_);
}

void FaultSurface::corrupt(const char* site, void* data, std::size_t bytes) {
  // The gate load keeps this hook near-free on every non-flip run: no lock,
  // no clock, one relaxed atomic read.
  if (!flip_armed_.load(std::memory_order_relaxed)) return;
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!flip_armed_.load(std::memory_order_relaxed)) return;
  const std::uint64_t now = sim_ != nullptr ? sim_->access_count() : accesses_;
  if (now < flip_at_) return;
  // Seeded site selection, capped at the same-access-count group: workloads
  // offer several regions back-to-back between ticks (cg p/r/z, mc
  // counters/macro), and the skip picks among THOSE — but never defers past
  // the group, so a workload with one site per unit (mm) cannot carry the
  // flip past the end of the run.
  if (flip_skip_ > 0 && (flip_group_ == 0 || now == flip_group_)) {
    flip_group_ = now;
    --flip_skip_;
    return;
  }
  flip_armed_.store(false, std::memory_order_relaxed);  // One-shot.
  auto* p = static_cast<unsigned char*>(data);
  const std::uint64_t nbits = static_cast<std::uint64_t>(bytes) * 8;
  for (std::uint64_t k = 0; k < flip_bits_; ++k) {
    const std::uint64_t pos = splitmix64(flip_seed_ ^ (kFlipBitSalt + k)) % nbits;
    p[pos / 8] ^= static_cast<unsigned char>(1u << (pos % 8));
  }
  flip_stats_.flips += 1;
  flip_stats_.bits = flip_bits_;
  flip_stats_.inject_access = now;
  flip_stats_.site = site;
  flip_fired_.store(true, std::memory_order_relaxed);
}

void FaultSurface::fire(const std::string& at, std::uint64_t accesses) {
  // One-shot: recovery re-executes the crashed unit, which must not re-fire.
  // Throws with mu_ held by the caller; the unwind releases it.
  scheduler_.disarm();
  throw memsim::CrashException(at, accesses);
}

}  // namespace adcc::core

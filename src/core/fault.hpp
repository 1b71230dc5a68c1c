// FaultSurface — the fault-injection engine threading memsim's CrashScheduler
// through the Workload API, so ScenarioRunner can land crashes *inside* a work
// unit (the paper's two crash-emulator trigger modes: after a named statement,
// and after N memory accesses), not just at unit boundaries.
//
// Two backings share one arming interface:
//
//  * software-counted — a native-speed workload adapter owns the surface and
//    instruments its run_step engines with tick(accesses) / point(name) calls
//    at sub-unit sites. The surface drives a private CrashScheduler and
//    throws memsim::CrashException when the armed trigger fires.
//
//  * emulated — an algorithm-directed engine run with `cache_mb` calls
//    emulate(): the surface then owns a memsim::MemorySimulator (the paper's
//    crash emulator, the persistence-state model of Yat, Lantz et al., USENIX
//    ATC'14) and the same engine code drives it. The engine registers its
//    NVM-arena arrays (track) and read-only inputs (track_input), announces
//    the ranges each statement read and wrote (read/write) after the kernel
//    call that touched them, routes its persists through persist(), and its
//    point() sites forward to the simulator's crash points. Arming forwards to
//    the simulator's scheduler, whose line-granular access accounting raises
//    the same memsim::CrashException, so ScenarioRunner handles both backings
//    identically. At the crash the engine's inject_crash() calls power_fail(),
//    which copies the durable image over the live arena: recover() then reads
//    only what NVM held (flushed or evicted lines). Unemulated, every
//    announcement is one null-pointer test.
//
// Triggers are one-shot: the surface disarms itself as the exception is thrown
// (mirroring MemorySimulator::crash + reset_after_crash), so recovery's
// re-execution of the crashed unit cannot re-fire the same trigger.
//
// Beyond fail-stop crashes the surface also hosts *silent* faults (the flip:
// crash family): arm_flip schedules a seeded XOR bit-flip that the corrupt()
// instrumentation hook lands inside the workload's tracked state WITHOUT
// raising — execution continues, and detection must come from the workload's
// own checksums/invariants (or not at all: an honest silent miss caught only
// by end-of-run verify()). Flip firings and detections are recorded in
// FlipStats for the runner's detection-latency accounting.
//
// The software-counted backing is internally synchronized: with asynchronous
// checkpointing the durability engine's drain thread fires "ckpt_drain" points
// through this surface while the workload's own thread keeps ticking the next
// unit, so counter/scheduler state is guarded by a mutex (uncontended in the
// synchronous paths — ticks are per-sub-statement, not per-element).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/align.hpp"
#include "memsim/cache.hpp"
#include "memsim/crash.hpp"

namespace adcc::memsim {
class MemorySimulator;
}

namespace adcc::nvm {
class NvmRegion;
}

namespace adcc::core {

/// Thrown by a workload's detection check (not by the surface itself) when an
/// armed silent flip is caught by a checksum/invariant that cannot repair it
/// in place: the runner accounts the detection and drives the same
/// inject_crash / recover / resume path as a fail-stop crash
/// (detected-and-rolled-back).
class SilentFaultDetected : public std::runtime_error {
 public:
  SilentFaultDetected(std::string check, std::size_t detect_unit, std::uint64_t access)
      : std::runtime_error("silent fault detected by " + check),
        check_(std::move(check)),
        detect_unit_(detect_unit),
        access_(access) {}

  /// The invariant/checksum check that caught the corruption.
  const std::string& check() const { return check_; }
  /// The 1-based work unit whose check fired (the detection point, in units).
  std::size_t detect_unit() const { return detect_unit_; }
  /// Announced accesses when the check fired.
  std::uint64_t access_count() const { return access_; }

 private:
  std::string check_;
  std::size_t detect_unit_ = 0;
  std::uint64_t access_ = 0;
};

/// Silent-fault accounting: what a flip: arming did and how the workload's
/// defenses responded. Monotonic within one prepared run (reset() clears
/// it); read by ScenarioRunner's per-iteration poll.
struct FlipStats {
  std::uint64_t flips = 0;          ///< Corrupt events fired (one-shot: 0 or 1).
  std::uint64_t bits = 0;           ///< Bit positions XOR-flipped by the event.
  std::uint64_t inject_access = 0;  ///< Announced accesses when the flip landed.
  std::string site;                 ///< corrupt() site name that hosted it.
  std::uint64_t detected = 0;       ///< Checks that caught it (report_detected).
  std::uint64_t corrected = 0;      ///< ... and repaired it in place (ABFT).
};

/// The fault-injection engine: one-shot fail-stop triggers (tick/point) plus
/// silent-corruption flips (arm_flip/corrupt), shared by the workload thread
/// and the async drain thread.
class FaultSurface {
 public:
  FaultSurface();
  ~FaultSurface();

  /// Back to software counting (workload prepare()): drops the emulator, if
  /// any, disarms, and rewinds the access counter and any armed/fired flip.
  void reset();

  // ---- Crash emulation (algorithm-directed engines under cache_mb) --------

  /// Starts a fresh crash emulator with an LRU cache of `cache`, owned by the
  /// surface; reset() first, so regions registered with an earlier emulator
  /// are forgotten with it. While emulated, arming forwards to the
  /// emulator's scheduler, tick() is a no-op (the emulator counts line
  /// accesses itself) and point() forwards to its crash points.
  void emulate(const memsim::CacheConfig& cache);

  /// True while an emulator runs.
  bool emulated() const { return sim_ != nullptr; }
  /// The emulator emulate() started, or nullptr.
  memsim::MemorySimulator* sim() const { return sim_.get(); }

  /// Registers a cache-line aligned NVM-arena array with the emulator, zeroed
  /// first so the durable image starts empty. Registration order places the
  /// regions in the cache model. No-op unless emulated.
  template <typename T>
  void track(std::string name, std::span<T> data) {
    if (sim_ != nullptr) track_bytes(std::move(name), data.data(), data.size_bytes());
  }

  /// Registers a read-only input (any alignment) with the emulator through an
  /// aligned stand-in its announcements are redirected to, so the model sees
  /// the input's lines at the same offsets wherever it lives. No-op unless
  /// emulated.
  template <typename T>
  void track_input(std::string name, std::span<const T> data) {
    if (sim_ != nullptr) track_input_bytes(std::move(name), data.data(), data.size_bytes());
  }

  /// Announces that the last kernel call read / wrote [p, p + bytes) of a
  /// tracked region; throws memsim::CrashException when an armed access
  /// trigger fires inside the range. No-ops unless emulated.
  void read(const void* p, std::size_t bytes) {
    if (sim_ != nullptr) announce(p, bytes, /*is_write=*/false);
  }
  void write(const void* p, std::size_t bytes) {
    if (sim_ != nullptr) announce(p, bytes, /*is_write=*/true);
  }
  template <typename T>
  void read(std::span<T> data) {
    read(data.data(), data.size_bytes());
  }
  template <typename T>
  void write(std::span<T> data) {
    write(data.data(), data.size_bytes());
  }

  /// Persists [p, p + bytes) of `region` (flush + fence, charged to its perf
  /// model) and, when emulated, CLFLUSHes the same lines into the durable
  /// image.
  void persist(nvm::NvmRegion& region, const void* p, std::size_t bytes);

  /// The emulated power failure: discards the cache (unless a trigger already
  /// did), copies every tracked region's durable image over its live bytes,
  /// and readies the emulator for the recovery run. No-op unless emulated.
  void power_fail();

  // ---- Arming (ScenarioRunner side) ---------------------------------------

  /// Crash once the access count reaches `n` (fires on access #n).
  void arm_at_access(std::uint64_t n);

  /// Crash at the `occurrence`-th (1-based) hit of point(`name`).
  void arm_at_point(std::string name, std::uint64_t occurrence = 1);

  /// Arms a silent flip: once the announced-access count reaches `at_access`,
  /// a seed-chosen one of the next few corrupt() calls XOR-flips `bits`
  /// seeded bit positions inside its span — without raising. One-shot and
  /// independent of the crash scheduler, so a flip head can compose with an
  /// armed ^TAIL crash. The seed picks the hosting site (a small seeded skip
  /// over eligible corrupt() calls) and every flipped bit position, so the
  /// whole event is a pure function of (seed, workload shape, mode).
  void arm_flip(std::uint64_t at_access, std::uint64_t seed, std::uint64_t bits = 1);

  void disarm();
  bool armed() const;

  /// True while a flip is armed or after it fired: the window in which the
  /// workload's detection checks must run. Lock-free (one relaxed atomic
  /// load), so hot run_step paths can gate their checks on it for free.
  bool flip_active() const {
    return flip_armed_.load(std::memory_order_relaxed) ||
           flip_fired_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the flip accounting (copy: the workload thread may be
  /// mutating it through corrupt()/report_detected()).
  FlipStats flip_stats() const;

  /// Records that a workload check caught the injected corruption;
  /// corrected = true when the check repaired it in place (ABFT correction)
  /// instead of forcing a rollback. Checks that instead throw
  /// SilentFaultDetected must NOT also call this — the runner accounts the
  /// thrown path itself.
  void report_detected(bool corrected);

  /// Accesses announced so far: the emulator's line-granular count when
  /// emulated, else the sum of tick() weights since the last reset().
  std::uint64_t access_count() const;

  // ---- Instrumentation (workload run_step side) ---------------------------

  /// Announces `accesses` memory accesses (element-granular approximations of
  /// the paper's "instructions"); throws memsim::CrashException if an armed
  /// access trigger fires inside this batch. No-op while emulated.
  void tick(std::uint64_t accesses);

  /// Names a program point (the paper's crash-after-statement sites); throws
  /// memsim::CrashException at the armed occurrence. While emulated it
  /// forwards to the emulator's crash_point, which crashes the cache as it
  /// throws.
  void point(const char* name);

  /// Offers `bytes` of tracked workload state as a silent-corruption target.
  /// Near-free when no flip is armed (one relaxed atomic load); when the armed
  /// access threshold has been reached, the seed-chosen eligible call XOR-flips
  /// the armed bit count inside [data, data + bytes) and records FlipStats —
  /// never throws, never advances the access counter.
  void corrupt(const char* site, void* data, std::size_t bytes);

  /// Span convenience for the typical double/uint64 state arrays.
  template <typename T>
  void corrupt(const char* site, std::span<T> data) {
    corrupt(site, static_cast<void*>(data.data()), data.size_bytes());
  }

 private:
  [[noreturn]] void fire(const std::string& at, std::uint64_t accesses);
  void track_bytes(std::string name, void* data, std::size_t bytes);
  void track_input_bytes(std::string name, const void* data, std::size_t bytes);
  void announce(const void* p, std::size_t bytes, bool is_write);

  /// The emulator emulate() started, if any.
  std::unique_ptr<memsim::MemorySimulator> sim_;
  /// A read-only input and the aligned stand-in its announcements hit.
  struct Input {
    const std::byte* base = nullptr;
    std::size_t bytes = 0;
    AlignedBuffer standin;
  };
  std::vector<Input> inputs_;
  /// Guards scheduler_ + accesses_ + flip state against the drain thread's
  /// point() calls racing the workload thread's tick()/point()/corrupt()
  /// calls (async checkpointing).
  mutable std::mutex mu_;
  memsim::CrashScheduler scheduler_;
  std::uint64_t accesses_ = 0;

  // Silent-flip state (mu_-guarded except the two lock-free gate flags).
  std::atomic<bool> flip_armed_{false};
  std::atomic<bool> flip_fired_{false};
  std::uint64_t flip_at_ = 0;
  std::uint64_t flip_seed_ = 0;
  std::uint64_t flip_bits_ = 1;
  std::uint64_t flip_skip_ = 0;   ///< Eligible corrupt() calls to pass over.
  std::uint64_t flip_group_ = 0;  ///< Access count of the skip's site group.
  FlipStats flip_stats_;
};

}  // namespace adcc::core

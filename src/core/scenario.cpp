#include "core/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <stdexcept>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/fault.hpp"
#include "core/telemetry.hpp"
#include "kernels/backend.hpp"
#include "memsim/crash.hpp"

namespace adcc::core {

namespace {

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

namespace {

/// One '^'-free crash plan (the links of a double-fault chain are parsed
/// individually and stitched by parse_crash).
std::optional<CrashScenario> parse_crash_link(std::string_view spec);

}  // namespace

CrashScenario parse_crash_or_throw(std::string_view spec) {
  std::optional<CrashScenario> crash = parse_crash(spec);
  if (!crash) {
    throw std::invalid_argument("malformed crash plan '" + std::string(spec) + "'");
  }
  return *crash;
}

std::optional<CrashScenario> parse_crash(std::string_view spec) {
  // Shard-scope prefix ([shard:I: | shards:K:SEED: | coord:]PLAN): stripped
  // before the '^' split, so the scope covers the whole chain; a scoped
  // "none" is rejected (a scope names what a crash destroys).
  CrashScenario::Scope scope = CrashScenario::Scope::kProcess;
  std::size_t shard = 0;
  std::size_t victims = 1;
  std::uint64_t victim_seed = 1;
  {
    const auto colon = spec.find(':');
    const std::string_view head = spec.substr(0, colon);
    if (head == "shard") {
      if (colon == std::string_view::npos) return std::nullopt;
      const std::string_view rest = spec.substr(colon + 1);
      const auto c2 = rest.find(':');
      if (c2 == std::string_view::npos) return std::nullopt;
      const auto idx = parse_u64(rest.substr(0, c2));
      if (!idx) return std::nullopt;
      scope = CrashScenario::Scope::kShard;
      shard = static_cast<std::size_t>(*idx);
      spec = rest.substr(c2 + 1);
    } else if (head == "shards") {
      if (colon == std::string_view::npos) return std::nullopt;
      std::string_view rest = spec.substr(colon + 1);
      const auto c2 = rest.find(':');
      if (c2 == std::string_view::npos) return std::nullopt;
      const auto k = parse_u64(rest.substr(0, c2));
      if (!k || *k == 0) return std::nullopt;
      rest = rest.substr(c2 + 1);
      const auto c3 = rest.find(':');
      if (c3 == std::string_view::npos) return std::nullopt;
      const auto s = parse_u64(rest.substr(0, c3));
      if (!s) return std::nullopt;
      scope = CrashScenario::Scope::kShardSet;
      victims = static_cast<std::size_t>(*k);
      victim_seed = *s;
      spec = rest.substr(c3 + 1);
    } else if (head == "coord") {
      if (colon == std::string_view::npos) return std::nullopt;
      scope = CrashScenario::Scope::kCoordinator;
      spec = spec.substr(colon + 1);
    }
  }

  std::optional<CrashScenario> out;
  // Double-fault chains: HEAD^TAIL^TAIL... — the head fires as usual, each
  // tail is armed before the recovery that follows its predecessor's crash.
  const auto caret = spec.find('^');
  if (caret != std::string_view::npos) {
    auto head = parse_crash_link(spec.substr(0, caret));
    if (!head || head->kind == CrashScenario::Kind::kNone) return std::nullopt;
    std::string_view rest = spec.substr(caret + 1);
    while (true) {
      const auto next = rest.find('^');
      const auto link = parse_crash_link(rest.substr(0, next));
      // Recovery triggers must be mid-unit by construction: a unit-boundary
      // plan has no meaning inside recover().
      if (!link || (link->kind != CrashScenario::Kind::kAtAccess &&
                    link->kind != CrashScenario::Kind::kAtPoint)) {
        return std::nullopt;
      }
      head->then.push_back(*link);
      if (next == std::string_view::npos) break;
      rest = rest.substr(next + 1);
    }
    out = head;
  } else {
    out = parse_crash_link(spec);
  }

  if (out && scope != CrashScenario::Scope::kProcess) {
    if (out->kind == CrashScenario::Kind::kNone) return std::nullopt;
    out->scope = scope;
    out->shard = shard;
    out->victims = victims;
    out->victim_seed = victim_seed;
  }
  return out;
}

namespace {

std::optional<CrashScenario> parse_crash_link(std::string_view spec) {
  CrashScenario c;
  if (spec.empty() || spec == "none") return c;
  const auto colon = spec.find(':');
  const std::string_view head = spec.substr(0, colon);
  const std::string_view arg =
      colon == std::string_view::npos ? std::string_view() : spec.substr(colon + 1);
  if (head == "step") {
    const auto k = parse_u64(arg);
    if (!k || *k == 0) return std::nullopt;
    c.kind = CrashScenario::Kind::kAtStep;
    c.step = static_cast<std::size_t>(*k);
    return c;
  }
  if (head == "random") {
    c.kind = CrashScenario::Kind::kRandom;
    if (colon != std::string_view::npos) {
      const auto s = parse_u64(arg);
      if (!s) return std::nullopt;
      c.seed = *s;
    }
    return c;
  }
  if (head == "repeat") {
    const auto n = parse_u64(arg);
    if (!n || *n == 0) return std::nullopt;
    c.kind = CrashScenario::Kind::kRepeated;
    c.count = static_cast<std::size_t>(*n);
    return c;
  }
  if (head == "access") {
    const auto n = parse_u64(arg);
    if (!n || *n == 0) return std::nullopt;
    c.kind = CrashScenario::Kind::kAtAccess;
    c.access = *n;
    return c;
  }
  if (head == "point") {
    // Crash-point names contain ':' themselves (cg:p_updated), so the
    // occurrence suffix is the last ':'-separated token — and only when it
    // parses as a number with a non-empty name before it.
    if (colon == std::string_view::npos || arg.empty()) return std::nullopt;
    std::string_view name = arg;
    std::uint64_t occurrence = 1;
    const auto last = arg.rfind(':');
    if (last != std::string_view::npos) {
      const auto k = parse_u64(arg.substr(last + 1));
      if (k && last > 0) {
        if (*k == 0) return std::nullopt;
        name = arg.substr(0, last);
        occurrence = *k;
      }
    }
    if (name.empty() || name.front() == ':' || name.back() == ':') return std::nullopt;
    c.kind = CrashScenario::Kind::kAtPoint;
    c.point = std::string(name);
    c.occurrence = occurrence;
    return c;
  }
  if (head == "fuzz") {
    c.kind = CrashScenario::Kind::kFuzz;
    if (colon != std::string_view::npos) {
      const auto s = parse_u64(arg);
      if (!s) return std::nullopt;
      c.seed = *s;
    }
    return c;
  }
  if (head == "flip") {
    // flip:SEED[:BITS] — the seed is mandatory (site, tick and every flipped
    // bit position all derive from it; there is no meaningful default).
    if (colon == std::string_view::npos || arg.empty()) return std::nullopt;
    std::string_view seed_part = arg;
    std::string_view bits_part;
    const auto c2 = arg.find(':');
    if (c2 != std::string_view::npos) {
      seed_part = arg.substr(0, c2);
      bits_part = arg.substr(c2 + 1);
      if (bits_part.find(':') != std::string_view::npos) return std::nullopt;
    }
    const auto s = parse_u64(seed_part);
    if (!s) return std::nullopt;
    c.kind = CrashScenario::Kind::kFlip;
    c.seed = *s;
    if (c2 != std::string_view::npos) {
      const auto b = parse_u64(bits_part);
      if (!b || *b == 0) return std::nullopt;
      c.bits = *b;
    }
    return c;
  }
  return std::nullopt;
}

std::string crash_link_name(const CrashScenario& crash) {
  switch (crash.kind) {
    case CrashScenario::Kind::kNone: return "none";
    case CrashScenario::Kind::kAtStep: return "step:" + std::to_string(crash.step);
    case CrashScenario::Kind::kRandom: return "random:" + std::to_string(crash.seed);
    case CrashScenario::Kind::kRepeated: return "repeat:" + std::to_string(crash.count);
    case CrashScenario::Kind::kAtAccess: return "access:" + std::to_string(crash.access);
    case CrashScenario::Kind::kAtPoint: {
      // Built up incrementally: the `"literal" + str + (cond ? ...)` spelling
      // trips GCC 12's -Wrestrict false positive (PR 105651).
      std::string out = "point:";
      out += crash.point;
      if (crash.occurrence != 1) {
        out += ':';
        out += std::to_string(crash.occurrence);
      }
      return out;
    }
    case CrashScenario::Kind::kFuzz: return "fuzz:" + std::to_string(crash.seed);
    case CrashScenario::Kind::kFlip: {
      std::string out = "flip:";
      out += std::to_string(crash.seed);
      if (crash.bits != 1) {
        out += ':';
        out += std::to_string(crash.bits);
      }
      return out;
    }
  }
  ADCC_CHECK(false, "unknown crash kind");
}

}  // namespace

std::string crash_name(const CrashScenario& crash) {
  std::string out;
  switch (crash.scope) {
    case CrashScenario::Scope::kProcess:
      break;
    case CrashScenario::Scope::kShard:
      out += "shard:";
      out += std::to_string(crash.shard);
      out += ':';
      break;
    case CrashScenario::Scope::kShardSet:
      out += "shards:";
      out += std::to_string(crash.victims);
      out += ':';
      out += std::to_string(crash.victim_seed);
      out += ':';
      break;
    case CrashScenario::Scope::kCoordinator:
      out += "coord:";
      break;
  }
  out += crash_link_name(crash);
  for (const CrashScenario& link : crash.then) {
    out += '^';
    out += crash_link_name(link);
  }
  return out;
}

bool crash_is_mid_unit(const CrashScenario& crash) {
  return crash.kind == CrashScenario::Kind::kAtAccess ||
         crash.kind == CrashScenario::Kind::kAtPoint ||
         crash.kind == CrashScenario::Kind::kFuzz ||
         crash.kind == CrashScenario::Kind::kFlip;
}

std::vector<std::size_t> crash_units(const CrashScenario& crash, std::size_t work_units) {
  std::vector<std::size_t> out;
  if (work_units == 0 || crash_is_mid_unit(crash)) return out;
  switch (crash.kind) {
    case CrashScenario::Kind::kNone:
      break;
    case CrashScenario::Kind::kAtStep:
      out.push_back(std::clamp<std::size_t>(crash.step, 1, work_units));
      break;
    case CrashScenario::Kind::kRandom:
      out.push_back(static_cast<std::size_t>(splitmix64(crash.seed) % work_units) + 1);
      break;
    case CrashScenario::Kind::kRepeated: {
      // Evenly spaced boundaries, strictly increasing (tiny runs may yield
      // fewer crashes than requested).
      for (std::size_t i = 1; i <= crash.count; ++i) {
        const std::size_t unit =
            std::max<std::size_t>(1, work_units * i / (crash.count + 1));
        if (out.empty() || unit > out.back()) out.push_back(unit);
      }
      break;
    }
    default:
      break;
  }
  return out;
}

std::vector<std::size_t> crash_victims(const CrashScenario& crash, std::size_t shard_count) {
  std::vector<std::size_t> out;
  if (shard_count == 0) return out;
  if (crash.scope == CrashScenario::Scope::kShard) {
    out.push_back(std::min(crash.shard, shard_count - 1));
    return out;
  }
  if (crash.scope != CrashScenario::Scope::kShardSet) return out;
  // Seeded Fisher-Yates prefix: deterministic in (SEED, N), so the same deck
  // cell kills the same victim set on every repetition and every sweep job.
  const std::size_t k = std::min(crash.victims, shard_count);
  std::vector<std::size_t> idx(shard_count);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::uint64_t s = crash.victim_seed;
  for (std::size_t i = 0; i < k; ++i) {
    s = splitmix64(s);
    const std::size_t j = i + static_cast<std::size_t>(s % (shard_count - i));
    std::swap(idx[i], idx[j]);
  }
  out.assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(out.begin(), out.end());
  return out;
}

CrashScope resolve_crash_scope(const CrashScenario& crash, std::size_t shard_count) {
  CrashScope scope;
  if (shard_count <= 1) return scope;  // Unsharded: every scope is a process death.
  switch (crash.scope) {
    case CrashScenario::Scope::kProcess:
      break;
    case CrashScenario::Scope::kShard:
    case CrashScenario::Scope::kShardSet:
      scope.kind = CrashScope::Kind::kShards;
      scope.victims = crash_victims(crash, shard_count);
      break;
    case CrashScenario::Scope::kCoordinator:
      scope.kind = CrashScope::Kind::kCoordinator;
      break;
  }
  return scope;
}

ScenarioRunner::ScenarioRunner(Workload& workload, ScenarioConfig cfg)
    : workload_(workload), cfg_(std::move(cfg)) {
  ADCC_CHECK(cfg_.reps >= 1, "need at least one repetition");
  for (const CrashScenario& link : cfg_.crash.then) {
    ADCC_CHECK(link.kind == CrashScenario::Kind::kAtAccess ||
                   link.kind == CrashScenario::Kind::kAtPoint,
               "double-fault chain links must be access/point plans");
    ADCC_CHECK(link.then.empty(), "double-fault chains do not nest");
  }
}

ScenarioRunner::~ScenarioRunner() = default;

void ScenarioRunner::ensure_env() {
  const bool crashing = cfg_.crash.kind != CrashScenario::Kind::kNone;
  if (env_ && !crashing) {
    // Crash-free repetitions reuse one substrate; rewinding the arena avoids
    // paying its zero-fill again (the fig benches' region->reset() idiom).
    if (env_->region) env_->region->reset();
    return;
  }
  // Crash repetitions rebuild the substrate so stale checkpoints / undo logs
  // from the previous repetition cannot be restored by mistake. Destroy the
  // old env first: a FileBackend removes its slot files and (then-empty)
  // scratch directory in its destructor, which would delete the replacement
  // backend's freshly created directory out from under it.
  env_.reset();
  env_ = std::make_unique<ModeEnv>(make_env(cfg_.mode, cfg_.env));
}

std::uint64_t pick_fuzz_access(std::span<const std::uint64_t> boundaries,
                               std::uint64_t seed) {
  ADCC_CHECK(boundaries.size() >= 2, "fuzz crash plan needs at least one work unit");
  ADCC_CHECK(boundaries.back() > boundaries.front(),
             "fuzz crash plan needs a fault surface that announces accesses");
  const std::size_t units = boundaries.size() - 1;
  const std::size_t u = static_cast<std::size_t>(splitmix64(seed) % units);  // 0-based.
  const std::uint64_t lo = boundaries[u];
  const std::uint64_t hi = boundaries[u + 1];
  // Land in (lo, hi]; a unit announcing nothing degenerates to the first
  // access of the next announcing unit.
  const std::uint64_t span = hi > lo ? hi - lo : 1;
  return lo + 1 + splitmix64(seed ^ 0x9E3779B97F4A7C15ULL) % span;
}

std::vector<std::uint64_t> probe_fuzz_boundaries(Workload& workload, Mode mode,
                                                 const ModeEnvConfig& env_cfg) {
  ModeEnv env = make_env(mode, env_cfg);
  workload.prepare(env);
  FaultSurface* fault = workload.fault();
  ADCC_CHECK(fault != nullptr, "fuzz probes need a workload with a fault surface");
  std::vector<std::uint64_t> at_boundary;
  at_boundary.push_back(fault->access_count());
  while (workload.run_step()) {
    workload.make_durable();
    at_boundary.push_back(fault->access_count());
  }
  return at_boundary;
}

void ScenarioRunner::arm_fault(FaultSurface& fault) {
  switch (cfg_.crash.kind) {
    case CrashScenario::Kind::kAtAccess:
      fault.arm_at_access(cfg_.crash.access);
      break;
    case CrashScenario::Kind::kAtPoint:
      fault.arm_at_point(cfg_.crash.point, cfg_.crash.occurrence);
      break;
    case CrashScenario::Kind::kFuzz:
      ADCC_CHECK(fuzz_access_ > 0, "fuzz plan not probed");
      fault.arm_at_access(fuzz_access_);
      break;
    case CrashScenario::Kind::kFlip:
      // Same seeded fuzz-style tick; the flip fires silently at a corrupt()
      // site once the access threshold is reached.
      ADCC_CHECK(fuzz_access_ > 0, "flip plan not probed");
      fault.arm_flip(fuzz_access_, cfg_.crash.seed, cfg_.crash.bits);
      break;
    default:
      break;
  }
}

WorkloadRecovery ScenarioRunner::recover_with_chain(ScenarioResult& result,
                                                    std::size_t& chain_pos) {
  // Crash-during-recovery double faults: arm the next chain link before each
  // recovery attempt; when it fires inside recover(), account the crash,
  // re-inject, and retry (with the following link, if any).
  FaultSurface* fault = workload_.fault();
  for (;;) {
    const bool armed_tail = fault != nullptr && chain_pos < cfg_.crash.then.size();
    if (armed_tail) {
      const CrashScenario& link = cfg_.crash.then[chain_pos];
      if (link.kind == CrashScenario::Kind::kAtAccess) {
        // Relative: N more announced accesses into this recovery.
        fault->arm_at_access(fault->access_count() + link.access);
      } else {
        fault->arm_at_point(link.point, link.occurrence);
      }
    }
    try {
      WorkloadRecovery rec = workload_.recover();
      // A link whose trigger is not on this mode's recovery path never fires;
      // disarm it so it cannot leak into the resumed execution.
      if (armed_tail && fault->armed()) fault->disarm();
      return rec;
    } catch (const memsim::CrashException& e) {
      ++chain_pos;
      ++result.crashes;
      result.crash_access = e.access_count();
      result.crash_site = e.point();
      workload_.inject_crash();
    }
  }
}

double ScenarioRunner::run_once(ScenarioResult& result) {
  // Bind telemetry and the kernel backend for this repetition (RAII, restores
  // on every exit path); engine threads propagate the bindings themselves.
  // Verify runs after run_once returns — outside the bind — so reference
  // recomputation is always serial.
  const TelemetryBind telemetry_bind(cfg_.telemetry, cfg_.telemetry_label);
  const KernelBackendBind backend_bind(cfg_.backend);
  const bool seeded_tick = cfg_.crash.kind == CrashScenario::Kind::kFuzz ||
                           cfg_.crash.kind == CrashScenario::Kind::kFlip;
  if (seeded_tick && fuzz_access_ == 0) {
    // The seeded access is a pure function of (seed, workload, mode): a sweep
    // deck hands in the unit boundaries it measured once for this cell shape;
    // otherwise an untimed probe run on its own substrate measures them.
    if (cfg_.fuzz_boundaries && cfg_.fuzz_boundaries->size() >= 2) {
      fuzz_access_ = pick_fuzz_access(*cfg_.fuzz_boundaries, cfg_.crash.seed);
    } else {
      fuzz_access_ = pick_fuzz_access(probe_fuzz_boundaries(workload_, cfg_.mode, cfg_.env),
                                      cfg_.crash.seed);
    }
  }
  ensure_env();
  workload_.prepare(*env_);

  const bool mid_unit = crash_is_mid_unit(cfg_.crash);
  FaultSurface* fault = workload_.fault();
  if (mid_unit || !cfg_.crash.then.empty()) {
    ADCC_CHECK(fault != nullptr,
               "mid-unit crash plans (access/point/fuzz/flip) and double-fault chains "
               "need a workload with a fault surface");
  }
  if (mid_unit) arm_fault(*fault);

  // Shard-scoped plans resolve against the prepared group's shard count; the
  // scope holds for every crash of this run (chain links re-kill it too).
  workload_.set_crash_scope(resolve_crash_scope(cfg_.crash, workload_.shard_count()));

  const std::size_t units = workload_.work_units();
  const std::vector<std::size_t> targets = crash_units(cfg_.crash, units);
  std::size_t next_target = 0;

  result.work_units = units;
  result.crashes = 0;
  result.crash_unit = 0;
  result.restart_unit = 0;
  result.crash_access = 0;
  result.crash_site.clear();
  result.recomputation = {};

  double first_crash_elapsed = 0.0;
  std::size_t first_crash_unit = 0;
  std::size_t chain_pos = 0;  // Double-fault chain links fired so far.

  // Silent-flip accounting: the flip fires without raising, so the runner
  // polls FlipStats each iteration to notice the injection, remember its unit
  // (the latency baseline), and arm the first ^TAIL link relative to the
  // injection rather than to a recovery that may never happen.
  const bool flip_plan = cfg_.crash.kind == CrashScenario::Kind::kFlip;
  std::uint64_t flips_seen = 0;
  std::uint64_t detects_seen = 0;
  std::size_t flip_inject_unit = 0;

  // Reset just before the timed region: fuzz probes and prepare() above must
  // not pollute the totals, and after the last repetition the registry holds
  // exactly that rep's stage breakdown (what the sweep columns report).
  if (cfg_.telemetry != nullptr) cfg_.telemetry->reset();
  Timer total;
  for (;;) {
    const std::size_t before = workload_.units_done();
    bool crashed_mid = false;
    bool stepped = false;
    bool finished = false;
    bool detected_by_throw = false;
    std::size_t throw_detect_unit = 0;
    try {
      // A unit starting while an asynchronous checkpoint drain is still in
      // flight overlaps the device window with compute — the async engine's
      // whole win; account its execution time separately.
      const bool overlapped = workload_.durability_pending();
      Timer step;
      stepped = workload_.run_step();
      if (overlapped) result.recomputation.overlap_seconds += step.elapsed();
      // The durability action shares the fault surface since the chunk engine
      // (point:ckpt_chunk fires between chunk persists inside save; an async
      // drain's ckpt_drain crash surfaces at the join the next save performs),
      // so it can raise the same CrashException — a crash mid-checkpoint,
      // leaving the slot torn and the marker uncommitted.
      if (stepped) {
        workload_.make_durable();
      } else {
        // The run may not end with progress still draining: join the final
        // async save inside the timed region (a crash in that drain surfaces
        // here and is handled like any crash-mid-checkpoint).
        finished = true;
        workload_.wait_durable();
      }
    } catch (const memsim::CrashException& e) {
      // A FaultSurface / MemorySimulator trigger fired inside the unit. The
      // surface is one-shot, so recovery's re-execution cannot re-fire it.
      crashed_mid = true;
      result.crash_access = e.access_count();
      result.crash_site = e.point();
    } catch (const SilentFaultDetected& e) {
      // A workload checksum/invariant caught an injected flip it could not
      // repair in place: detected-and-rolled-back. The runner drives the same
      // inject/recover/resume path as a fail-stop crash, and the exception
      // carries the detection unit for the latency accounting below.
      crashed_mid = true;
      detected_by_throw = true;
      throw_detect_unit = e.detect_unit();
      result.crash_access = e.access_count();
      result.crash_site = e.check();
    }

    if (flip_plan && fault != nullptr) {
      const FlipStats fs = fault->flip_stats();
      if (fs.flips > flips_seen) {
        flips_seen = fs.flips;
        result.recomputation.flips = fs.flips;
        // The flip landed inside the unit this iteration executed (or its
        // durability action) — unit `before + 1` either way.
        flip_inject_unit = before + 1;
        // flip^TAIL composition: the tail is a crash during the post-flip
        // execution, armed the moment the flip lands. chain_pos advances so a
        // later detection rollback does not re-arm the same link.
        if (chain_pos == 0 && !cfg_.crash.then.empty()) {
          const CrashScenario& link = cfg_.crash.then[0];
          if (link.kind == CrashScenario::Kind::kAtAccess) {
            fault->arm_at_access(fault->access_count() + link.access);
          } else {
            fault->arm_at_point(link.point, link.occurrence);
          }
          chain_pos = 1;
        }
      }
      if (detected_by_throw) {
        ++result.recomputation.flips_detected;
        result.recomputation.detect_latency_units =
            throw_detect_unit > flip_inject_unit ? throw_detect_unit - flip_inject_unit
                                                 : 0;
      } else if (fs.detected > detects_seen) {
        // Corrected-in-place detections (ABFT repair) never throw; they show
        // up in the polled stats with the run still on its happy path.
        detects_seen = fs.detected;
        result.recomputation.flips_detected = fs.detected;
        result.recomputation.flips_corrected = fs.corrected;
        const std::size_t now_unit = workload_.units_done();
        result.recomputation.detect_latency_units =
            now_unit > flip_inject_unit ? now_unit - flip_inject_unit : 0;
      }
    }

    std::size_t crash_unit = 0;
    bool partial = false;
    if (crashed_mid) {
      crash_unit = workload_.units_done();
      // End-of-unit crash points may fire after the workload advanced its
      // cursor; only a crash before the advance interrupted a unit mid-flight
      // (a crash inside make_durable interrupted the *save*, not the unit —
      // and a crash in the final wait_durable interrupted a *drain*, with the
      // cursor legitimately unchanged).
      partial = !finished && workload_.units_done() == before;
    } else {
      if (!stepped) break;
      if (next_target >= targets.size() ||
          workload_.units_done() < targets[next_target]) {
        continue;
      }
      ++next_target;
      crash_unit = workload_.units_done();
    }

    if (result.crashes == 0) {
      first_crash_elapsed = total.elapsed();
      first_crash_unit = crash_unit;
    }
    if (cfg_.telemetry != nullptr) cfg_.telemetry->instant("crash");
    workload_.inject_crash();

    Timer detect;
    const WorkloadRecovery rec = recover_with_chain(result, chain_pos);
    const double recover_seconds = detect.elapsed();
    if (cfg_.telemetry != nullptr) cfg_.telemetry->instant("recovered");
    // Checksum-classifying recoveries recompute/repair units inside recover();
    // that work is resume time, not detection time (the fig3/fig7 split).
    result.recomputation.detect_seconds +=
        std::max(0.0, recover_seconds - rec.repair_seconds);
    result.recomputation.resume_seconds += std::min(rec.repair_seconds, recover_seconds);
    ADCC_CHECK(rec.restart_unit >= 1 && rec.restart_unit <= crash_unit + 1,
               "workload recovery restarted outside [1, crash_unit + 1]");
    ADCC_CHECK(rec.units_lost >= crash_unit + 1 - rec.restart_unit,
               "workload recovery units_lost below the restart gap");
    ADCC_CHECK(workload_.units_done() + 1 == rec.restart_unit,
               "workload cursor does not match reported restart_unit");

    // Resume: re-execute the destroyed units (targets are strictly increasing,
    // so no boundary target re-fires below crash_unit). A mid-unit crash also
    // re-executes the interrupted unit — the paper counts it as lost work.
    // While a fail-stop trigger is still armed (a flip^TAIL link armed at
    // injection, with the flip's detection rolling back before the tail
    // fired), bail to the outer loop instead: its try/catch owns crash
    // handling, and this bare loop must never have one fire inside it.
    const std::size_t resume_to = crash_unit + (partial ? 1 : 0);
    Timer resume;
    while (workload_.units_done() < resume_to && !(fault != nullptr && fault->armed()) &&
           workload_.run_step()) {
      workload_.make_durable();
    }
    result.recomputation.resume_seconds += resume.elapsed();
    result.recomputation.units_lost += rec.units_lost;
    result.recomputation.units_corrected += rec.units_corrected;
    result.recomputation.torn_chunks += rec.torn_chunks;
    result.recomputation.salvaged_chunks += rec.salvaged_chunks;
    result.recomputation.shards_restored += rec.shards_restored;
    result.recomputation.epochs_rolled_back += rec.epochs_rolled_back;
    result.recomputation.units_replayed += rec.units_replayed;
    result.recomputation.halo_bytes += rec.halo_bytes;
    if (partial) ++result.recomputation.partial_units;
    ++result.crashes;
    result.crash_unit = crash_unit;
    result.restart_unit = rec.restart_unit;
  }
  const double elapsed = total.elapsed();
  if (first_crash_unit > 0) {
    result.recomputation.unit_seconds =
        first_crash_elapsed / static_cast<double>(first_crash_unit);
  }
  ADCC_CHECK(workload_.units_done() == units, "run finished short of work_units");
  return elapsed;
}

ScenarioResult ScenarioRunner::run() {
  ScenarioResult result;
  result.mode = cfg_.mode;
  result.crash = cfg_.crash;
  if (cfg_.warmup) {
    ScenarioResult discard = result;
    run_once(discard);
  }
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(cfg_.reps));
  for (int r = 0; r < cfg_.reps; ++r) times.push_back(run_once(result));
  result.seconds = median(std::move(times));
  result.time = normalize(result.seconds, cfg_.native_seconds);
  if (cfg_.verify) {
    result.verify_ran = true;
    result.verified = workload_.verify();
    // An in-place "correction" that still fails end-of-run verify repaired the
    // wrong thing: the ABFT literature's miscorrection, accounted honestly.
    if (!result.verified) {
      result.recomputation.flips_miscorrected = result.recomputation.flips_corrected;
    }
  }
  return result;
}

ScenarioResult run_scenario(Workload& workload, const ScenarioConfig& cfg) {
  return ScenarioRunner(workload, cfg).run();
}

}  // namespace adcc::core

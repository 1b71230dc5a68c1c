// CrashScenario + ScenarioRunner — the declarative composition layer.
//
// A scenario is (workload, mode, crash plan, repetitions). The runner owns the
// driver loop every bench binary used to hand-roll: build the mode substrate
// (untimed), prepare the workload, execute work units with their per-unit
// durability action, fire crashes at the planned unit boundaries — or arm the
// workload's FaultSurface so the crash lands *inside* a unit — time the
// recovery (detect) and re-execution (resume) phases separately, and fold the
// measurements into the existing NormalizedTime / RecomputationBreakdown
// reporting structures.
//
// Crash plans (CLI spellings accepted by parse_crash):
//   none            — no crash
//   step:K          — one crash after work unit K completes (clamped to the run)
//   random[:SEED]   — one crash at a seed-chosen unit boundary
//   repeat:N        — N crashes at evenly spaced unit boundaries
//   access:N        — mid-unit: crash on the N-th announced memory access
//   point:NAME[:K]  — mid-unit: crash at the K-th hit of crash point NAME
//                     (NAME may itself contain ':', e.g. point:cg:p_updated:15)
//   fuzz:SEED       — mid-unit: a seeded random access inside a seeded random
//                     unit (an untimed probe repetition measures the per-unit
//                     access boundaries first; the plan is deterministic in
//                     SEED, problem and mode)
//   flip:SEED[:BITS]— mid-unit *silent* fault: at a fuzz-style seeded access,
//                     XOR-flip BITS seeded bit positions inside the workload's
//                     tracked state (FaultSurface::corrupt sites) WITHOUT
//                     raising — execution continues, and detection must come
//                     from the workload's checksums/invariants (or end-of-run
//                     verify() reports the miss honestly). BITS defaults to 1.
//   PLAN^TAIL^...   — double faults: after each crash of PLAN, the next TAIL
//                     (access:N — N accesses into recovery — or point:NAME[:K])
//                     is armed *before* recover() runs, so it lands inside the
//                     recovery itself (crash-during-recovery). A tail that
//                     never fires (its point is not on this mode's recovery
//                     path) is disarmed when recovery completes.
//
// Shard-scoped plans (multi-shard groups, core::ShardGroup) prefix any plan
// above — the prefix selects WHAT the crash destroys, the plan still selects
// WHEN it fires, and the scope covers the whole chain (tails re-kill it):
//   shard:I:PLAN        — kill only shard I; survivors keep computing state
//   shards:K:SEED:PLAN  — kill a seeded random k-of-N victim set
//   coord:PLAN          — kill the coordinator (typically mid-global-commit:
//                         coord:point:shard_join:2, coord:point:global_commit,
//                         coord:point:coord_commit); the whole group dies and
//                         rolls back to the last fully committed global epoch
// On unsharded workloads every scope degenerates to a whole-process crash.
//
// Mid-unit plans require Workload::fault() != nullptr; the runner catches the
// memsim::CrashException raised out of run_step, accounts the interrupted unit
// as a partial unit in RecomputationBreakdown, and drives inject_crash /
// recover / re-execution exactly as for boundary crashes. Since the chunked
// durability engine, the same exception can surface out of make_durable()
// (crash points inside checkpoint save, point:ckpt_chunk[:K]) and out of
// recover() (points inside checkpoint load, point:ckpt_restore[:K]) — the
// runner accounts the former as a crash after the completed unit with a torn
// in-flight checkpoint, and retries recovery for the latter.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/harness.hpp"
#include "core/modes.hpp"
#include "core/workload.hpp"

namespace adcc::core {

class KernelBackend;
class Telemetry;

/// A parsed crash plan: when (and how often) the emulated power failure
/// fires, plus the optional double-fault chain armed inside recovery.
struct CrashScenario {
  enum class Kind { kNone, kAtStep, kRandom, kRepeated, kAtAccess, kAtPoint, kFuzz, kFlip };
  Kind kind = Kind::kNone;
  std::size_t step = 0;        ///< kAtStep: crash after this many completed units.
  std::uint64_t seed = 1;      ///< kRandom / kFuzz / kFlip: picks the fault site.
  std::size_t count = 1;       ///< kRepeated: number of crashes.
  std::uint64_t access = 0;    ///< kAtAccess: the triggering access count.
  std::string point;           ///< kAtPoint: crash-point name.
  std::uint64_t occurrence = 1;///< kAtPoint: 1-based hit of `point`.
  std::uint64_t bits = 1;      ///< kFlip: bit positions XOR-flipped per event.
  /// Double-fault chain ('^' links): after the i-th crash of this plan, then[i]
  /// is armed before recover() so it fires *inside* the recovery. Links must be
  /// kAtAccess (relative to the recovery's start) or kAtPoint, with empty then.
  std::vector<CrashScenario> then;

  /// What the crash destroys (shard:/shards:/coord: prefixes). Applies to the
  /// head and every chain link; links carry kProcess themselves and inherit
  /// the head's scope through the runner's per-run resolution.
  enum class Scope { kProcess, kShard, kShardSet, kCoordinator };
  Scope scope = Scope::kProcess;
  std::size_t shard = 0;          ///< kShard: the victim index.
  std::size_t victims = 1;        ///< kShardSet: victim count k.
  std::uint64_t victim_seed = 1;  ///< kShardSet: seeds the victim draw.
};

/// Parses the CLI spelling; nullopt on malformed input.
std::optional<CrashScenario> parse_crash(std::string_view spec);

/// parse_crash, but throwing: raises std::invalid_argument naming the
/// offending spec on malformed input. The eager-validation entry point for
/// callers that must never silently accept a bad plan (sweep axes, fuzzers).
CrashScenario parse_crash_or_throw(std::string_view spec);

/// Canonical spelling, round-tripping through parse_crash.
std::string crash_name(const CrashScenario& crash);

/// True for the plans that fire inside a work unit through a FaultSurface
/// (access / point / fuzz) rather than at a boundary the runner controls.
bool crash_is_mid_unit(const CrashScenario& crash);

/// The unit boundaries (completed-unit counts, 1-based) at which `crash` fires
/// for a run of `work_units` units, in firing order. Empty for kNone and for
/// every mid-unit plan (those arm the FaultSurface instead).
std::vector<std::size_t> crash_units(const CrashScenario& crash, std::size_t work_units);

/// The victim shard set of a shard-scoped plan, resolved against the group
/// size: shard:I clamps I into [0, N); shards:K:SEED draws min(K, N) distinct
/// indices with a splitmix64-seeded shuffle (deterministic in SEED and N),
/// returned sorted. Empty for process/coordinator scopes.
std::vector<std::size_t> crash_victims(const CrashScenario& crash, std::size_t shard_count);

/// Resolves the plan's scope prefix against the prepared workload's shard
/// count into the CrashScope handed to Workload::set_crash_scope. Unsharded
/// runs (shard_count <= 1) always degenerate to a whole-process crash.
CrashScope resolve_crash_scope(const CrashScenario& crash, std::size_t shard_count);

/// Everything one scenario execution needs besides the workload: mode, crash
/// plan, substrate sizing, repetition policy and the optional shared fuzz probe.
struct ScenarioConfig {
  Mode mode = Mode::kNative;
  CrashScenario crash;
  ModeEnvConfig env;           ///< Substrate sizing (workload-tuned by callers).
  int reps = 1;                ///< Timed repetitions; seconds is their median.
  bool warmup = false;         ///< One discarded repetition first.
  double native_seconds = 0.0; ///< Baseline for NormalizedTime (0 = none).
  bool verify = false;         ///< Run Workload::verify after the last rep.
  /// Pre-measured fuzz probe (cumulative access counts at every unit boundary,
  /// leading 0 included). When set, fuzz plans skip their own untimed probe
  /// repetition — sweep decks share one probe across every fuzz seed of the
  /// same cell shape (see probe_fuzz_boundaries).
  std::shared_ptr<const std::vector<std::uint64_t>> fuzz_boundaries;
  /// Stage-timer registry bound (per thread, RAII) around every timed
  /// repetition; null leaves every StageTimer on its no-op path. The runner
  /// resets it before each rep so the totals describe the last one.
  Telemetry* telemetry = nullptr;
  std::string telemetry_label;  ///< Trace-track label ("cellN" in sweeps).
  /// Kernel backend bound (per thread, RAII) around every repetition; null =
  /// the serial default. Verify passes run outside the bind and always
  /// recompute serially, which is what makes serial-vs-omp equivalence checks
  /// meaningful.
  const KernelBackend* backend = nullptr;
};

/// One scenario's aggregated measurement: median wall time, normalization,
/// and the last repetition's crash/recovery accounting.
struct ScenarioResult {
  Mode mode = Mode::kNative;
  CrashScenario crash;
  double seconds = 0.0;     ///< Median wall time of one full run (incl. recovery).
  NormalizedTime time;      ///< vs cfg.native_seconds when provided.
  /// Last repetition's recovery accounting (all-zero for crash-free runs):
  /// detect = recover() time, resume = re-execution of lost units (plus any
  /// recover()-internal repair work), unit = mean pre-crash unit time,
  /// units_lost/partial_units summed over all crashes.
  RecomputationBreakdown recomputation;
  std::size_t work_units = 0;
  std::size_t crashes = 0;       ///< Crashes fired in the last repetition.
  std::size_t crash_unit = 0;    ///< Last crash: completed units when it hit.
  std::size_t restart_unit = 0;  ///< Last crash: first re-executed unit.
  std::uint64_t crash_access = 0;///< Last mid-unit crash: firing access count.
  std::string crash_site;        ///< Last mid-unit crash: firing point name.
  bool verify_ran = false;
  bool verified = false;
};

/// The one driver loop every bench shares: prepare, step/make_durable, fire
/// crashes (boundary, mid-unit, mid-checkpoint, mid-drain, mid-recovery),
/// time detect/resume, join async drains, and aggregate repetitions.
class ScenarioRunner {
 public:
  /// The workload must outlive the runner. Its problem instance is fixed;
  /// prepare() re-initializes run state each repetition.
  ScenarioRunner(Workload& workload, ScenarioConfig cfg);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Executes cfg.reps repetitions (plus warmup) and aggregates. May be called
  /// again for more repetitions (fig13-style interleaved baselines).
  ScenarioResult run();

 private:
  double run_once(ScenarioResult& result);
  void ensure_env();
  void arm_fault(FaultSurface& fault);
  WorkloadRecovery recover_with_chain(ScenarioResult& result, std::size_t& chain_pos);

  Workload& workload_;
  ScenarioConfig cfg_;
  std::unique_ptr<ModeEnv> env_;
  std::uint64_t fuzz_access_ = 0;  ///< Cached fuzz probe result (0 = not probed).
};

/// Convenience: run a scenario over `workload` with `cfg` once-off.
ScenarioResult run_scenario(Workload& workload, const ScenarioConfig& cfg);

/// One untimed crash-free run of `workload` under `mode`, recording the
/// cumulative announced-access count at every unit boundary (index 0 = before
/// unit 1) — the fuzz plan's probe, shareable across every fuzz seed of the
/// same (workload shape, mode): access announcements are deterministic, so
/// the boundaries are too. Requires workload.fault() != nullptr.
std::vector<std::uint64_t> probe_fuzz_boundaries(Workload& workload, Mode mode,
                                                 const ModeEnvConfig& env_cfg);

/// The access fuzz:SEED fires on, given probe boundaries: a seeded random
/// access inside a seeded random unit.
std::uint64_t pick_fuzz_access(std::span<const std::uint64_t> boundaries,
                               std::uint64_t seed);

}  // namespace adcc::core

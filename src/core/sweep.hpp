// SweepSpec + the batched scenario-matrix engine — the paper's evaluation grid
// (workload × mode × cache size / rank / flush frequency / problem size /
// threads / crash plan) as one declarative spec executed in one process.
//
// Grammar (adccbench --sweep=SPEC): comma-separated axes, each `key=values`.
// Values are '+'-separated tokens; numeric tokens may be ranges:
//
//   mode=all,threads=1:8,n=1000+4000,cache_mb=4:64:x2
//
//   v            one literal value (sizes accept K/M/G/T suffixes: n=1M)
//   a+b+c        list
//   lo:hi        inclusive range, step 1          threads=1:8
//   lo:hi:STEP   inclusive range, additive step   n=1000:5000:1000
//   lo:hi:xF     geometric range, factor F ≥ 2    cache_mb=4:64:x2
//
// Six axes are string-valued and never range-expanded: `workload` (registry
// names; `all` = every registered workload), `mode` (mode names or `all` = the
// paper's seven), `crash` (any parse_crash plan — plans contain ':' freely),
// `policy` (the mc alg-* flush policy: basic | selective), `backend`
// (kernel-backend registry names, validated eagerly — `omp` in a build
// without -DADCC_OPENMP=ON is a parse error), and `ckpt_compress` (codec
// specs; `lz:2` would otherwise parse as a numeric range). Every other key
// is a generic per-cell option override handed to the workload factory (n, nz,
// iters, rank, lookups, interval, nuclides, gridpoints, cache_mb, threads,
// reps, seed, ...), so any knob a workload reads from Options is
// sweepable without engine changes. `backend`/`threads` select the compute
// kernels per cell (docs/BACKENDS.md); native baselines always run serially,
// so every backend/thread cell of a shape shares one baseline.
//
// The deck is the cross product of all axes, expanded in spec order with the
// first axis slowest-varying. run_sweep executes every cell through
// ScenarioRunner — serially or on `jobs` worker threads, each cell with its
// own workload instance and an isolated FileBackend scratch subdirectory —
// captures per-cell failures (one crashed cell reports ERROR in its row
// instead of killing the deck), memoizes native baselines across cells that
// share a problem shape, and aggregates everything into one core::Table.
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/options.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

namespace adcc::core {

class TraceSink;

/// The axes whose values are names, not numbers: never range-expanded, and
/// validated eagerly by make_axis. The crash axis may contain ':' freely
/// (point:cg:p_updated:15); ckpt_compress is here because "lz:2" would
/// otherwise parse as a numeric range.
inline constexpr std::string_view kStringAxes[] = {"workload", "mode",    "crash",
                                                   "policy",   "backend", "ckpt_compress"};

/// One expanded sweep dimension: an option key and the literal values the
/// deck's cross product iterates over it.
struct SweepAxis {
  std::string key;                  ///< Option key ("mode", "n", "ckpt_async", ...).
  std::vector<std::string> values;  ///< Expanded, in declaration order.
};

/// Expands one axis value spec ("all", "1:8", "4:64:x2", "a+b") into a
/// SweepAxis, validating workload/mode/crash names eagerly. nullopt on bad
/// grammar, with a human-readable message in *error when provided.
std::optional<SweepAxis> make_axis(std::string_view key, std::string_view values,
                                   std::string* error = nullptr);

/// A parsed --sweep grammar: the ordered axes whose cross product is the
/// deck. Axis order is row-emission order (first axis slowest-varying).
struct SweepSpec {
  std::vector<SweepAxis> axes;  ///< Declaration order; cells() is their product.

  std::size_t cells() const;  ///< Cross-product size (1 for an empty spec).
  const SweepAxis* find(std::string_view key) const;

  /// Cell `index`'s axis assignment, in axis order; the first axis is the
  /// slowest-varying (nested-loop order), so deck order is deterministic.
  std::vector<std::pair<std::string, std::string>> assignment(std::size_t index) const;

  /// Round-trip spelling ("workload=cg,mode=native+alg-nvm,n=1000+4000").
  std::string canonical() const;
};

/// Parses the full --sweep grammar; nullopt on malformed input with a message
/// in *error. Rejects duplicate axes and decks over the expansion caps.
std::optional<SweepSpec> parse_sweep(std::string_view spec, std::string* error = nullptr);

/// How run_sweep executes a deck: base options, worker count, baseline policy
/// and scratch-dir isolation.
struct SweepConfig {
  Options base;      ///< CLI options every cell starts from (axes overlay it).
  int jobs = 1;      ///< Worker threads executing cells (1 = serial, in-order).
  bool baseline = true;  ///< Time a native run per problem shape and normalize.
  /// Per-cell FileBackend scratch dirs live under this root (empty → a
  /// temp-dir default); cell N uses scratch_root/cellN so parallel cells never
  /// share checkpoint slot files.
  std::filesystem::path scratch_root;
  /// Collect per-cell stage timers (the t_stage..t_kernel columns). Baseline
  /// runs stay unbound either way, so memoized-baseline sharing is unaffected.
  bool telemetry = false;
  /// Optional shared trace sink: every telemetry-bound cell also records
  /// Chrome trace events onto per-cell/per-thread tracks. Implies telemetry.
  std::shared_ptr<TraceSink> trace;
};

/// One deck cell's outcome: its axis assignment, the scenario measurement,
/// and a captured per-cell failure (ERROR rows instead of deck death).
struct SweepCellResult {
  enum class Status { kOk, kVerifyFailed, kError };

  std::size_t index = 0;    ///< Deck position (deterministic, jobs-independent).
  std::vector<std::pair<std::string, std::string>> assignment;  ///< Axis values.
  std::string workload;     ///< Registry name the cell ran.
  std::string mode_label;   ///< Canonical mode name (raw spelling on error).
  std::string crash_label;  ///< Canonical crash plan (raw spelling on error).
  Status status = Status::kOk;
  std::string error;        ///< kError: what the cell threw.
  ScenarioResult result;
  double native_seconds = 0.0;
  /// Stage breakdown of the last timed repetition (seconds), harvested when
  /// SweepConfig::telemetry is on: serialize memcpy, chunk CRC, device
  /// queue+write, async drain wall (overlaps the others by design), and the
  /// summed kernel/* compute stages.
  bool telemetry = false;
  double t_stage = 0.0;
  double t_crc = 0.0;
  double t_comp = 0.0;  ///< Per-chunk compression (ckpt/compress), zero for none.
  double t_io = 0.0;
  double t_drain = 0.0;
  double t_kernel = 0.0;
  /// Per-kernel slices of t_kernel (kernel/spmv, kernel/gemm, kernel/xs); the
  /// remainder is kernel/blas1 and any future stages under the prefix.
  double t_spmv = 0.0;
  double t_gemm = 0.0;
  double t_xs = 0.0;
};

/// A fully executed deck: every cell result in deck order plus the table
/// emitter the CLI and the pinned bench decks render from.
struct SweepResult {
  SweepSpec spec;
  std::vector<SweepCellResult> cells;  ///< Deck order, independent of jobs.

  bool all_ok() const;
  std::size_t count(SweepCellResult::Status s) const;

  /// One row per cell: cell/workload/mode/crash, the non-core axis columns in
  /// spec order, then the scenario measurements. With timing=false every
  /// wall-clock-derived column renders as "-" so serial and parallel decks are
  /// byte-identical (the remaining columns are deterministic).
  Table table(bool timing = true) const;
};

SweepResult run_sweep(const SweepSpec& spec, const SweepConfig& cfg);

}  // namespace adcc::core

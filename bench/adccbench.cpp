// adccbench — the registry-driven scenario driver: any workload x any of the
// seven durability modes x any crash plan x any swept parameter axis, one
// binary, one process.
//
//   adccbench --list
//   adccbench --workload=cg --mode=alg-nvm/dram --crash=step:7
//   adccbench --workload=mm --mode=all --reps=3
//   adccbench --workload=cg --mode=all --crash=fuzz:17     # mid-unit fuzzing
//   adccbench --workload=cg --mode=alg-nvm --cache_mb=8 --crash=point:cg:p_updated:15
//   adccbench --matrix --quick          # full workload x mode cross-product
//   adccbench --sweep=mode=all,n=1000:4000:1000 --quick    # batched deck
//   adccbench --workload=cg --mode=alg-nvm --sweep=cache_mb=1:64:x2 --sweep_jobs=4
//   adccbench --sweep=mode=all,threads=1:4 --format=csv --out=deck.csv
//
// Every run is a sweep deck: the scalar --workload/--mode/--crash flags are
// injected as axes when --sweep doesn't name them (--matrix is shorthand for
// workload=all), so `--workload=cg --mode=all` is the 7-cell deck it reads
// as. Decks execute in one process — optionally on --sweep_jobs worker
// threads with per-cell isolated checkpoint scratch dirs — and one crashed
// cell reports ERROR in its row instead of killing the deck.
//
// Unless --no_baseline is passed, a native run of each distinct problem shape
// is timed once and its cells are normalized against it (the paper's y-axis).
// --no_timing blanks every wall-clock column so serial and parallel decks
// emit byte-identical csv/json.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/check.hpp"
#include "common/options.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "checkpoint/codec.hpp"
#include "core/telemetry.hpp"
#include "kernels/backend.hpp"

namespace {

using namespace adcc;

// Per-process scratch, removed at exit: concurrent invocations (ctest -j runs
// both smoke matrices at once) must not share ckpt-disk slot files.
const std::filesystem::path& scratch_dir() {
  static const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("adccbench." + std::to_string(::getpid()));
  return dir;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opts(argc, argv);
  opts.doc("workload", "workload to run (see --list)", "cg")
      .doc("mode", "durability mode, or 'all' for the paper's seven", "all")
      .doc("crash",
           "crash plan: none | step:K | random[:SEED] | repeat:N | access:N | "
           "point:NAME[:K] | fuzz:SEED | flip:SEED[:BITS] (silent seeded "
           "bit-flip; detection comes from the workload's checksums/invariants "
           "or is reported as an honest miss), chainable with ^ for crash-during-"
           "recovery double faults (e.g. step:2^point:ckpt_restore:1); scope "
           "prefixes shard:I: (kill shard I), shards:K:SEED: (kill a seeded "
           "random k-of-N) and coord: (kill the group coordinator) target the "
           "multi-shard engine (e.g. shard:0:step:2, coord:point:global_commit)",
           "none")
      .doc("sweep",
           "axis grid: key=v1+v2,key=lo:hi[:step|:xF],... (axes: workload, mode, "
           "crash, policy, backend, and any workload option key)")
      .doc("sweep_jobs", "worker threads executing deck cells", "1")
      .doc("matrix", "run every registered workload x every mode", "off")
      .doc("list", "list registered workloads and exit")
      .doc("format", "table output: table | csv | json", "table")
      .doc("out", "also write the table to this file (format from extension)")
      .doc("no_timing", "blank wall-clock columns (byte-stable serial vs parallel)", "off")
      .doc("trace",
           "write a Chrome trace_event JSON timeline of every cell's stage "
           "scopes (one track per cell/drain/pipeline thread, crash/recovery "
           "instants) to this file; open in chrome://tracing or Perfetto")
      .doc("reps", "timed repetitions per scenario (median reported)", "1")
      .doc("warmup", "one discarded repetition first", "off")
      .doc("verify", "check results against references", "on")
      .doc("no_baseline", "skip the native baseline / normalized column", "off")
      .doc("quick", "CI-sized problem defaults", "off")
      .doc("n", "problem size for cg/mm (rows / matrix dim)")
      .doc("nz", "cg: nonzeros per row", "15")
      .doc("iters", "cg: iteration count", "15")
      .doc("rank", "mm: panel rank k")
      .doc("backend",
           "kernel backend per cell: serial | omp (sweepable axis; omp needs a "
           "-DADCC_OPENMP=ON build, see docs/BACKENDS.md)",
           "serial")
      .doc("threads", "kernel threads per cell for --backend=omp (sweepable axis)")
      .doc("lookups", "mc: total lookups (suffixes: K/M/G)")
      .doc("interval", "mc: lookups per durability unit")
      .doc("nuclides", "mc: nuclide count")
      .doc("gridpoints", "mc: gridpoints per nuclide")
      .doc("policy", "mc alg-* flush policy: basic | selective", "selective")
      .doc("cache_mb",
           "alg-* modes: run under the crash emulator with this LLC size, MB "
           "(only flushed or evicted lines survive a crash)",
           "off")
      .doc("seed_a", "mm: seed of matrix A", "seed")
      .doc("seed_b", "mm: seed of matrix B", "seed+1")
      .doc("arena", "NVM arena bytes override (e.g. 64M, 1G)")
      .doc("slot", "checkpoint slot bytes override (e.g. 16M)")
      .doc("ckpt_threads", "checkpoint write-pipeline workers (sweepable axis)", "1")
      .doc("ckpt_chunk_kb", "checkpoint chunk payload size, KB (sweepable axis)", "256")
      .doc("ckpt_async",
           "asynchronous checkpointing: save stages + drains in the background, the "
           "next unit overlaps the device window (sweepable axis)",
           "off")
      .doc("ckpt_compress",
           "per-chunk checkpoint payload codec: none | lz | lz:LEVEL (1..9, "
           "lz = lz:2; sweepable axis)",
           "none")
      .doc("ckpt_async_depth",
           "staging-arena ring depth for --ckpt_async: saves admit until N "
           "checkpoints are in flight before blocking (sweepable axis)",
           "1")
      .doc("ckpt_dirty_commit",
           "mostly-clean images rewrite only dirty chunks in place, epoch-"
           "stamping the clean ones; restore salvages torn-consistent slots "
           "(sweepable axis; rejected with --shards > 1)",
           "off")
      .doc("disk_mbps", "ckpt-disk device model bandwidth, MB/s (0 = real device)", "150")
      .doc("shards",
           "cg/mm/mc: split the run across N in-process shards with coordinated "
           "global snapshots (sweepable axis; 1 = single-rank engine)",
           "1")
      .doc("shard_stagger",
           "rotate the per-epoch shard save order so drains stagger across the "
           "device window (sweepable axis)",
           "off")
      .doc("seed", "problem seed");
  if (opts.maybe_print_help("adccbench")) return 0;

  const auto format = core::parse_table_format(opts.get("format", "table"));
  if (!format) {
    std::fprintf(stderr, "adccbench: bad --format (want table | csv | json)\n");
    return 2;
  }

  // Fail the scalar --backend up front (a sweep backend axis is validated by
  // make_axis); cells read it per-cell, but a typo should kill the deck here.
  if (opts.has("backend") &&
      core::find_kernel_backend(opts.get("backend", "serial")) == nullptr) {
    std::string built;
    for (const auto& name : core::kernel_backend_names()) {
      built += built.empty() ? name : ", " + name;
    }
    std::fprintf(stderr, "adccbench: unknown --backend '%s' (built: %s)\n",
                 opts.get("backend", "serial").c_str(), built.c_str());
    return 2;
  }

  // Same eager treatment for the scalar --ckpt_compress spelling (a sweep
  // ckpt_compress axis validates per-token in expand_string_token).
  if (opts.has("ckpt_compress")) {
    checkpoint::CodecSpec spec;
    std::string codec_err;
    if (!checkpoint::parse_codec(opts.get("ckpt_compress", "none"), &spec, &codec_err)) {
      std::fprintf(stderr, "adccbench: bad --ckpt_compress '%s': %s\n",
                   opts.get("ckpt_compress", "none").c_str(), codec_err.c_str());
      return 2;
    }
  }

  auto& registry = core::WorkloadRegistry::instance();
  if (opts.get_bool("list")) {
    for (const auto& name : registry.names()) {
      std::printf("%-6s %s\n", name.c_str(), registry.description(name).c_str());
    }
    return 0;
  }

  // Build the deck: the --sweep axes, with the scalar flags injected as axes
  // when absent so the single-scenario and --matrix spellings are the same
  // engine path (--matrix is workload=all).
  std::string error;
  core::SweepSpec spec;
  if (opts.has("sweep")) {
    auto parsed = core::parse_sweep(opts.get("sweep", ""), &error);
    if (!parsed) {
      std::fprintf(stderr, "adccbench: bad --sweep: %s\n", error.c_str());
      return 2;
    }
    spec = std::move(*parsed);
  }
  auto inject = [&](const char* key, const std::string& value, bool front) -> bool {
    if (spec.find(key) != nullptr) return true;
    auto axis = core::make_axis(key, value, &error);
    if (!axis) {
      std::fprintf(stderr, "adccbench: bad --%s: %s\n", key, error.c_str());
      return false;
    }
    spec.axes.insert(front ? spec.axes.begin() : spec.axes.end(), std::move(*axis));
    return true;
  };
  if (!inject("workload", opts.get_bool("matrix") ? "all" : opts.get("workload", "cg"),
              /*front=*/true)) {
    return 2;
  }
  if (spec.find("mode") == nullptr) {
    auto axis = core::make_axis("mode", opts.get("mode", "all"), &error);
    if (!axis) {
      std::fprintf(stderr, "adccbench: bad --mode: %s\n", error.c_str());
      return 2;
    }
    spec.axes.insert(spec.axes.begin() + 1, std::move(*axis));  // After workload.
  }
  if (!inject("crash", opts.get("crash", "none"), /*front=*/false)) return 2;

  core::SweepConfig cfg;
  cfg.base = opts;
  cfg.jobs = std::max(1, static_cast<int>(opts.get_int("sweep_jobs", 1)));
  // Baselines only feed the wall-clock columns, which --no_timing blanks.
  cfg.baseline = !opts.get_bool("no_baseline") && !opts.get_bool("no_timing");
  cfg.scratch_root = scratch_dir();
  // Stage telemetry rides every timed deck (its columns are blanked with the
  // other wall-clock columns under --no_timing); --trace additionally records
  // the Chrome timeline, and keeps telemetry on even without timing columns.
  std::shared_ptr<core::TraceSink> trace;
  if (opts.has("trace")) trace = std::make_shared<core::TraceSink>();
  cfg.telemetry = !opts.get_bool("no_timing") || trace != nullptr;
  cfg.trace = trace;

  if (*format == core::TableFormat::kPlain) {
    core::print_banner("adccbench", "sweep " + spec.canonical() + " (" +
                                        std::to_string(spec.cells()) + " cells)");
  }

  const core::SweepResult deck = core::run_sweep(spec, cfg);
  const bool timing = !opts.get_bool("no_timing");
  const core::Table table = deck.table(timing);
  table.print(*format);

  if (opts.has("out")) {
    const std::filesystem::path path = opts.get("out", "");
    const auto ext = path.extension().string();
    const core::TableFormat file_format = ext == ".csv"    ? core::TableFormat::kCsv
                                          : ext == ".json" ? core::TableFormat::kJson
                                                           : *format;
    std::ofstream out(path);
    ADCC_CHECK(out.good(), "cannot open --out file");
    out << table.render(file_format);
  }

  if (trace != nullptr) {
    const std::filesystem::path path = opts.get("trace", "");
    std::ofstream out(path);
    ADCC_CHECK(out.good(), "cannot open --trace file");
    trace->write_chrome_trace(out);
  }

  if (*format == core::TableFormat::kPlain) {
    std::printf("\nSWEEP %s (%zu cells: %zu ok, %zu verify-failed, %zu errors)\n",
                deck.all_ok() ? "OK" : "FAILED", deck.cells.size(),
                deck.count(core::SweepCellResult::Status::kOk),
                deck.count(core::SweepCellResult::Status::kVerifyFailed),
                deck.count(core::SweepCellResult::Status::kError));
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch_dir(), ec);
  return deck.all_ok() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "adccbench: %s\n", e.what());
  std::error_code ec;
  std::filesystem::remove_all(scratch_dir(), ec);
  return 2;
}

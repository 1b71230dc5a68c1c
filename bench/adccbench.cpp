// adccbench — the registry-driven scenario driver: any workload x any of the
// seven durability modes x any crash plan x any swept parameter axis, one
// binary, one process.
//
//   adccbench --list                    # workloads and named decks
//   adccbench --deck=fig4 --quick       # a paper figure, ablation or pinned deck
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
// as. --deck=NAME starts from a declared deck instead (kDecks below): flags
// still override its options, a flag naming one of its axes replaces that
// axis, and --sweep axes replace or extend them. A flag, deck option or axis
// key that --help does not list exits 2 naming it. Decks execute in one
// process — optionally on --sweep_jobs worker threads with per-cell isolated
// checkpoint scratch dirs — and one crashed cell reports ERROR in its row
// instead of killing the deck.
//
// Unless --no_baseline is passed, a native run of each distinct problem shape
// is timed once and its cells are normalized against it (the paper's y-axis).
// --no_timing blanks every wall-clock column so serial and parallel decks
// emit byte-identical csv/json.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/options.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "core/telemetry.hpp"

namespace {

using namespace adcc;

// Per-process scratch, removed at exit: concurrent invocations (ctest -j runs
// both smoke matrices at once) must not share ckpt-disk slot files.
const std::filesystem::path& scratch_dir() {
  static const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("adccbench." + std::to_string(::getpid()));
  return dir;
}

/// A named deck, declared once: its --sweep axes and base options
/// ("key=value ..."), what --quick overlays on them (axes replace the
/// same-named axes, options the same-named options), the banner and footnote
/// of its plain table, and whether every cell must crash.
struct Deck {
  const char* name;
  const char* title;
  const char* about;
  const char* footnote = nullptr;
  const char* axes;
  const char* options = "";
  const char* quick_axes = nullptr;
  const char* quick_options = "";
  /// Recomputation decks: a cell whose crash plan never fired (a typo'd point
  /// name, an occurrence past the run) measured nothing and fails the deck.
  bool must_crash = false;
};

const Deck kDecks[] = {
    // Paper setup: crash at Fig. 2 line 10 in the 15th iteration of NPB CG,
    // under the crash emulator with an 8 MB LLC (Xeon E5606-like); detect and
    // resume are normalized by the mean pre-crash iteration. Small classes
    // (S, W) lose all 15 iterations because their working set never leaves the
    // cache; large ones (B, C) lose 1.
    {.name = "fig3",
     .title = "Fig. 3",
     .about = "CG recomputation cost vs NPB class, crash at line 10 of iteration 15, "
              "8 MB simulated LLC",
     .footnote = "Paper reference: classes S/W lose all 15 iterations; classes B/C lose 1;\n"
                 "recomputation (normalized by one CG iteration) shrinks as the input grows.",
     .axes = "workload=cg,mode=alg-nvm,class=S+W+A+B+C,crash=point:cg:p_updated:15",
     .options = "iters=15 cache_mb=8 no_baseline=1",
     .quick_axes = "class=S+W+A",
     .must_crash = true},
    // Paper setup: NPB CG class C, durability at the end of every iteration.
    // CG runs on the serial kernel backend: the paper's compute/durability
    // balance comes from a 2.13 GHz 2009 Xeon, and a many-core SpMV would make
    // every fixed durability cost look relatively larger (--backend=omp
    // --threads=N runs parallel kernels).
    {.name = "fig4",
     .title = "Fig. 4",
     .about = "CG runtime under the seven durability modes, per-iteration durability, "
              "normalized to native",
     .footnote = "Paper reference (class C): ckpt-disk +60.4%, ckpt-nvm +4.2%, ckpt-nvm/dram "
                 "+43.6%,\npmem-tx +329%, algorithm-directed < 3%.",
     .axes = "workload=cg,mode=all,crash=none",
     .options = "n=150000 iters=15 reps=3 warmup=1",
     .quick_options = "n=14000 reps=1"},
    // Paper setup: n in {2000..8000}, rank 400, crash at the end of the 4th
    // submatrix multiplication (loop 1) or addition (loop 2). The sizes are
    // scaled (emulating every byte of an 8000^2 product is not CI-able); the
    // temporal-matrix : LLC ratio sweep is preserved. The crash points land
    // before the unit's checksum flushes, so the crashed unit counts as redone.
    {.name = "fig7",
     .title = "Fig. 7",
     .about = "ABFT-MM recomputation cost, crash at the end of submatrix multiplication / "
              "addition #4, rank 64, 8 MB simulated LLC",
     .footnote = "Paper reference (rank 400): n=2000 loses ~2 submatrix multiplications, larger\n"
                 "sizes lose 1; the loop-2 crash always loses 1 submatrix addition.",
     .axes = "workload=mm,mode=alg-nvm,n=512+768+1024+1280,"
             "crash=point:mm:loop1_end:4+point:mm:loop2_end:4",
     .options = "rank=64 cache_mb=8 seed=7 no_baseline=1",
     .quick_axes = "n=384+512",
     .must_crash = true},
    // Paper setup: n = 8000, ranks {200, 400, 1000}, durability at the end of
    // every submatrix multiplication. The matrix is scaled and the ranks by
    // the same ratio, so the panels per product (40/20/8) match the paper's.
    {.name = "fig8",
     .title = "Fig. 8",
     .about = "ABFT-MM runtime under the seven durability modes per rank, normalized to the "
              "native ABFT GEMM",
     .footnote = "Paper reference (n=8000): algorithm-directed overhead 8.2% (rank 200) ->\n"
                 "1.3% (rank 1000); NVM checkpoint >= 21.8% at rank 200; PMEM ~5.5x.",
     .axes = "workload=mm,rank=25+50+125,mode=all,crash=none",
     .options = "n=1000 reps=2 warmup=1",
     .quick_axes = "rank=25+125",
     .quick_options = "n=500 reps=1"},
    // Paper §III-B model check: once the per-iteration working set exceeds
    // the cache, evictions persist older history rows and recomputation is
    // bounded by ~1 iteration; a cache holding the whole history loses
    // everything. The n/nz defaults put that boundary inside the swept range.
    {.name = "ablation_cg_cachesize",
     .title = "Ablation",
     .about = "CG iterations lost vs simulated LLC size",
     .footnote = "Expected: iterations lost grow with cache capacity — the opportunistic\n"
                 "eviction persistence the paper relies on needs working set >> LLC.",
     .axes = "workload=cg,mode=alg-nvm,cache_mb=1:64:x2,crash=point:cg:p_updated:15",
     .options = "n=14000 nz=11 iters=15 no_baseline=1",
     .quick_axes = "cache_mb=1+4+16",
     .quick_options = "n=4000",
     .must_crash = true},
    // Paper §III-C: "a larger rank size results in a smaller runtime overhead,
    // because the algorithm does not need to frequently flush checksum cache
    // blocks". Single-threaded, as Fig. 8.
    {.name = "ablation_mm_rank",
     .title = "Ablation",
     .about = "algorithm-directed ABFT-MM overhead vs rank",
     .footnote = "Expected: overhead falls as the rank grows (fewer checksum flushes and\n"
                 "fewer temporal matrices), the paper's 8.2% -> 1.3% trend.",
     .axes = "workload=mm,mode=alg-nvm,rank=25+50+100+200+400,crash=none",
     .options = "n=800 reps=2 threads=1",
     .quick_axes = "rank=25+100+400",
     .quick_options = "n=400 reps=1"},
    // Paper §III-D: flushing the tallies every iteration cost ~16 %; every
    // 0.01 % of lookups was free. This regenerates the trade-off curve.
    {.name = "ablation_xs_flushfreq",
     .title = "Ablation",
     .about = "XSBench overhead vs tally-flush interval",
     .footnote = "Expected: overhead falls as the flush interval grows. Paper: flushing\n"
                 "every iteration ~16%; every 0.01% of lookups, ~0.05%.",
     .axes = "workload=mc,mode=alg-nvm,interval=1+4+16+64+256+1024+8192,crash=none",
     .options = "lookups=1000000 nuclides=24 gridpoints=500 reps=3 seed=5",
     .quick_axes = "interval=1+64+1024",
     .quick_options = "lookups=200000 reps=1"},

    // The pinned perf decks: scripts/bench_matrix.sh writes each to
    // BENCH_<name>.json, and scripts/bench_check.py gates it against the
    // checked-in baseline. Their shapes are pinned (workloads, sizes, reps,
    // throttle defaults): compare them across commits, not across machines.
    // --quick shrinks each to a smoke-sized run that verifies its results.
    //
    // Every workload under every mode with a mid-run crash pass too, so both
    // steady-state overhead and recovery cost stay on the trajectory.
    {.name = "sweep",
     .title = "Pinned deck",
     .about = "every workload x every mode, crash-free and step:2",
     .axes = "workload=all,mode=all,crash=none+step:2",
     .options = "quick=1 reps=3",
     .quick_options = "reps=1"},
    // Durability-engine scaling: 3 CG iterations checkpointing a 67 MB
    // payload (3 vectors of n=2.8M doubles) per unit to ckpt-disk under the
    // default 150 MB/s device model. ckpt_threads=1 is the synchronous path;
    // higher values pipeline chunk serialization + CRC against the device
    // window. Gated: threads=4 beats threads=1.
    {.name = "ckpt_threads",
     .title = "Pinned deck",
     .about = "checkpoint write-pipeline scaling, 67 MB CG payload on ckpt-disk",
     .axes = "workload=cg,mode=ckpt-disk,ckpt_threads=1:8:x2,crash=none",
     .options = "n=2800000 nz=8 iters=3 reps=3 no_baseline=1 verify=off",
     .quick_options = "n=20000 reps=1 verify=on"},
    // Async checkpointing: the same 67 MB payload (denser matrix, nz=16, so
    // each unit carries a real compute window for the drain to hide behind),
    // ckpt_async=0 vs =1 at ckpt_threads=1, isolating the overlap win from
    // the pipeline win. With a native baseline: gated on async's normalized
    // overhead being <= 0.90x the synchronous scheme's.
    {.name = "ckpt_async",
     .title = "Pinned deck",
     .about = "async vs sync checkpointing, 67 MB CG payload on ckpt-disk",
     .axes = "workload=cg,mode=ckpt-disk,ckpt_async=0+1,crash=none",
     .options = "n=2800000 nz=16 iters=3 reps=3 verify=off",
     .quick_options = "n=20000 reps=1 verify=on"},
    // Multi-shard engine: the same CG problem on ckpt-disk, single-rank
    // (shards=1) vs a 4-shard coordinated group. Both cells share the
    // single-rank native baseline (baseline_key drops the shard axis), so the
    // normalized columns compare the coordinated-snapshot protocol's cost —
    // per-shard slots plus the global marker commit — directly against the
    // monolithic checkpoint path. Gated on the 4-shard overhead ratio.
    {.name = "shards",
     .title = "Pinned deck",
     .about = "single-rank vs 4-shard coordinated checkpoints on ckpt-disk",
     .axes = "workload=cg,mode=ckpt-disk,shards=1+4,crash=none",
     .options = "n=2800000 nz=8 iters=3 reps=3 verify=off",
     .quick_options = "n=20000 reps=1 verify=on"},
    // Kernel-backend scaling: the SpMV-dominated CG shape with no durability
    // work (mode=native isolates the compute win) crossed over
    // backend=serial+omp x threads=1:8:x2. Needs an -DADCC_OPENMP=ON build
    // (--list shows it as not runnable otherwise). Gated on the omp rows only
    // (serial rows ignore the threads axis), procs-aware.
    {.name = "threads",
     .title = "Pinned deck",
     .about = "serial vs omp kernel-backend scaling, CG SpMV shape",
     .axes = "workload=cg,mode=native,backend=serial+omp,threads=1:8:x2,crash=none",
     .options = "n=2800000 nz=8 iters=3 reps=3 no_baseline=1 verify=off",
     .quick_options = "n=20000 reps=1 verify=on"},
    // Per-chunk compression: the 67 MB payload under a SLOW device model
    // (disk_mbps=25) and a dense matrix (nz=48), crossed over
    // ckpt_compress=none+lz x ckpt_async_depth=1+2. The codec's CPU cost hides
    // inside the device-throttle window (2 pipeline workers: one compresses
    // while the other waits on the bandwidth bucket), and the dense compute
    // raises the hidden share of the drain, so the stored-byte cut lands
    // almost fully on the exposed overhead. With a native baseline: gated on
    // the lz cells' normalized overhead being <= 0.85x their none
    // counterparts per ring depth.
    {.name = "ckpt_compress",
     .title = "Pinned deck",
     .about = "per-chunk lz compression vs none, async ckpt-disk at 25 MB/s",
     .axes = "workload=cg,mode=ckpt-disk,ckpt_compress=none+lz,ckpt_async_depth=1+2,crash=none",
     .options = "ckpt_async=1 ckpt_threads=2 disk_mbps=25 n=2800000 nz=48 iters=3 reps=3 "
                "verify=off",
     .quick_options = "n=20000 reps=1 verify=on"},
};

/// Replaces each of `top`'s axes in `spec` in place, appending the new keys.
void overlay(core::SweepSpec& spec, core::SweepSpec top) {
  for (core::SweepAxis& axis : top.axes) {
    auto same = std::find_if(spec.axes.begin(), spec.axes.end(),
                             [&](const core::SweepAxis& a) { return a.key == axis.key; });
    if (same != spec.axes.end()) {
      *same = std::move(axis);
    } else {
      spec.axes.push_back(std::move(axis));
    }
  }
}

/// The deck's axes for this run (--quick overlaid), with every flag that
/// names one of them replacing it; merges the deck's base options into `opts`
/// under the flags the user passed. False with a message on a bad axis or an
/// option key --help does not list.
bool resolve_deck(const Deck& deck, Options& opts, core::SweepSpec& spec, std::string* error) {
  const bool quick = opts.get_bool("quick");
  auto axes = core::parse_sweep(deck.axes, error);
  if (!axes) return false;
  if (quick && deck.quick_axes != nullptr) {
    auto quick_axes = core::parse_sweep(deck.quick_axes, error);
    if (!quick_axes) return false;
    overlay(*axes, std::move(*quick_axes));
  }
  for (core::SweepAxis& axis : axes->axes) {
    if (!opts.has(axis.key)) continue;
    auto flag = core::make_axis(axis.key, opts.get(axis.key, ""), error);
    if (!flag) return false;
    axis = std::move(*flag);
  }
  spec = std::move(*axes);
  // The first setting of a key wins: the user's flags, then --quick's options.
  for (const char* list : {quick ? deck.quick_options : "", deck.options}) {
    std::istringstream words(list);
    for (std::string word; words >> word;) {
      const std::string key = word.substr(0, word.find('='));
      if (!opts.documented(key)) {
        *error = "unknown option '" + key + "' (see --help)";
        return false;
      }
      if (!opts.has(key)) opts.set(key, word.substr(key.size() + 1));
    }
  }
  return true;
}

void print_list() {
  auto& registry = core::WorkloadRegistry::instance();
  std::printf("workloads (--workload=NAME):\n");
  for (const auto& name : registry.names()) {
    std::printf("  %-6s %s\n", name.c_str(), registry.description(name).c_str());
  }
  std::printf("\ndecks (--deck=NAME [--quick]):\n");
  std::string unavailable;
  for (const Deck& deck : kDecks) {
    std::string why;
    if (core::parse_sweep(deck.axes, &why)) {
      std::printf("  %-22s %s: %s\n", deck.name, deck.title, deck.about);
    } else {
      unavailable += std::string("  ") + deck.name + ": " + why + "\n";
    }
  }
  if (!unavailable.empty()) {
    std::printf("\nnot runnable in this build:\n%s", unavailable.c_str());
  }
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
           "crash, policy, backend, and any other key this list names)")
      .doc("deck",
           "run a named deck (see --list): a paper figure, an ablation or a pinned "
           "perf deck, CI-sized with --quick; flags override its options, a flag "
           "naming one of its axes replaces that axis, and --sweep axes replace "
           "or extend them")
      .doc("sweep_jobs", "worker threads executing deck cells", "1")
      .doc("matrix", "run every registered workload x every mode", "off")
      .doc("list", "list registered workloads and named decks, and exit")
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
      .doc("class",
           "cg: NPB problem class S | W | A | B | C, setting n and nz (an "
           "explicit --n/--nz wins)")
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
      .doc("ckpt_threads", "checkpoint write-pipeline workers (sweepable axis)", "1")
      .doc("ckpt_async",
           "asynchronous checkpointing: save stages + drains in the background, the "
           "next unit overlaps the device window (sweepable axis)",
           "off")
      .doc("ckpt_compress",
           "per-chunk checkpoint payload codec: none | lz | lz:1 | lz:2 (lz = "
           "lz:2; sweepable axis)",
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
      .doc("seed", "problem seed");
  if (opts.maybe_print_help("adccbench")) return 0;
  opts.reject_undocumented();

  const auto format = core::parse_table_format(opts.get("format", "table"));
  if (!format) {
    std::fprintf(stderr, "adccbench: bad --format (want table | csv | json)\n");
    return 2;
  }

  if (opts.get_bool("list")) {
    print_list();
    return 0;
  }

  // Build the deck: a named deck's axes, overlaid with the --sweep axes, with
  // the scalar flags injected as axes when absent so the single-scenario and
  // --matrix spellings are the same engine path (--matrix is workload=all).
  std::string error;
  core::SweepSpec spec;
  const Deck* deck = nullptr;
  if (opts.has("deck")) {
    for (const Deck& named : kDecks) {
      if (opts.get("deck", "") == named.name) deck = &named;
    }
    if (deck == nullptr) {
      std::fprintf(stderr, "adccbench: unknown --deck '%s' (try --list)\n",
                   opts.get("deck", "").c_str());
      return 2;
    }
    if (!resolve_deck(*deck, opts, spec, &error)) {
      std::fprintf(stderr, "adccbench: deck '%s': %s\n", deck->name, error.c_str());
      return 2;
    }
  }
  if (opts.has("sweep")) {
    auto parsed = core::parse_sweep(opts.get("sweep", ""), &error);
    if (!parsed) {
      std::fprintf(stderr, "adccbench: bad --sweep: %s\n", error.c_str());
      return 2;
    }
    overlay(spec, std::move(*parsed));
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
  // Every string-axis flag passes the sweep's own validator, so a typo kills
  // the deck here. One that names no axis yet and lists several values runs
  // as the axis it reads as (--backend=serial+omp); one value stays a base
  // option.
  for (const std::string_view name : core::kStringAxes) {
    const std::string key(name);
    if (!opts.has(key)) continue;
    auto axis = core::make_axis(key, opts.get(key, ""), &error);
    if (!axis) {
      std::fprintf(stderr, "adccbench: bad --%s: %s\n", key.c_str(), error.c_str());
      return 2;
    }
    if (axis->values.size() > 1 && spec.find(key) == nullptr) spec.axes.push_back(std::move(*axis));
  }
  for (const core::SweepAxis& axis : spec.axes) {
    if (!opts.documented(axis.key)) {
      std::fprintf(stderr, "adccbench: unknown sweep axis '%s' (see --help)\n", axis.key.c_str());
      return 2;
    }
  }

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

  const bool plain = *format == core::TableFormat::kPlain;
  const std::string sweep =
      "sweep " + spec.canonical() + " (" + std::to_string(spec.cells()) + " cells)";
  if (plain && deck != nullptr) {
    core::print_banner(deck->title, deck->about);
    std::printf("%s\n", sweep.c_str());
  } else if (plain) {
    core::print_banner("adccbench", sweep);
  }

  const core::SweepResult result = core::run_sweep(spec, cfg);
  const bool timing = !opts.get_bool("no_timing");
  const core::Table table = result.table(timing);
  table.print(*format);
  if (plain && deck != nullptr && deck->footnote != nullptr) {
    std::printf("\n%s\n", deck->footnote);
  }

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

  std::size_t uncrashed = 0;
  for (const core::SweepCellResult& cell : result.cells) {
    if (deck == nullptr || !deck->must_crash ||
        cell.status != core::SweepCellResult::Status::kOk || cell.result.crashes > 0) {
      continue;
    }
    std::fprintf(stderr, "adccbench: deck '%s': crash plan '%s' never fired in cell %zu\n",
                 deck->name, cell.crash_label.c_str(), cell.index);
    ++uncrashed;
  }
  const bool ok = result.all_ok() && uncrashed == 0;

  if (plain) {
    std::printf("\nSWEEP %s (%zu cells: %zu ok, %zu verify-failed, %zu errors)\n",
                ok ? "OK" : "FAILED", result.cells.size(),
                result.count(core::SweepCellResult::Status::kOk),
                result.count(core::SweepCellResult::Status::kVerifyFailed),
                result.count(core::SweepCellResult::Status::kError));
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch_dir(), ec);
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "adccbench: %s\n", e.what());
  std::error_code ec;
  std::filesystem::remove_all(scratch_dir(), ec);
  return 2;
}

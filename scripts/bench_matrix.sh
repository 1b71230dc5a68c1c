#!/usr/bin/env bash
# Pinned perf-tracking sweep decks, written to the repo root so the perf
# trajectory is tracked in version control / CI from PR 3 onward:
#
#   BENCH_sweep.json        every workload x all seven modes,
#                           crash-free + step:2, CI-sized, median of 3 reps
#   BENCH_ckpt_threads.json the durability-engine scaling deck: one >= 64 MB
#                           CG checkpoint payload on ckpt-disk, swept over
#                           ckpt_threads=1:8:x2 — the "parallel checkpointing
#                           must actually win" trajectory
#   BENCH_ckpt_async.json   the async-checkpointing deck: the same 67 MB CG
#                           payload on ckpt-disk, ckpt_async=0 vs =1, with a
#                           native baseline so bench_check.py can gate the
#                           normalized overhead (async must cut the sync
#                           scheme's overhead, not just its raw seconds)
#   BENCH_shards.json       the multi-shard engine deck: the same CG problem
#                           on ckpt-disk at shards=1 (single-rank engine) vs
#                           shards=4 (coordinated group snapshots), both
#                           normalized against the single-rank native
#                           baseline — bench_check.py gates the 4-shard
#                           normalized overhead against the single-shard one
#   BENCH_threads.json      the kernel-backend scaling deck: the CG SpMV
#                           shape crossed over backend=serial+omp x
#                           threads=1:8:x2 — bench_check.py gates the omp
#                           4-thread cell beating its 1-thread cell
#                           (requires an -DADCC_OPENMP=ON build; the default
#                           build directory is configured with the flag)
#   BENCH_ckpt_compress.json the per-chunk compression deck: the 67 MB CG
#                           payload on ckpt-disk with async saves, crossed
#                           over ckpt_compress=none+lz x ckpt_async_depth=1+2,
#                           with a native baseline — bench_check.py gates the
#                           lz/depth-2 normalized overhead at <= 0.85x the
#                           uncompressed depth-1 async scheme's
#
#   scripts/bench_matrix.sh                 # build + decks -> BENCH_*.json
#   scripts/bench_matrix.sh --out /tmp/b.json --bin ./build/adccbench --no-build
#
# The decks are deliberately pinned (workloads, sizes, reps, throttle
# defaults): compare BENCH_*.json across commits, not across machines.
# scripts/bench_check.py turns the comparison into a CI gate.
set -euo pipefail
cd "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/.."

BIN=""
OUT="BENCH_sweep.json"
OUT_CKPT="BENCH_ckpt_threads.json"
OUT_ASYNC="BENCH_ckpt_async.json"
OUT_SHARDS="BENCH_shards.json"
OUT_THREADS="BENCH_threads.json"
OUT_COMPRESS="BENCH_ckpt_compress.json"
BUILD=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --out-ckpt) OUT_CKPT="$2"; shift 2 ;;
    --out-async) OUT_ASYNC="$2"; shift 2 ;;
    --out-shards) OUT_SHARDS="$2"; shift 2 ;;
    --out-threads) OUT_THREADS="$2"; shift 2 ;;
    --out-compress) OUT_COMPRESS="$2"; shift 2 ;;
    --no-build) BUILD=0; shift ;;
    *) echo "bench_matrix.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ -z "$BIN" ]]; then
  if [[ "$BUILD" -eq 1 ]]; then
    cmake -B build -S . -DADCC_OPENMP=ON >/dev/null
    cmake --build build -j "$(nproc)" --target adccbench >/dev/null
  fi
  BIN=./build/adccbench
fi

# run_deck NAME OUTFILE ARGS... — one pinned deck, atomically. The binary
# writes into OUTFILE.tmp and only a clean exit promotes it, so a deck whose
# binary rejects an axis value (an old adccbench fed a new sweep spelling, a
# typo in a pinned flag) fails loudly, names itself, and never leaves a
# partially-written BENCH json behind for bench_check.py to misread.
run_deck() {
  local name="$1" outfile="$2"
  shift 2
  local tmp="$outfile.tmp"
  rm -f "$tmp"
  local status=0
  "$BIN" "$@" --format=json --out="$tmp" >/dev/null || status=$?
  if [[ "$status" -ne 0 || ! -s "$tmp" ]]; then
    rm -f "$tmp"
    echo "bench_matrix: deck '$name' FAILED (exit $status): $BIN rejected its" \
         "pinned flags or died mid-deck; $outfile left untouched." >&2
    echo "bench_matrix: reproduce with: $BIN $*" >&2
    exit 1
  fi
  mv "$tmp" "$outfile"
  echo "bench_matrix OK -> $outfile ($(grep -c '"workload"' "$outfile") cells)"
}

# Pinned deck: every workload under every mode with a mid-run crash pass too,
# so both steady-state overhead and recovery cost stay on the trajectory.
run_deck sweep "$OUT" \
  --sweep="workload=all,mode=all,crash=none+step:2" --quick --reps=3

# Durability-engine scaling deck: 3 CG iterations checkpointing a 67 MB
# payload (3 vectors of n=2.8M doubles) per unit to ckpt-disk under the
# default 150 MB/s device model. ckpt_threads=1 reproduces the synchronous
# seed path; higher values pipeline chunk serialization + CRC against the
# device window. bench_check.py gates threads=4 beating threads=1.
run_deck ckpt_threads "$OUT_CKPT" \
  --workload=cg --mode=ckpt-disk --sweep="ckpt_threads=1:8:x2" \
  --n=2800000 --nz=8 --iters=3 --reps=3 --no_baseline --verify=off

# Async-checkpointing deck: the same 67 MB payload (denser matrix, nz=16, so
# each unit carries a real compute window for the drain to hide behind),
# ckpt_async=0 vs =1 at ckpt_threads=1 — isolating the overlap win from the
# pipeline win. Runs WITH a native baseline: bench_check.py gates that async's
# normalized overhead is <= 0.90x the synchronous scheme's.
run_deck ckpt_async "$OUT_ASYNC" \
  --workload=cg --mode=ckpt-disk --sweep="ckpt_async=0+1" \
  --n=2800000 --nz=16 --iters=3 --reps=3 --verify=off

# Multi-shard engine deck: the same CG problem on ckpt-disk, single-rank
# (shards=1) vs a 4-shard coordinated group. The sweep layer keys both cells
# to the SAME single-rank native baseline (baseline_key drops the shard axes),
# so the normalized columns compare the coordinated-snapshot protocol's cost
# — per-shard slots plus the global marker commit — directly against the
# monolithic checkpoint path. bench_check.py gates the 4-shard overhead ratio.
run_deck shards "$OUT_SHARDS" \
  --workload=cg --mode=ckpt-disk --sweep="shards=1+4" \
  --n=2800000 --nz=8 --iters=3 --reps=3 --verify=off

# Kernel-backend scaling deck: the SpMV-dominated CG shape (n=2.8M, nz=8, no
# durability work — mode=native isolates the compute win) crossed over
# backend=serial+omp x threads=1:8:x2. Only meaningful from an
# -DADCC_OPENMP=ON binary; skipped with a warning otherwise so the non-OMP
# decks still pin. bench_check.py gates the omp rows with
# --speedup-filter backend=omp (serial rows ignore the threads axis by
# construction) and --speedup-procs 4 (degrades to a no-regression bound on
# starved runners).
if "$BIN" --list --backend=omp >/dev/null 2>&1; then
  run_deck threads "$OUT_THREADS" \
    --workload=cg --mode=native --sweep="backend=serial+omp,threads=1:8:x2" \
    --n=2800000 --nz=8 --iters=3 --reps=3 --no_baseline --verify=off
else
  echo "bench_matrix: $BIN lacks the omp backend (build with -DADCC_OPENMP=ON); skipping $OUT_THREADS" >&2
fi

# Per-chunk compression deck: the 67 MB CG payload under a SLOW device model
# (disk_mbps=25) and a dense matrix (nz=48), crossed over
# ckpt_compress=none+lz x ckpt_async_depth=1+2. The shape is deliberate: the
# codec's CPU cost hides inside the device-throttle window (2 pipeline
# workers: one compresses while the other waits on the bandwidth bucket), and
# the dense compute raises the hidden share of the drain, so the stored-byte
# cut (the upper byte planes of the f64 state pack/Huffman tightly) lands
# almost fully on the EXPOSED overhead. WITH a native baseline:
# bench_check.py gates the lz cells' normalized overhead at <= 0.85x their
# none counterparts per ring depth, and the baseline_key skip-list keys all
# four cells to one native run.
run_deck ckpt_compress "$OUT_COMPRESS" \
  --workload=cg --mode=ckpt-disk --ckpt_async=1 --ckpt_threads=2 --disk_mbps=25 \
  --sweep="ckpt_compress=none+lz,ckpt_async_depth=1+2" \
  --n=2800000 --nz=48 --iters=3 --reps=3 --verify=off

#!/usr/bin/env bash
# Pinned perf-tracking decks, written as BENCH_<deck>.json (to the repo root by
# default) so the perf trajectory is tracked in version control and CI. Each
# deck — its axes, sizes, reps and rationale — is declared once in
# bench/adccbench.cpp's deck table and run here as `adccbench --deck=NAME`:
#
#   sweep          every workload x all seven modes, crash-free + step:2
#   ckpt_threads   checkpoint write-pipeline scaling (67 MB CG payload)
#   ckpt_async     async vs sync checkpointing, with a native baseline
#   shards         single-rank vs 4-shard coordinated checkpoints
#   threads        serial vs omp kernel-backend scaling (needs an
#                  -DADCC_OPENMP=ON binary; skipped with a warning otherwise)
#   ckpt_compress  per-chunk lz compression vs none on a slow device
#
#   scripts/bench_matrix.sh                 # build + decks -> BENCH_*.json
#   scripts/bench_matrix.sh --out-dir /tmp/decks --bin ./build/adccbench --no-build
#
# Compare BENCH_*.json across commits, not across machines;
# scripts/bench_check.py turns the comparison into a CI gate.
set -euo pipefail
cd "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/.."

BIN=""
OUT_DIR="."
BUILD=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
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
mkdir -p "$OUT_DIR"

# run_deck NAME — one pinned deck, atomically. The binary writes into
# BENCH_NAME.json.tmp and only a clean exit promotes it, so a deck the binary
# rejects (an old adccbench without the deck, a bad pinned axis) fails loudly,
# names itself, and never leaves a partially-written BENCH json behind for
# bench_check.py to misread.
run_deck() {
  local name="$1"
  local outfile="$OUT_DIR/BENCH_$name.json"
  local tmp="$outfile.tmp"
  rm -f "$tmp"
  local status=0
  "$BIN" --deck="$name" --format=json --out="$tmp" >/dev/null || status=$?
  if [[ "$status" -ne 0 || ! -s "$tmp" ]]; then
    rm -f "$tmp"
    echo "bench_matrix: deck '$name' FAILED (exit $status): $BIN rejected it or" \
         "died mid-deck; $outfile left untouched." >&2
    echo "bench_matrix: reproduce with: $BIN --deck=$name" >&2
    exit 1
  fi
  mv "$tmp" "$outfile"
  echo "bench_matrix OK -> $outfile ($(grep -c '"workload"' "$outfile") cells)"
}

for deck in sweep ckpt_threads ckpt_async shards; do
  run_deck "$deck"
done
if "$BIN" --list --backend=omp >/dev/null 2>&1; then
  run_deck threads
else
  echo "bench_matrix: $BIN lacks the omp backend (build with -DADCC_OPENMP=ON); skipping BENCH_threads.json" >&2
fi
run_deck ckpt_compress

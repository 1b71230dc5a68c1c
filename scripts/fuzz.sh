#!/usr/bin/env bash
# Deterministic crash-fuzz sweep: every workload x all seven modes x a range of
# fuzz seeds. Each seed lands one mid-unit crash at a seeded random access
# inside a seeded random work unit (see parse_crash's fuzz:SEED plan); the run
# must recover and verify in every mode or adccbench exits non-zero. The same
# crash families also run on the alg-* engines under the crash emulator
# (--cache_mb=1, where only flushed or evicted lines survive), and further
# decks per seed cover silent flips, --ckpt_async=1 (the asynchronous-drain
# crash families ckpt_drain / ckpt_stage) and --shards=4 (the shard-scoped
# families: a fuzzed single-shard kill and a coordinator kill mid-global-
# commit).
#
#   scripts/fuzz.sh                         # build + 20 seeds, quick sizes
#   scripts/fuzz.sh --seeds 5 --start 100   # seeds 100..104
#   scripts/fuzz.sh --bin ./build/adccbench --no-build
#   scripts/fuzz.sh --full                  # nightly sizes (no --quick)
#   scripts/fuzz.sh --workloads cg,mm       # a subset of the workloads
#
# Each (workload, seed, family) is one adccbench sweep deck, so the whole seed
# range is a handful of processes. cwd-independent and fail-fast:
# the first failing sweep aborts the script with that sweep's exit code and a
# pointer at the failing scenario.
#
# CTest runs a 2-seed slice under the "fuzz" label (kept out of "smoke" so
# tier-1 smoke time stays flat): ctest -L fuzz
set -euo pipefail
cd "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/.."

BIN=""
SEEDS=20
START=1
WORKLOADS="cg mm mc"
BUILD=1
QUICK="--quick"
JOBS="${ADCC_SWEEP_JOBS:-1}"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    --seeds) SEEDS="$2"; shift 2 ;;
    --start) START="$2"; shift 2 ;;
    --workloads) WORKLOADS="${2//,/ }"; shift 2 ;;
    --jobs) JOBS="$2"; shift 2 ;;
    --no-build) BUILD=0; shift ;;
    --full) QUICK=""; shift ;;
    *) echo "fuzz.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ -z "$BIN" ]]; then
  if [[ "$BUILD" -eq 1 ]]; then
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target adccbench >/dev/null
  fi
  BIN=./build/adccbench
fi

runs=0
for workload in $WORKLOADS; do
  mode="all"
  # Three crash families per seed, one in-process deck (cells of one shape
  # share a single fuzz probe): the classic mid-unit fuzz crash, the same
  # crash followed by a second fault inside the recovery (ckpt_restore fires
  # in checkpoint modes; elsewhere the armed tail is disarmed harmlessly),
  # and a crash mid-checkpoint-save (ckpt_chunk, checkpoint modes only —
  # crash-free elsewhere, which must also stay green). The second deck runs
  # the same families on the alg-* engines under the crash emulator, where
  # only flushed or evicted lines survive.
  for ((seed = START; seed < START + SEEDS; ++seed)); do
    crash="fuzz:$seed+fuzz:$seed^point:ckpt_restore:1+point:ckpt_chunk:$((seed % 7 + 1))"
    for deck in "mode=$mode" "mode=alg-nvm+alg-nvm/dram,cache_mb=1"; do
      echo "fuzz: workload=$workload seed=$seed $deck"
      rc=0
      "$BIN" --workload="$workload" --sweep="$deck,crash=$crash" \
        --sweep_jobs="$JOBS" --no_baseline $QUICK >/dev/null || rc=$?
      if [[ "$rc" -ne 0 ]]; then
        echo "fuzz.sh: FAILED at workload=$workload seed=$seed (exit $rc); reproduce with:" >&2
        echo "  $BIN --workload=$workload --sweep='$deck,crash=$crash' --no_baseline $QUICK" >&2
        exit "$rc"
      fi
      runs=$((runs + 1))
    done
  done

  # Silent-corruption deck (flip:SEED[:BITS]): each seed lands one seeded
  # bit-flip WITHOUT raising, a multi-bit variant stresses the bit-position
  # stream, and a flip^ckpt_chunk chain composes the silent head with a
  # fail-stop tail killing the next checkpoint save. Every outcome the
  # classifier knows — detected and corrected in place, detected and rolled
  # back, honest silent miss — counts as ok; only a detected-and-rolled-back
  # run that still fails verify (a broken recovery path) or an ERROR cell
  # fails the deck.
  for ((seed = START; seed < START + SEEDS; ++seed)); do
    crash="flip:$seed+flip:$seed:$((seed % 3 + 2))+flip:$seed^point:ckpt_chunk:$((seed % 4 + 1))"
    echo "fuzz: workload=$workload seed=$seed (flip)"
    rc=0
    "$BIN" --workload="$workload" --mode="$mode" --sweep="crash=$crash" \
      --sweep_jobs="$JOBS" --no_baseline $QUICK >/dev/null || rc=$?
    if [[ "$rc" -ne 0 ]]; then
      echo "fuzz.sh: FAILED at workload=$workload seed=$seed flip deck (exit $rc); reproduce with:" >&2
      echo "  $BIN --workload=$workload --mode=$mode --sweep='crash=$crash' --no_baseline $QUICK" >&2
      exit "$rc"
    fi
    runs=$((runs + 1))
  done

  # Asynchronous-checkpointing families (--ckpt_async=1): a mid-unit fuzz
  # crash landing while a drain may be in flight (the
  # abort-the-drain-then-classify-the-torn-slot path), a crash
  # inside the background drain itself (ckpt_drain — surfaces at the join),
  # a crash between stage and drain start (ckpt_stage — must leave the
  # previous checkpoint untouched), a crash inside the per-chunk codec pass
  # (ckpt_compress — fires on the pipeline workers, mid-slot), and a crash at
  # ring admission (ring_stage — fires once per save when the staging ring is
  # deeper than one). The deck arms the whole v3 write path: compression on,
  # a depth-2 staging ring, and dirty-chunk commit with its salvage-capable
  # restore. All sites are crash-free no-ops outside checkpoint modes, which
  # must also stay green.
  for ((seed = START; seed < START + SEEDS; ++seed)); do
    crash="fuzz:$seed+point:ckpt_drain:$((seed % 7 + 1))+point:ckpt_stage:$((seed % 5 + 1))+point:ckpt_compress:$((seed % 6 + 1))+point:ring_stage:$((seed % 3 + 1))"
    echo "fuzz: workload=$workload seed=$seed (ckpt_async)"
    rc=0
    "$BIN" --workload="$workload" --mode="$mode" --ckpt_async=1 --ckpt_compress=lz \
      --ckpt_async_depth=2 --ckpt_dirty_commit=1 --sweep="crash=$crash" \
      --sweep_jobs="$JOBS" --no_baseline $QUICK >/dev/null || rc=$?
    if [[ "$rc" -ne 0 ]]; then
      echo "fuzz.sh: FAILED at workload=$workload seed=$seed ckpt_async=1 (exit $rc); reproduce with:" >&2
      echo "  $BIN --workload=$workload --mode=$mode --ckpt_async=1 --ckpt_compress=lz --ckpt_async_depth=2 --ckpt_dirty_commit=1 --sweep='crash=$crash' --no_baseline $QUICK" >&2
      exit "$rc"
    fi
    runs=$((runs + 1))
  done

  # Multi-shard crash families under a 4-shard group: a seeded mid-unit
  # fuzz crash scoped to shard 0 only (survivors keep computing, the victim
  # restores its own slot and replays its delta) plus a coordinator kill at
  # the global-commit point. Non-checkpoint modes fall back to the
  # single-rank engine where the scopes degenerate to process scope — that
  # degradation must stay green too.
  for ((seed = START; seed < START + SEEDS; ++seed)); do
    crash="shard:0:fuzz:$seed+coord:point:global_commit"
    echo "fuzz: workload=$workload seed=$seed (shards=4)"
    rc=0
    "$BIN" --workload="$workload" --mode="$mode" --shards=4 --sweep="crash=$crash" \
      --sweep_jobs="$JOBS" --no_baseline $QUICK >/dev/null || rc=$?
    if [[ "$rc" -ne 0 ]]; then
      echo "fuzz.sh: FAILED at workload=$workload seed=$seed shards=4 (exit $rc); reproduce with:" >&2
      echo "  $BIN --workload=$workload --mode=$mode --shards=4 --sweep='crash=$crash' --no_baseline $QUICK" >&2
      exit "$rc"
    fi
    runs=$((runs + 1))
  done
done

echo "fuzz OK ($runs sweeps)"

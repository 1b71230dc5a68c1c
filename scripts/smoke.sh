#!/usr/bin/env bash
# Quick smoke for CI: build, then exercise the full workload x mode cross-
# product at tiny sizes, crash-free and under two crash plans, plus two
# batched sweep decks (cg, and the cg/mm alg-nvm engines under the crash
# emulator) each run serially and on 4 workers whose csv output must match
# byte for byte
# (--no_timing blanks the wall-clock columns; everything else is
# deterministic). Equivalent to `ctest -L smoke` plus the repeated-crash pass.
# cwd-independent and fail-fast: the first failing command aborts the script
# with its exit code.
set -euo pipefail
cd "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/.."

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" >/dev/null

./build/adccbench --matrix --quick
./build/adccbench --matrix --quick --crash=step:2
./build/adccbench --matrix --quick --crash=repeat:2

# Serial vs parallel deck determinism (the sweep-engine acceptance check).
SWEEP="mode=all,n=300+600,crash=none+step:2+fuzz:5"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./build/adccbench --sweep="$SWEEP" --workload=cg --quick --no_timing \
  --format=csv >"$tmp/serial.csv"
./build/adccbench --sweep="$SWEEP" --workload=cg --quick --no_timing \
  --format=csv --sweep_jobs=4 >"$tmp/parallel.csv"
# The same check under the crash emulator (cache_mb): the cache model places
# lines by region and offset, so a crash's lost/partial counts cannot depend
# on which worker thread's allocator placed the tracked regions.
EMU_SWEEP="workload=cg+mm,mode=alg-nvm,cache_mb=1+4,crash=none+fuzz:3"
./build/adccbench --sweep="$EMU_SWEEP" --quick --no_timing --no_baseline \
  --format=csv >"$tmp/emu_serial.csv"
./build/adccbench --sweep="$EMU_SWEEP" --quick --no_timing --no_baseline \
  --format=csv --sweep_jobs=4 >"$tmp/emu_parallel.csv"
for deck in "" emu_; do
  if ! cmp -s "$tmp/${deck}serial.csv" "$tmp/${deck}parallel.csv"; then
    echo "smoke.sh: serial and parallel ${deck}sweep decks diverged:" >&2
    diff "$tmp/${deck}serial.csv" "$tmp/${deck}parallel.csv" >&2 || true
    exit 1
  fi
done

echo "smoke OK"

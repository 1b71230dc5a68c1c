#!/usr/bin/env bash
# Runs every deck `adccbench --list` names (the ones this build can run) at
# --quick, with --no_timing --reps=1 --warmup=0 so the timed decks stay
# CI-sized too. A deck passes when adccbench exits 0: every cell ok, and every
# cell of a recomputation deck crashed. Timings are not checked here. Then it
# probes the option checks: an uncrashed recomputation deck, misspelt keys,
# and multi-value overrides of a deck's string axes.
#
# Usage: deck_smoke.sh --bin PATH/TO/adccbench
set -euo pipefail
if [[ "${1:-}" != "--bin" || -z "${2:-}" ]]; then
  echo "usage: deck_smoke.sh --bin PATH/TO/adccbench" >&2
  exit 2
fi
bin="$2"

decks="$("$bin" --list | awk '/^decks/ {on = 1; next} /^$/ {on = 0} on {print $1}')"
if [[ -z "$decks" ]]; then
  echo "deck_smoke.sh: $bin --list names no decks" >&2
  exit 1
fi
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
count=0
for deck in $decks; do
  if ! "$bin" --deck="$deck" --quick --no_timing --reps=1 --warmup=0 >"$log" 2>&1; then
    cat "$log" >&2
    echo "deck_smoke.sh: deck '$deck' failed" >&2
    exit 1
  fi
  count=$((count + 1))
done

# A recomputation deck whose crash never fires measured nothing: at 10
# iterations point:cg:p_updated:15 is never reached, so the deck must exit 1
# and name the cell.
status=0
"$bin" --deck=ablation_cg_cachesize --quick --iters=10 --no_timing >"$log" 2>&1 || status=$?
if [[ "$status" -ne 1 ]] || ! grep -q "never fired in cell 0$" "$log"; then
  cat "$log" >&2
  echo "deck_smoke.sh: an uncrashed recomputation deck exited $status, want 1 naming the cell" >&2
  exit 1
fi

# A misspelt key must not run the default configuration: a flag or a --sweep
# axis --help does not list exits 2 naming it.
for probe in "--cach_mb=1" "--sweep=cach_mb=1"; do
  status=0
  "$bin" --workload=cg --mode=alg-nvm --quick --crash=step:7 --no_timing "$probe" \
    >"$log" 2>&1 || status=$?
  if [[ "$status" -ne 2 ]] || ! grep -q "cach_mb" "$log"; then
    cat "$log" >&2
    echo "deck_smoke.sh: '$probe' exited $status, want 2 naming cach_mb" >&2
    exit 1
  fi
done

# A flag naming one of a deck's string axes replaces that axis, several
# values included.
overrides=("--deck=ckpt_compress --ckpt_compress=none+lz")
if grep -qx "threads" <<<"$decks"; then
  overrides+=("--deck=threads --backend=serial+omp")
fi
for override in "${overrides[@]}"; do
  # shellcheck disable=SC2086  # Word-split the two flags on purpose.
  if ! "$bin" $override --quick --no_timing --reps=1 --warmup=0 >"$log" 2>&1; then
    cat "$log" >&2
    echo "deck_smoke.sh: '$override' failed" >&2
    exit 1
  fi
done
echo "deck smoke OK: $count decks, an uncrashed recomputation deck fails," \
  "misspelt keys are rejected, and ${#overrides[@]} multi-value axis overrides run"

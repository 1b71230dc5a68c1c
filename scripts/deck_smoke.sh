#!/usr/bin/env bash
# Runs every deck `adccbench --list` names (the ones this build can run) at
# --quick, with --no_timing --reps=1 --warmup=0 so the timed decks stay
# CI-sized too. A deck passes when adccbench exits 0: every cell ok, and every
# cell of a recomputation deck crashed. Timings are not checked here.
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
echo "deck smoke OK: $count decks, and an uncrashed recomputation deck fails"

#!/usr/bin/env bash
# Golden-table regression for the recomputation figures and the ablation
# decks: the --quick --no_timing csv of each named adccbench deck (Figs. 3
# and 7, the three ablations) and the whole --quick stdout of the Figs. 10/12
# tally program (it prints no timing), byte-compared with tests/golden/<name>.
# The memsim cache model places lines by region and offset (never by host
# address), so these tables are a pure function of the code: any diff is a
# behaviour change. After an intentional one, regenerate:
#   ADCC_UPDATE_GOLDEN=1 scripts/check_golden.sh --bin-dir build
#
# Usage: check_golden.sh [--bin-dir DIR]   (default: <repo>/build)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin_dir="$root/build"
if [[ "${1:-}" == "--bin-dir" ]]; then
  bin_dir="$2"
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# GOLDEN=DECK: tests/golden/GOLDEN holds `adccbench --deck=DECK --quick` as csv.
for pair in fig3_cg_recompute.csv=fig3 fig7_mm_recompute.csv=fig7 \
            ablation_cg_cachesize.csv=ablation_cg_cachesize \
            ablation_mm_rank.csv=ablation_mm_rank \
            ablation_xs_flushfreq.csv=ablation_xs_flushfreq; do
  "$bin_dir/adccbench" --deck="${pair#*=}" --quick --no_timing --format=csv \
    >"$tmp/${pair%%=*}"
done
"$bin_dir/fig10_12_xs_tallies" --quick >"$tmp/fig10_12_xs_tallies.txt"

status=0
for out in "$tmp"/*; do
  name="$(basename "$out")"
  golden="$root/tests/golden/$name"
  if [[ -n "${ADCC_UPDATE_GOLDEN:-}" ]]; then
    cp "$out" "$golden"
    echo "check_golden.sh: updated $golden"
  elif ! cmp -s "$out" "$golden"; then
    echo "check_golden.sh: $name output differs from $golden:" >&2
    diff "$golden" "$out" >&2 || true
    status=1
  fi
done
[[ $status -eq 0 && -z "${ADCC_UPDATE_GOLDEN:-}" ]] && echo "golden tables OK"
exit $status

#!/usr/bin/env bash
# Golden-table regression for the recomputation figures and the ablation
# decks. Each golden is either a fig binary's whole --quick stdout (Figs. 10
# and 12 print no timing) or the --no_timing csv of one or more adccbench /
# ablation decks (Figs. 3 and 7 as the decks equivalent to their --quick
# tables), byte-compared with tests/golden/<name>. The memsim cache model
# places lines by region and offset (never by host address), so these tables
# are a pure function of the code: any diff is a behaviour change. After an
# intentional one, regenerate:
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

# deck NAME BINARY ARGS...: appends the binary's stdout to $tmp/NAME; a csv
# deck appended to a non-empty file drops its repeated header line.
deck() {
  local name="$1" bin="$2"
  shift 2
  if [[ "$name" == *.csv && -s "$tmp/$name" ]]; then
    "$bin_dir/$bin" "$@" | tail -n +2 >>"$tmp/$name"
  else
    "$bin_dir/$bin" "$@" >>"$tmp/$name"
  fi
}

csv=(--no_timing --format=csv)

# Fig. 3: NPB classes S/W/A, crash at line 10 of iteration 15, 8 MB LLC.
for shape in "--n=1400 --nz=7" "--n=7000 --nz=8" "--n=14000 --nz=11"; do
  # shellcheck disable=SC2086  # $shape is two flags.
  deck fig3_cg_recompute.csv adccbench --workload=cg --mode=alg-nvm $shape --iters=15 \
    --cache_mb=8 --crash=point:cg:p_updated:15 "${csv[@]}"
done
# Fig. 7: crash at the end of multiplication / addition #4, rank 64, 8 MB LLC.
deck fig7_mm_recompute.csv adccbench --workload=mm --mode=alg-nvm --seed=7 \
  --sweep=n=384+512,crash=point:mm:loop1_end:4+point:mm:loop2_end:4 --rank=64 \
  --cache_mb=8 "${csv[@]}"
deck fig10_xs_basic.txt fig10_xs_basic --quick
deck fig12_xs_flush.txt fig12_xs_flush --quick
for name in ablation_cg_cachesize ablation_mm_rank ablation_xs_flushfreq; do
  deck "$name.csv" "$name" --quick "${csv[@]}"
done

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

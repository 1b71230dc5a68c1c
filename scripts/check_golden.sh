#!/usr/bin/env bash
# Golden-table regression for the ablation decks: runs each ablation binary at
# --quick --no_timing --format=csv and byte-compares its output with
# tests/golden/<name>.csv. The memsim cache model places lines by region and
# offset (never by host address), so these tables are a pure function of the
# code: any diff is a behaviour change. After an intentional one, regenerate:
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
status=0
for name in ablation_cg_cachesize ablation_mm_rank ablation_xs_flushfreq; do
  golden="$root/tests/golden/$name.csv"
  "$bin_dir/$name" --quick --no_timing --format=csv >"$tmp/$name.csv"
  if [[ -n "${ADCC_UPDATE_GOLDEN:-}" ]]; then
    cp "$tmp/$name.csv" "$golden"
    echo "check_golden.sh: updated $golden"
  elif ! cmp -s "$tmp/$name.csv" "$golden"; then
    echo "check_golden.sh: $name output differs from $golden:" >&2
    diff "$golden" "$tmp/$name.csv" >&2 || true
    status=1
  fi
done
[[ $status -eq 0 && -z "${ADCC_UPDATE_GOLDEN:-}" ]] && echo "golden tables OK"
exit $status

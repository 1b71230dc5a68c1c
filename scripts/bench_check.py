#!/usr/bin/env python3
"""Perf-deck regression gate: compare a fresh BENCH_*.json against the
checked-in baseline and fail on regressions.

The pinned decks (scripts/bench_matrix.sh) are the perf trajectory; this turns
them from an uploaded artifact into a gate:

  bench_check.py CURRENT BASELINE                      # structural + overhead gate
  bench_check.py CURRENT BASELINE --speedup-axis ckpt_threads \
      --speedup-from 1 --speedup-to 4 --speedup-min 1.05
  bench_check.py CURRENT BASELINE --overhead-axis ckpt_async \
      --overhead-from 0 --overhead-to 1 --overhead-max 0.90

Checks, in order:
  1. Both decks hold the same cell set (same workload/mode/crash/axis keys).
  2. Every current cell reports status "ok".
  3. Normalized-overhead regressions: a cell's `normalized` may not exceed the
     baseline's by more than --tol (relative) AND --abs-floor (absolute) at
     once. Normalized values are machine-comparable; raw seconds are not.
     Cells faster than --min-seconds in either deck are skipped (noise).
  4. With --speedup-axis: within each cell group that differs only in that
     axis, seconds[axis=--speedup-to] must beat seconds[axis=--speedup-from]
     by at least --speedup-min (the "parallel durability must actually win"
     acceptance gate — self-relative, so it holds on any machine).
     --speedup-filter KEY=VALUE (repeatable) restricts the gate to matching
     rows — e.g. `--speedup-filter backend=omp` gates the omp rows of a
     backend-crossed threads deck without demanding a serial "speedup".
     --speedup-procs N declares how many CPUs the gate's threshold assumes:
     when the runner has fewer (os.sched_getaffinity), a parallel win is
     physically impossible, so the gate degrades to --speedup-degraded-min
     (a no-regression bound, default 0.90) and its metrics are ratcheted
     under a separate ":degraded" name so starved runs never poison the
     full-width history.
  5. With --overhead-axis: within each cell group that differs only in that
     axis, the *normalized overhead* (normalized - 1, i.e. the durability
     scheme's cost over native) at axis=--overhead-to must be at most
     --overhead-max times the overhead at axis=--overhead-from (the "async
     checkpointing must actually cut the overhead" acceptance gate —
     self-relative like the speedup gate, but measured against the native
     baseline so compute speed cancels out).
  6. With --stage-budget STAGE=FRACTION (repeatable): per-stage fraction
     gates over the telemetry columns. For every cell with measurable stage
     columns, STAGE's share of the checkpoint wall time
     (t_stage + t_crc + t_io) must stay within FRACTION; cells with blank
     ("-") stage columns or zero checkpoint time (native cells) are skipped,
     but the gate fails if NO cell is measurable. The worst fraction per
     budget feeds the history ratchet as a `stage:` metric, so a stage that
     starts eating the checkpoint names itself in the report.
  7. With --history: every self-relative gate metric (speedup, overhead
     ratio, stage fraction) is appended to the given JSONL file, and each is
     ratcheted against the best clean value ever recorded there — a run may
     not be worse than the best-known by more than --ratchet-tol, even if it
     still clears the static gate. The history file is append-only; commit it
     so the trajectory rides along with the pinned decks. Corrupt history
     lines are reported as file:line; blank lines are skipped.

--self-test exercises the stage-budget pass/fail paths and the corrupt-
history diagnostics against synthetic decks (wired into CI and ctest).

Exit status: 0 clean, 1 regression(s), 2 usage/structural error.
"""

import argparse
import json
import os
import sys

# Telemetry stage columns (sweep table): seconds of the last timed rep. The
# t_spmv/t_gemm/t_xs columns are per-kernel slices of t_kernel (docs/
# OBSERVABILITY.md); like t_kernel they are compute, not checkpoint time.
STAGE_COLS = ("t_stage", "t_crc", "t_comp", "t_io", "t_drain", "t_kernel",
              "t_spmv", "t_gemm", "t_xs")
# The stage-budget denominator: the synchronous checkpoint wall time. t_drain
# overlaps these by design and t_kernel is compute, so neither belongs in it.
# t_comp runs on the pipeline workers ahead of the device queue, so it does.
STAGE_DENOM_COLS = ("t_stage", "t_crc", "t_comp", "t_io")
# Columns absent from decks pinned before they existed: an absent key reads as
# zero so old baselines keep gating, but a blank "-" still means unmeasured.
OPTIONAL_STAGE_COLS = ("t_comp",)

# Columns that are measurements, not cell identity. The silent-flip outcomes
# (flips/detected/detect_lat/miscorr) are outcomes like lost and torn, and
# decks pinned before they existed must still match decks that carry them.
MEASUREMENT_COLS = {
    "cell", "units", "seconds", "normalized", "overhead", "lost", "partial",
    "corrected", "torn", "salvaged", "overlap", "detect/unit", "resume/unit",
    "victims", "epochs_rb", "replayed", "halo_kb", "flips", "detected",
    "detect_lat", "miscorr", "status", *STAGE_COLS,
}


def load_deck(path):
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_check: cannot read deck {path}: {e}")
    if not isinstance(rows, list) or not rows:
        sys.exit(f"bench_check: {path} is not a non-empty JSON row array")
    return rows


def cell_key(row, axis_excluded=()):
    return tuple(sorted((k, v) for k, v in row.items()
                        if k not in MEASUREMENT_COLS and k not in axis_excluded))


def parse_float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", nargs="?")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("--tol", type=float, default=0.5,
                    help="max relative normalized-overhead growth (default 0.5)")
    ap.add_argument("--abs-floor", type=float, default=0.75,
                    help="absolute normalized growth ignored below this (default 0.75)")
    ap.add_argument("--min-seconds", type=float, default=0.005,
                    help="skip normalized comparison for cells faster than this")
    ap.add_argument("--speedup-axis", default=None,
                    help="axis column for the self-relative speedup gate")
    ap.add_argument("--speedup-from", default="1")
    ap.add_argument("--speedup-to", default="4")
    ap.add_argument("--speedup-min", type=float, default=1.05)
    ap.add_argument("--speedup-filter", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="repeatable: only rows with row[KEY] == VALUE feed "
                         "the speedup gate (e.g. backend=omp)")
    ap.add_argument("--speedup-procs", type=int, default=0,
                    metavar="N",
                    help="CPUs the --speedup-min threshold assumes; with fewer "
                         "available the gate degrades to --speedup-degraded-min")
    ap.add_argument("--speedup-degraded-min", type=float, default=0.90,
                    help="no-regression bound used when the runner has fewer "
                         "than --speedup-procs CPUs (default 0.90)")
    ap.add_argument("--overhead-axis", default=None,
                    help="axis column for the normalized-overhead ratio gate")
    ap.add_argument("--overhead-from", default="0")
    ap.add_argument("--overhead-to", default="1")
    ap.add_argument("--overhead-max", type=float, default=0.90,
                    help="max (normalized-1) ratio of --overhead-to vs --overhead-from")
    ap.add_argument("--stage-budget", action="append", default=[],
                    metavar="STAGE=FRACTION",
                    help="repeatable: gate STAGE's share of the checkpoint wall "
                         "time (t_stage+t_crc+t_io) to at most FRACTION, e.g. "
                         "t_crc=0.35")
    ap.add_argument("--history", default=None,
                    help="JSONL ratchet file: append this run's gate metrics and "
                         "fail any metric that regresses past --ratchet-tol of its "
                         "best-known clean value")
    ap.add_argument("--ratchet-tol", type=float, default=0.25,
                    help="allowed relative slack vs the best-known history value")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in self-test against synthetic decks")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.current is None or args.baseline is None:
        ap.error("current and baseline decks are required (or use --self-test)")
    # Gate metrics for the history ratchet: name -> (value, "higher"|"lower").
    metrics = {}

    current = load_deck(args.current)
    baseline = load_deck(args.baseline)

    cur_by_key = {cell_key(r): r for r in current}
    base_by_key = {cell_key(r): r for r in baseline}
    failures = []

    missing = sorted(set(base_by_key) - set(cur_by_key))
    extra = sorted(set(cur_by_key) - set(base_by_key))
    for key in missing:
        failures.append(f"cell disappeared from the deck: {dict(key)}")
    for key in extra:
        failures.append(f"unbaselined cell in the deck (re-pin the baseline): {dict(key)}")

    for key, row in sorted(cur_by_key.items()):
        if row.get("status") != "ok":
            failures.append(f"cell not ok ({row.get('status')!r}): {dict(key)}")

    for key, row in sorted(cur_by_key.items()):
        base = base_by_key.get(key)
        if base is None:
            continue
        cur_norm, base_norm = parse_float(row.get("normalized")), parse_float(base.get("normalized"))
        cur_s, base_s = parse_float(row.get("seconds")), parse_float(base.get("seconds"))
        if None in (cur_norm, base_norm, cur_s, base_s):
            continue
        if min(cur_s, base_s) < args.min_seconds:
            continue  # Sub-noise-floor cells cannot carry a verdict.
        if (cur_norm > base_norm * (1 + args.tol)
                and cur_norm - base_norm > args.abs_floor):
            failures.append(
                f"normalized regression {base_norm:.3f} -> {cur_norm:.3f} "
                f"(tol {args.tol:.0%} + {args.abs_floor}): {dict(key)}")

    if args.speedup_axis:
        axis = args.speedup_axis
        filters = {}
        for spec in args.speedup_filter:
            key, sep, value = spec.partition("=")
            if not sep or not key:
                sys.exit(f"bench_check: bad --speedup-filter {spec!r} (want KEY=VALUE)")
            filters[key] = value
        # Degrade to a no-regression bound when the machine cannot possibly
        # show the full-width parallel win (CI runners vary; a 1-CPU box
        # cannot make 4 threads beat 1).
        speedup_min, metric_suffix = args.speedup_min, ""
        if args.speedup_procs > 0:
            avail = len(os.sched_getaffinity(0))
            if avail < args.speedup_procs:
                speedup_min, metric_suffix = args.speedup_degraded_min, ":degraded"
                print(f"bench_check: speedup gate degraded: {avail} CPU(s) "
                      f"available, threshold assumes {args.speedup_procs}; "
                      f"gating no-regression >= {speedup_min:.2f}x instead")
        groups = {}
        for row in current:
            if axis not in row:
                continue
            if any(row.get(k) != v for k, v in filters.items()):
                continue
            groups.setdefault(cell_key(row, axis_excluded=(axis,)), {})[row[axis]] = row
        if not groups:
            failures.append(f"speedup gate: no cells carry axis '{axis}'"
                            + (f" and match {filters}" if filters else ""))
        for gkey, by_axis in sorted(groups.items()):
            lo = by_axis.get(args.speedup_from)
            hi = by_axis.get(args.speedup_to)
            if lo is None or hi is None:
                failures.append(
                    f"speedup gate: {axis}={args.speedup_from}/{args.speedup_to} "
                    f"missing in group {dict(gkey)}")
                continue
            lo_s, hi_s = parse_float(lo.get("seconds")), parse_float(hi.get("seconds"))
            if lo_s is None or hi_s is None or hi_s <= 0:
                failures.append(f"speedup gate: unreadable seconds in group {dict(gkey)}")
                continue
            speedup = lo_s / hi_s
            gname = ";".join(f"{k}={v}" for k, v in gkey)
            metrics[f"speedup{metric_suffix}:{axis}:"
                    f"{args.speedup_from}->{args.speedup_to}:{gname}"] = (
                speedup, "higher")
            verdict = "ok" if speedup >= speedup_min else "FAIL"
            print(f"bench_check: {axis} {args.speedup_from}->{args.speedup_to} "
                  f"speedup {speedup:.2f}x (need >= {speedup_min:.2f}x) "
                  f"[{verdict}] {dict(gkey)}")
            if speedup < speedup_min:
                failures.append(
                    f"{axis}={args.speedup_to} does not beat ={args.speedup_from}: "
                    f"{lo_s:.4f}s -> {hi_s:.4f}s ({speedup:.2f}x) in {dict(gkey)}")

    if args.overhead_axis:
        axis = args.overhead_axis
        groups = {}
        for row in current:
            if axis not in row:
                continue
            groups.setdefault(cell_key(row, axis_excluded=(axis,)), {})[row[axis]] = row
        if not groups:
            failures.append(f"overhead gate: no cells carry axis '{axis}'")
        for gkey, by_axis in sorted(groups.items()):
            lo = by_axis.get(args.overhead_from)
            hi = by_axis.get(args.overhead_to)
            if lo is None or hi is None:
                failures.append(
                    f"overhead gate: {axis}={args.overhead_from}/{args.overhead_to} "
                    f"missing in group {dict(gkey)}")
                continue
            lo_n, hi_n = parse_float(lo.get("normalized")), parse_float(hi.get("normalized"))
            if lo_n is None or hi_n is None or lo_n <= 1.0:
                failures.append(
                    f"overhead gate: unusable normalized values "
                    f"({lo.get('normalized')!r} vs {hi.get('normalized')!r}; the deck "
                    f"must run with a native baseline and real durability overhead) "
                    f"in group {dict(gkey)}")
                continue
            ratio = (hi_n - 1.0) / (lo_n - 1.0)
            gname = ";".join(f"{k}={v}" for k, v in gkey)
            metrics[f"overhead:{axis}:{args.overhead_from}->{args.overhead_to}:{gname}"] = (
                ratio, "lower")
            verdict = "ok" if ratio <= args.overhead_max else "FAIL"
            print(f"bench_check: {axis} {args.overhead_from}->{args.overhead_to} "
                  f"overhead {lo_n - 1.0:.3f} -> {hi_n - 1.0:.3f} "
                  f"({ratio:.2f}x, need <= {args.overhead_max:.2f}x) "
                  f"[{verdict}] {dict(gkey)}")
            if ratio > args.overhead_max:
                failures.append(
                    f"{axis}={args.overhead_to} does not cut ={args.overhead_from}'s "
                    f"overhead to {args.overhead_max:.2f}x: {lo_n - 1.0:.3f} -> "
                    f"{hi_n - 1.0:.3f} ({ratio:.2f}x) in {dict(gkey)}")

    for spec in args.stage_budget:
        stage, _, frac = spec.partition("=")
        budget = parse_float(frac)
        if stage not in STAGE_COLS or budget is None or not 0 < budget <= 1:
            sys.exit(f"bench_check: bad --stage-budget {spec!r} "
                     f"(want STAGE=FRACTION with STAGE in {'/'.join(STAGE_COLS)} "
                     f"and 0 < FRACTION <= 1)")
        gated = 0
        worst = None
        for row in current:
            denom_vals = [
                0.0 if c in OPTIONAL_STAGE_COLS and c not in row
                else parse_float(row.get(c))
                for c in STAGE_DENOM_COLS
            ]
            value = parse_float(row.get(stage))
            if value is None or None in denom_vals:
                continue  # Blank ("-") stage columns: --no_timing or old deck.
            denom = sum(denom_vals)
            if denom <= 0:
                continue  # Native cells run no checkpoint stages.
            fraction = value / denom
            gated += 1
            if worst is None or fraction > worst[0]:
                worst = (fraction, row)
            if fraction > budget:
                failures.append(
                    f"stage budget: {stage} is {fraction:.1%} of the checkpoint "
                    f"wall time (budget {budget:.0%}) in cell "
                    f"{row.get('workload')}/{row.get('mode')}"
                    f"{'/' + row.get('crash') if row.get('crash') else ''} "
                    f"(cell {row.get('cell')})")
        if gated == 0:
            failures.append(
                f"stage budget: no cell carries measurable stage columns for "
                f"{stage} (deck predates telemetry or ran --no_timing)")
        else:
            metrics[f"stage:{stage}"] = (worst[0], "lower")
            verdict = "ok" if worst[0] <= budget else "FAIL"
            print(f"bench_check: stage budget {stage} worst {worst[0]:.1%} of "
                  f"checkpoint time across {gated} cells (budget {budget:.0%}) "
                  f"[{verdict}]")

    if args.history:
        records = []
        if os.path.exists(args.history):
            with open(args.history) as f:
                for lineno, line in enumerate(f, 1):
                    line = line.strip()
                    if not line:
                        continue  # Blank lines (trailing newlines, hand edits) are fine.
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError as e:
                        sys.exit(f"bench_check: {args.history}:{lineno}: "
                                 f"corrupt history line: {e}")
        # Ratchet every gate metric against the best clean value on record.
        for name, (value, better) in sorted(metrics.items()):
            best = None
            for rec in records:
                if rec.get("status") != "ok":
                    continue
                past = parse_float(rec.get("metrics", {}).get(name))
                if past is None:
                    continue
                if best is None or (better == "higher") == (past > best):
                    best = past
            if best is None:
                continue
            if better == "higher" and value < best * (1 - args.ratchet_tol):
                failures.append(
                    f"history ratchet: {name} fell to {value:.3f} "
                    f"(best-known {best:.3f}, tol {args.ratchet_tol:.0%})")
            elif better == "lower" and value > best * (1 + args.ratchet_tol):
                failures.append(
                    f"history ratchet: {name} rose to {value:.3f} "
                    f"(best-known {best:.3f}, tol {args.ratchet_tol:.0%})")
        record = {
            "deck": os.path.basename(args.current),
            "baseline": os.path.basename(args.baseline),
            "cells": len(current),
            "status": "fail" if failures else "ok",
            "metrics": {name: value for name, (value, _) in sorted(metrics.items())},
        }
        with open(args.history, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    if failures:
        print(f"bench_check: {len(failures)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"bench_check OK: {len(current)} cells within tolerance of {args.baseline}")
    return 0


def self_test():
    """Prove the stage-budget gate passes, fails when a stage blows its
    budget, skips unmeasurable cells, and that corrupt history lines are
    reported as file:line — all via real subprocess invocations."""
    import shutil
    import subprocess
    import tempfile

    tmp = tempfile.mkdtemp(prefix="bench_check_selftest.")
    me = os.path.abspath(__file__)

    def deck(name, rows):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(rows, f)
        return path

    def run(*argv):
        return subprocess.run([sys.executable, me, *argv],
                              capture_output=True, text=True)

    def stage_row(mode, t_stage, t_crc, t_io, t_comp="0.0000"):
        return {
            "cell": "0", "workload": "cg", "mode": mode, "crash": "none",
            "units": "3", "seconds": "0.5000", "normalized": "-",
            "overhead": "-", "lost": "0", "partial": "0", "corrected": "0",
            "torn": "0", "salvaged": "0", "overlap": "-", "detect/unit": "-",
            "resume/unit": "-", "victims": "0", "epochs_rb": "0",
            "replayed": "0", "halo_kb": "0.0", "t_stage": t_stage,
            "t_crc": t_crc, "t_comp": t_comp if t_stage != "-" else "-",
            "t_io": t_io, "t_drain": "-",
            "t_kernel": "0.4000", "t_spmv": "0.3500", "t_gemm": "0.0000",
            "t_xs": "0.0000", "status": "ok",
        }

    def speedup_row(cell, backend, threads, seconds):
        row = stage_row("native", "-", "-", "-")
        row.update({"cell": cell, "backend": backend, "threads": threads,
                    "seconds": seconds})
        return row

    # A native cell (blank stage columns, must be skipped) plus a ckpt cell
    # where t_crc is 10% of the 0.20s checkpoint wall time.
    lean = deck("lean.json", [
        stage_row("native", "-", "-", "-"),
        stage_row("ckpt-disk", "0.0400", "0.0200", "0.1400"),
    ])
    # Same deck with CRC inflated to 50% of the checkpoint time.
    fat = deck("fat.json", [
        stage_row("native", "-", "-", "-"),
        stage_row("ckpt-disk", "0.0400", "0.1000", "0.0600"),
    ])
    # No measurable cell at all: the gate must refuse to silently pass.
    blank = deck("blank.json", [stage_row("native", "-", "-", "-")])

    problems = []

    def expect(label, proc, code, needle=None):
        output = proc.stdout + proc.stderr
        if proc.returncode != code:
            problems.append(f"{label}: exit {proc.returncode}, want {code}:\n{output}")
        elif needle is not None and needle not in output:
            problems.append(f"{label}: output lacks {needle!r}:\n{output}")

    expect("budget-pass", run(lean, lean, "--stage-budget", "t_crc=0.35"),
           0, "stage budget t_crc worst 10.0%")
    # Decks pinned before the codec landed lack the t_comp column entirely;
    # the denominator must read it as zero, not skip the cell.
    old_rows = [stage_row("ckpt-disk", "0.0400", "0.0200", "0.1400")]
    for row in old_rows:
        del row["t_comp"], row["salvaged"]
    old = deck("old.json", old_rows)
    expect("budget-old-deck", run(old, old, "--stage-budget", "t_crc=0.35"),
           0, "stage budget t_crc worst 10.0%")
    # A deck carrying the silent-flip outcome columns still matches a
    # baseline pinned before they existed: they are measurements, not keys.
    flip_rows = [stage_row("ckpt-disk", "0.0400", "0.0200", "0.1400")]
    for row in flip_rows:
        row.update({"flips": "0", "detected": "0", "detect_lat": "-", "miscorr": "0"})
    flip = deck("flip.json", flip_rows)
    pre_flip = deck("pre_flip.json", [stage_row("ckpt-disk", "0.0400", "0.0200", "0.1400")])
    expect("flip-cols-are-measurements", run(flip, pre_flip), 0, "bench_check OK: 1 cells")
    # And in a current deck t_comp joins the denominator: 0.02 / 0.25 = 8%.
    comp = deck("comp.json", [
        stage_row("ckpt-disk", "0.0400", "0.0200", "0.1400", "0.0500"),
    ])
    expect("budget-comp-denom", run(comp, comp, "--stage-budget", "t_crc=0.35"),
           0, "stage budget t_crc worst 8.0%")
    expect("budget-comp-gate", run(comp, comp, "--stage-budget", "t_comp=0.10"),
           1, "stage budget: t_comp is 20.0%")
    expect("budget-fail", run(fat, fat, "--stage-budget", "t_crc=0.35"),
           1, "stage budget: t_crc is 50.0%")
    expect("budget-unmeasurable", run(blank, blank, "--stage-budget", "t_crc=0.35"),
           1, "no cell carries measurable stage columns")
    expect("budget-bad-spec", run(lean, lean, "--stage-budget", "t_crc=nan"),
           1, "bad --stage-budget")
    expect("budget-bad-stage", run(lean, lean, "--stage-budget", "seconds=0.5"),
           1, "bad --stage-budget")

    # Speedup gate with a backend filter: omp scales 2.0x, serial stays flat
    # (as it must — the serial rows never see the threads axis). Unfiltered,
    # the serial group fails the 1.3x bar; filtered to backend=omp it passes.
    threads_deck = deck("threads.json", [
        speedup_row("0", "serial", "1", "0.4000"),
        speedup_row("1", "serial", "4", "0.4000"),
        speedup_row("2", "omp", "1", "0.4000"),
        speedup_row("3", "omp", "4", "0.2000"),
    ])
    speedup_args = ("--speedup-axis", "threads", "--speedup-from", "1",
                    "--speedup-to", "4", "--speedup-min", "1.3")
    expect("speedup-unfiltered-fail", run(threads_deck, threads_deck, *speedup_args),
           1, "threads=4 does not beat =1")
    expect("speedup-filtered-pass",
           run(threads_deck, threads_deck, *speedup_args,
               "--speedup-filter", "backend=omp"),
           0, "speedup 2.00x")
    expect("speedup-filter-empty",
           run(threads_deck, threads_deck, *speedup_args,
               "--speedup-filter", "backend=cuda"),
           1, "no cells carry axis")
    expect("speedup-bad-filter",
           run(threads_deck, threads_deck, *speedup_args, "--speedup-filter", "omp"),
           1, "bad --speedup-filter")
    # Degraded mode: demanding more CPUs than any machine has must drop the
    # bar to the no-regression bound, which a flat serial group clears.
    expect("speedup-degraded",
           run(threads_deck, threads_deck, *speedup_args,
               "--speedup-procs", "100000"),
           0, "speedup gate degraded")
    # But an actual slowdown still fails even degraded.
    slow_deck = deck("slow.json", [
        speedup_row("0", "omp", "1", "0.2000"),
        speedup_row("1", "omp", "4", "0.4000"),
    ])
    expect("speedup-degraded-regression",
           run(slow_deck, slow_deck, *speedup_args, "--speedup-procs", "100000"),
           1, "does not beat")
    # Degraded metrics ratchet under their own name, leaving full-width
    # history untouched.
    dhist = os.path.join(tmp, "dhist.jsonl")
    proc = run(threads_deck, threads_deck, *speedup_args,
               "--speedup-filter", "backend=omp", "--speedup-procs", "100000",
               "--history", dhist)
    expect("speedup-degraded-history", proc, 0)
    with open(dhist) as f:
        drec = [json.loads(l) for l in f if l.strip()][-1]
    if not any(name.startswith("speedup:degraded:") for name in drec["metrics"]):
        problems.append(f"degraded metric name missing: {drec['metrics']}")

    # Corrupt history: line 3 (after a valid record and a skipped blank) must
    # be named file:3 in the error.
    hist = os.path.join(tmp, "hist.jsonl")
    with open(hist, "w") as f:
        f.write(json.dumps({"status": "ok", "metrics": {}}) + "\n")
        f.write("\n")
        f.write("{not json\n")
    expect("history-corrupt", run(lean, lean, "--history", hist),
           1, f"{hist}:3: corrupt history line")

    # Clean history appends a record carrying the stage metric.
    with open(hist, "w") as f:
        f.write(json.dumps({"status": "ok", "metrics": {}}) + "\n")
    expect("history-append",
           run(lean, lean, "--stage-budget", "t_crc=0.35", "--history", hist), 0)
    with open(hist) as f:
        lines = [json.loads(l) for l in f if l.strip()]
    if len(lines) != 2 or parse_float(lines[-1].get("metrics", {}).get("stage:t_crc")) is None:
        problems.append(f"history-append: stage metric not recorded: {lines}")
    # And the ratchet fires when the stage fraction balloons past best-known.
    expect("history-ratchet",
           run(fat, fat, "--stage-budget", "t_crc=0.60", "--history", hist),
           1, "history ratchet: stage:t_crc rose")

    shutil.rmtree(tmp, ignore_errors=True)
    if problems:
        print(f"bench_check --self-test: {len(problems)} failure(s):", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("bench_check --self-test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

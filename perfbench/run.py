#!/usr/bin/env python3
"""End-to-end benchmark of the seven durability modes, crash recovery and the
durability engine's shard/async/codec/dirty-commit layers.

    python3 perfbench/run.py --workload cg|mm|mc --seed N --seconds S --trace 0|1

Run from the repository root. Every run configures and builds perfbench/
(CMake, Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset; only the first run compiles, later ones find the
build current. The driver then measures for S seconds and verifies the
result of every run; its one-line JSON result is the last line printed here.
Checkpoint files and the trace land under the build directory.
Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cg", "mm", "mc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        driver = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Per-process scratch: checkpoint slot files, and TMPDIR for anything
    # the engine would otherwise put in the system temp dir.
    scratch = os.path.join(build_dir, f"run.{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    try:
        proc = subprocess.run(
            [driver, f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}", f"--scratch={scratch}"],
            stdout=subprocess.PIPE, text=True, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    finally:
        trace = os.path.join(scratch, f"trace-{args.workload}.json")
        if os.path.exists(trace):
            shutil.move(trace, os.path.join(build_dir, f"trace-{args.workload}.json"))
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed driver result", file=sys.stderr)
        return 1
    # The metrics must be exactly the manifest's for this mode, in its units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in manifest}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        print(f"perfbench: driver metric names or units differ from BENCHMARK.json: "
              f"missing {sorted(expected.keys() - got.keys())}, "
              f"extra {sorted(got.keys() - expected.keys())}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the qsys benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--instance-seed N]
    python3 perfbench/run.py --workload all [--seed N] ...

Builds the benchmark package (perfbench/Cargo.toml, release profile,
offline) into $CARGO_TARGET_DIR, or .bench_build when that is unset, then
runs it. The last line of standard output is the run's JSON result.
`--workload all` runs gus-full, gus-cl and gus-interactive in turn and
prints each one's metrics; gus-full alone takes about three minutes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
ALL = ["gus-full", "gus-cl", "gus-interactive"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 900


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"run.py: build failed with exit code {done.returncode}", file=sys.stderr)
        return False
    return True


def run(binary, args):
    """Run one workload; echo its output; return (exit code, result)."""
    try:
        done = subprocess.run([str(binary)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        return done.returncode, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("run.py: the last output line is not JSON", file=sys.stderr)
        return 1, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"run.py: unexpected result keys {sorted(result)}", file=sys.stderr)
        return 1, None
    sys.stdout.write(done.stdout if done.stdout.endswith("\n") else done.stdout + "\n")
    return 0, result


def main():
    args = sys.argv[1:]
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    if not build(target_dir):
        return 1
    binary = target_dir / "release" / "qsys-perfbench"
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        i = args.index("--workload")
        rest = args[:i] + args[i + 2:]
        code = 0
        for name in ALL:
            code, _ = run(binary, ["--workload", name] + rest)
            if code != 0:
                return code
        return code
    code, _ = run(binary, args)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Same-machine A/B of the repo benchmark: a base revision against the
# working tree.
#
#   scripts/ab.sh <base-rev> <workload> [pairs=10]
#
# Exports <base-rev> with `git archive` into a scratch directory (the
# repository's .git is only read), builds each side's qsys-perfbench
# (release, --offline) into its own CARGO_TARGET_DIR, then runs
# `qsys-perfbench --workload <workload> --seconds 34 --trace 0` <pairs>
# times per side, each side from its own checkout, alternating which side
# goes first. Each run's last output line (its JSON result) is kept under
# the scratch directory. The summary prints every pair, then per
# end-to-end metric of BENCHMARK.json each side's median and [q1, q3] and
# how many pairs the working tree won.
#
# AB_DIR picks the scratch directory (default: a fresh `mktemp -d`).
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: scripts/ab.sh <base-rev> <workload> [pairs=10]" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
head_root=$(cd "$(dirname "$0")/.." && pwd)
scratch=${AB_DIR:-$(mktemp -d)}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)

base_root=$scratch/base
rm -rf "$base_root"
mkdir -p "$base_root" "$scratch/runs"
git -C "$head_root" archive "$base_rev" | tar -x -C "$base_root"
echo "==> base $(git -C "$head_root" rev-parse --short "$base_rev") exported to $base_root" >&2

build() { # <side> <checkout>
    echo "==> building $1" >&2
    CARGO_TARGET_DIR=$scratch/target-$1 cargo build --release --offline --quiet \
        --manifest-path "$2/perfbench/Cargo.toml"
}
build base "$base_root"
build head "$head_root"

run() { # <side> <checkout> <pair>
    local out=$scratch/runs/$1-$3.json
    (cd "$2" && "$scratch/target-$1/release/qsys-perfbench" \
        --workload "$workload" --seconds 34 --trace 0) | tail -n 1 >"$out"
    echo "    pair $3 $1: $(cut -c1-100 "$out")..." >&2
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run base "$base_root" "$i"
        run head "$head_root" "$i"
    else
        run head "$head_root" "$i"
        run base "$base_root" "$i"
    fi
done

python3 - "$head_root/BENCHMARK.json" "$scratch/runs" "$pairs" "$workload" <<'EOF'
import json, statistics, sys
bench, runs, pairs, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
metrics = json.load(open(bench))["end_to_end"]
load = lambda side, i: json.load(open(f"{runs}/{side}-{i}.json"))
base = [load("base", i) for i in range(1, pairs + 1)]
head = [load("head", i) for i in range(1, pairs + 1)]
value = lambda run, name: run["metrics"][name]["value"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3

print(f"A/B {workload}: {pairs} pairs, base vs working tree (odd pairs ran base first)")
print("pair  side  correct failed  " + "  ".join(m["name"] for m in metrics))
for i, (b, h) in enumerate(zip(base, head), 1):
    for side, r in (("base", b), ("head", h)):
        vals = "  ".join(f"{value(r, m['name']):>{len(m['name'])}.5g}" for m in metrics)
        print(f"{i:>4}  {side}  {str(r['correct']):>7} {r['failed']:>6}  {vals}")
print()
print(f"{'metric':<22} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32}  head wins")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    bs = [value(r, name) for r in base]
    hs = [value(r, name) for r in head]
    wins = sum((h > b) if higher else (h < b) for b, h in zip(bs, hs))
    fmt = lambda q: f"{q[0]:.6g} [{q[1]:.6g}, {q[2]:.6g}]"
    same = "  (equal in every pair)" if bs == hs else ""
    print(f"{name:<22} {fmt(quartiles(bs)):>32} {fmt(quartiles(hs)):>32}  {wins}/{pairs}{same}")
EOF
echo "runs kept in $scratch/runs" >&2

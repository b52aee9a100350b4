#!/usr/bin/env python3
"""Same-host A/B of the benchmark: a base revision against this checkout.

    python3 bench/suite/ab.py BASE_REV [--pairs 10] [--workload NAME ...]
                              [--seed 42] [--seconds S]

Extracts BASE_REV with `git archive` into build-bench-base/tree and copies
this checkout's benchmark (BENCHMARK.json and bench/suite/) over it, so both
sides run identical benchmark code with identical settings. Then it runs
--pairs base/change pairs of every workload's timed pass, alternating which
side runs first, and prints, per workload and end-to-end metric, both
medians and quartiles, how many pairs the change won (ties count for
neither), and a verdict under the bounds in BENCHMARK.json:

  wrong       some run of either side gave a wrong answer
  improved    the change won at least 90% of the pairs, and the medians
              differ by more than the base runs' quartile spread
  regressed   the change's median is worse than the base's by more than
              the bound
  unresolved  the base runs spread wider than the bound, and not every
              change run beats every base run
  no-worse    otherwise

Claim a gain on one metric of one workload named beforehand, and check it
again with a seed not used while the change was written (see README.md).
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BASE = ROOT / "build-bench-base" / "tree"


def prepare_base(rev):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    shutil.rmtree(BASE, ignore_errors=True)
    BASE.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(BASE, filter="data")
    shutil.copy2(ROOT / "BENCHMARK.json", BASE / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench" / "suite", BASE / "bench" / "suite", dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))


def run(tree, workload, seed, seconds, reps=0):
    """One timed pass in `tree`; returns the run.py JSON record."""
    cmd = [sys.executable, "bench/suite/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if reps:
        cmd += ["--reps", str(reps)]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def compare(metric, base, change, correct):
    """Returns (pairs the change won, verdict) for one metric's paired runs."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(better(c, b) for b, c in zip(base, change))
    bq1, bmed, bq3 = statistics.quantiles(base, n=4)
    cmed = statistics.median(change)
    worse = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    if not correct:
        return wins, "wrong"
    if wins >= 0.9 * len(base) and better(cmed, bmed) and abs(cmed - bmed) > bq3 - bq1:
        return wins, "improved"
    if worse > metric["bound"]:
        return wins, "regressed"
    all_better = all(better(c, b) for c in change for b in base)
    if (bq3 - bq1) / bmed > metric["bound"] and not all_better:
        return wins, "unresolved"
    return wins, "no-worse"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.pairs < 2:
        sys.exit("ab.py: need at least 2 pairs for quartiles")
    workloads = args.workload or names

    prepare_base(args.base_rev)
    sides = {"base": BASE, "change": ROOT}
    for tree in sides.values():  # builds each side and checks it runs
        run(tree, workloads[0], args.seed, args.seconds, reps=1)

    records = {w: {"base": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in workloads:
            for side in order:
                records[w][side].append(run(sides[side], w, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"A/B {args.base_rev} (base) vs checkout (change): seed {args.seed}, "
          f"{args.pairs} pairs, {args.seconds:g} s runs")
    print(f"{'workload':18s} {'metric':12s} {'base median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'wins':>6s}  verdict")
    for w in workloads:
        runs = records[w]
        correct = all(r["correct"] for side in runs.values() for r in side)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in runs["base"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            cells = []
            for values in (base, change):
                q1, med, q3 = statistics.quantiles(values, n=4)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {metric['unit']}")
            wins, verdict = compare(metric, base, change, correct)
            print(f"{w:18s} {name:12s} {cells[0]:32s} {cells[1]:32s} "
                  f"{wins:>3d}/{len(base):<2d}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

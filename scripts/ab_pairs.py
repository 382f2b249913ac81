#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts, parent and change.

    python scripts/ab_pairs.py PARENT CHANGE [--workload NAME ...]
        [--pairs 10] [--seconds 10] [--seed 1]

For each workload (every one in CHANGE's BENCHMARK.json unless --workload
names some), each pair runs ``perfbench/run.py --trace 0`` once in each
checkout, one after the other; the side that goes first alternates from pair
to pair.  For every end-to-end metric of BENCHMARK.json it then prints the
parent's median and interquartile range, the change's median and relative
difference, and in how many pairs the change won and tied by the metric's
``better`` direction.  A workload is flagged when a pair's certificate
digests differ or a run does not report ``"correct": true``.

The runs take pairs * 2 * (seconds + set-up) per workload, so ten 10 s pairs
of the three workloads take about twelve minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``: its end-to-end metric
    values, digest and correctness."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    *_, details, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": json.loads(details)["digest"],
        "correct": result["correct"],
    }


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over the pairs (parent[i], change[i]),
    each a run as ``run_once`` returns it."""
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        p = [run["metrics"][name] for run in parent]
        c = [run["metrics"][name] for run in change]
        q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else (p[0],) * 3
        p_med, c_med = statistics.median(p), statistics.median(c)
        rows.append({
            "metric": name,
            "parent_median": p_med,
            "parent_iqr": q3 - q1,
            "change_median": c_med,
            "change_pct": 100 * (c_med - p_med) / p_med if p_med else 0.0,
            "wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
            "ties": sum(x == y for x, y in zip(p, c)),
            "pairs": len(p),
        })
    return rows


def flags(parent: list[dict], change: list[dict]) -> list[str]:
    """What makes a workload's pairs untrustworthy: differing digests or a
    run that was not correct."""
    out = []
    if any(a["digest"] != b["digest"] for a, b in zip(parent, change)):
        out.append("DIGESTS DIFFER")
    if not all(run["correct"] for run in parent + change):
        out.append("A RUN WAS NOT CORRECT")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs = {args.parent: [], args.change: []}
        for i in range(args.pairs):
            order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
            for side in order:
                runs[side].append(run_once(side, workload, args.seed, args.seconds))
        parent, change = runs[args.parent], runs[args.change]
        print(f"{workload}  seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s  {' '.join(flags(parent, change))}")
        print(f"  {'metric':<18} {'parent p50':>12} {'IQR':>10} {'change p50':>12} {'change':>8}  wins/ties")
        for row in summarize(parent, change, bench["end_to_end"]):
            print(
                f"  {row['metric']:<18} {row['parent_median']:>12.4g} {row['parent_iqr']:>10.3g}"
                f" {row['change_median']:>12.4g} {row['change_pct']:>+7.1f}%  {row['wins']}/{row['ties']}"
                f" of {row['pairs']}"
            )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

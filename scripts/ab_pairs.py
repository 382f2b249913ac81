#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts, parent and change.

    python scripts/ab_pairs.py PARENT CHANGE [--workload NAME ...]
        [--pairs 10] [--seconds 10] [--seed 1 ...] [--json FILE]

Both checkouts' ``src/``, ``perfbench/`` and ``scripts/`` are byte-compiled
first, so that a side whose bytecode is stale or missing does not compile
on every import when the environment turns bytecode writing off
(PYTHONDONTWRITEBYTECODE).  Then, for each workload (every one in CHANGE's
BENCHMARK.json unless --workload names some) and each seed (1 unless
--seed names some), each pair runs ``perfbench/run.py --trace 0`` once in
each checkout, one after the other; the side that goes first alternates
from pair to pair.  For every end-to-end metric of BENCHMARK.json it then
prints the parent's median and interquartile range, the change's median and
relative difference, and in how many pairs the change won and tied by the
metric's ``better`` direction.  A workload is flagged when a pair's
certificate digests differ or a run does not report ``"correct": true``.
--json writes every run's two result lines and the per-metric summary of
each workload and seed to FILE, in the shape of the committed
``BENCH_<n>.json`` files.

The runs take pairs * 2 * (seconds + set-up) per workload and seed, so ten
10 s pairs of the three workloads take about twelve minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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
    result, detail = json.loads(last), json.loads(details)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": detail["digest"],
        "correct": result["correct"],
        "result": result,
        "detail": detail,
    }


def compile_checkout(checkout: Path) -> None:
    """Byte-compile the checkout's ``src/``, ``perfbench/`` and ``scripts/``."""
    dirs = [str(checkout / name) for name in ("src", "perfbench", "scripts")]
    subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs], check=True)


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


# end-to-end metrics whose per-pair readings the JSON summary lists
PAIRED = ("construct_ms_p50", "verify_ms_p50", "certs_per_s")


def json_summary(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """The summary of one workload and seed as a BENCH_<n>.json file holds
    it: per end-to-end metric the medians, the parent's IQR, both ranges,
    the relative change and the wins and ties, the per-pair readings of the
    PAIRED metrics, and each side's item counts, correctness and digests."""
    out = {}
    for row in summarize(parent, change, end_to_end):
        name = row["metric"]
        p = [run["metrics"][name] for run in parent]
        c = [run["metrics"][name] for run in change]
        out[name] = {
            "parent_median": row["parent_median"],
            "parent_iqr": row["parent_iqr"],
            "parent_range": [min(p), max(p)],
            "change_median": row["change_median"],
            "change_range": [min(c), max(c)],
            "relative_change": row["change_pct"] / 100,
            "wins": row["wins"],
            "ties": row["ties"],
        }
        if name in PAIRED:
            out[f"{name}_pairs_parent_change"] = [[x, y] for x, y in zip(p, c)]
    sides = {"parent": parent, "change": change}
    out.update(
        pairs=len(parent),
        attempted={side: [run["result"]["attempted"] for run in runs] for side, runs in sides.items()},
        failed={side: [run["result"]["failed"] for run in runs] for side, runs in sides.items()},
        all_correct=all(run["correct"] for run in parent + change),
        digests_equal="DIGESTS DIFFER" not in flags(parent, change),
        digest=parent[0]["digest"],
        mutation_rejected_all=all(run["detail"].get("mutation_rejected") for run in parent + change),
    )
    return out


def json_document(parent: Path, change: Path, seconds: float, runs: list[dict], summary: dict) -> dict:
    """The --json file: how the runs were made, each run's result lines
    (``runs``: workload, seed, pair, side, order, result, detail) and the
    summary of each workload and seed, keyed "WORKLOAD seed N"."""
    return {
        "about": (
            f"scripts/ab_pairs.py: perfbench/run.py --seconds {seconds:g} --trace 0 result lines"
            " (the last two stdout lines of each run) for the parent and the change, one run at a"
            " time; even pairs ran the parent first, odd pairs the change first. parent_iqr is"
            " q3 - q1 of the parent's runs by statistics.quantiles(n=4, method='inclusive')."
        ),
        "parent": str(parent),
        "change": str(change),
        "machine": (
            f"{platform.machine()}, {os.cpu_count()} CPUs, "
            f"{platform.python_implementation()} {platform.python_version()}"
        ),
        "runs": runs,
        "summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for side in (args.parent, args.change):
        compile_checkout(side)
    records, summary = [], {}
    for workload, seed in [(w, seed) for w in workloads for seed in args.seed or [1]]:
        runs = {args.parent: [], args.change: []}
        for i in range(args.pairs):
            order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
            for side in order:
                run = run_once(side, workload, seed, args.seconds)
                runs[side].append(run)
                records.append({
                    "workload": workload, "seed": seed, "pair": i,
                    "side": "parent" if side == args.parent else "change",
                    "order": "first" if side == order[0] else "second",
                    "result": run["result"], "detail": run["detail"],
                })
        parent, change = runs[args.parent], runs[args.change]
        summary[f"{workload} seed {seed}"] = json_summary(parent, change, bench["end_to_end"])
        print(f"{workload}  seed {seed}, {args.pairs} pairs of {args.seconds:g} s  {' '.join(flags(parent, change))}")
        print(f"  {'metric':<18} {'parent p50':>12} {'IQR':>10} {'change p50':>12} {'change':>8}  wins/ties")
        for row in summarize(parent, change, bench["end_to_end"]):
            print(
                f"  {row['metric']:<18} {row['parent_median']:>12.4g} {row['parent_iqr']:>10.3g}"
                f" {row['change_median']:>12.4g} {row['change_pct']:>+7.1f}%  {row['wins']}/{row['ties']}"
                f" of {row['pairs']}"
            )
        sys.stdout.flush()
        if args.json:
            doc = json_document(args.parent, args.change, args.seconds, records, summary)
            args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The isotower benchmark: certificate round trips on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass.  Each workload
runs in its own worker process (``worker.py``), one item at a time, so
memory and time belong to that workload alone.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it holds the output digest, the tail percentiles and
the environment, which are also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# set-up runs in this many extra worker processes besides the measuring one;
# setup_s is the median of all of them
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170


def run_worker(args: list[str]) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float], p: float) -> tuple[float, int]:
    """(value at percentile p by nearest rank, samples beyond it); the
    median when p is 50."""
    ordered = sorted(samples)
    n = len(ordered)
    if p == 50:
        return statistics.median(ordered), n // 2
    rank = math.ceil(p / 100 * n)
    return ordered[rank - 1], n - rank


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "commit": _git_commit(),
    }


def end_to_end(args) -> tuple[dict, dict, dict]:
    """(raw worker output, metrics, details) of an untraced run."""
    common = ["--workload", args.workload]
    setups = [run_worker([*common, "--mode", "setup"])["setup_s"] for _ in range(SETUP_PROBES)]
    raw = run_worker([*common, "--mode", "run", "--seed", str(args.seed), "--seconds", str(args.seconds)])
    setups.append(raw["setup_s"])
    if not raw["construct_s"]:
        raise SystemExit(f"error: no item completed: {raw['errors']}")
    construct_ms = [1000 * x for x in raw["construct_s"]]
    verify_ms = [1000 * x for x in raw["verify_s"]]
    p = raw["tail_percentile"]
    c_tail, c_beyond = tail(construct_ms, p)
    v_tail, v_beyond = tail(verify_ms, p)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "certs_per_s": (raw["completed"] / (sum(raw["construct_s"]) + sum(raw["verify_s"])), "1/s"),
        "construct_ms_p50": (statistics.median(construct_ms), "ms"),
        "construct_ms_tail": (c_tail, "ms"),
        "verify_ms_p50": (statistics.median(verify_ms), "ms"),
        "verify_ms_tail": (v_tail, "ms"),
        "cert_bytes_p50": (statistics.median(raw["cert_bytes"]), "bytes"),
        "max_digits": (raw["max_digits"], "digits"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    details = {
        "construct_ms_tail": {"percentile": p, "samples": len(construct_ms), "beyond": c_beyond},
        "verify_ms_tail": {"percentile": p, "samples": len(verify_ms), "beyond": v_beyond},
        "failed_frac": raw["failed"] / raw["attempted"],
        "setup_samples_s": setups,
        "unscaled": {
            "certs_per_s_wall_clock": raw["completed"] / raw["wall_s"],
            "setup_s": raw["setup_raw_s"],
        },
        "slowdown_p50": statistics.median(raw["slowdowns"]),
        "digest_items": raw["digest_items"],
    }
    return raw, metrics, details


def traced(args) -> tuple[dict, dict, dict]:
    """(raw worker output, metrics, details) of a traced pass."""
    raw = run_worker(["--workload", args.workload, "--mode", "trace", "--seed", str(args.seed)])
    metrics = {name: tuple(pair) for name, pair in raw["layers"].items()}
    details = {
        "traced_digest": raw["traced_digest"],
        "span_calls": raw["calls"],
        "digest_items": raw["digest_items"],
    }
    return raw, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    raw, metrics, details = (traced if args.trace else end_to_end)(args)
    correct = raw["failed"] == 0 and raw["mutation_rejected"]
    if args.trace:
        correct = correct and raw["digest"] == raw["traced_digest"]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "digest": raw["digest"],
        "mutation_rejected": raw["mutation_rejected"],
        "errors": raw["errors"],
        **details,
        "environment": environment(args.seed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

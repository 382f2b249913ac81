"""One benchmark process for one workload.

    python3 perfbench/worker.py --workload NAME --mode {setup,run,trace} \\
        [--seed N] [--seconds S]

Every mode first sets up: it imports the library from ``src/`` of the
checkout, builds the workload's preset field, and runs one untimed warm-up
item.  ``setup`` stops there.  ``run`` then runs round trips of seeded items,
one at a time, until ``--seconds`` have passed and the digest prefix is
complete.  ``trace`` runs the digest prefix twice, untraced and then traced.
The last line of stdout is one JSON object with the raw samples; ``run.py``
turns them into metrics.
"""

from time import perf_counter

SETUP_START = perf_counter()  # set-up time counts the library import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
_DIGITS = re.compile(r"\d+")

# Import isotower from this checkout, never from an installed copy.
if not (SRC / "isotower" / "__init__.py").is_file():
    raise SystemExit(f"error: no isotower sources under {SRC}")
sys.path.insert(0, str(SRC))
import isotower  # noqa: E402

if Path(isotower.__file__).resolve().parent != SRC / "isotower":
    raise SystemExit(f"error: imported isotower from {isotower.__file__}, not {SRC}")

from tracer import Trace, layer_metrics  # noqa: E402
from workloads import WARMUP_SEED, WORKLOADS, certificate_text, mutation_rejected, verifies  # noqa: E402


# The machine's speed drifts by tens of percent on a shared host.  Each timing
# is therefore divided by the machine's slowdown measured around it: the time
# of a fixed probe over REF_NOMINAL_S, the probe's time at the speed the
# nominal was measured at.  The probe is pure-Python rational arithmetic like
# the library's kernel but shares no code with it, so a change to the library
# cannot move it.
REF_NOMINAL_S = 0.0016


def _probe():
    acc = Fraction(0)
    for k in range(1, 200):
        acc += Fraction(k, k * k + 1)
    x = acc.numerator
    for k in range(100):
        x = x * x % (acc.denominator + k)


def slowdown() -> float:
    """The machine's current slowdown against nominal: best of three probes."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _probe()
        best = min(best, perf_counter() - t0)
    return best / REF_NOMINAL_S


def _run_item(workload, inp, log):
    """One round trip: (text, construct_s, verify_s, slowdown).  Each half is
    timed between two readings of slowdown() and divided by their mean; the
    last value is the mean of the three readings.  text is None when the
    item raised or did not verify."""
    before = slowdown()
    try:
        t0 = perf_counter()
        text = certificate_text(workload, inp)
        construct_s = perf_counter() - t0
        between = slowdown()
        t0 = perf_counter()
        ok = verifies(text)
        verify_s = perf_counter() - t0
    except Exception as exc:  # a failing item is counted and the run goes on
        log.append(f"{type(exc).__name__}: {exc}"[:300])
        return None, 0.0, 0.0, before
    after = slowdown()
    if not ok:
        log.append("verify_any returned FAIL")
        text = None
    scaled_c = construct_s / ((before + between) / 2)
    scaled_v = verify_s / ((between + after) / 2)
    return text, scaled_c, scaled_v, (before + between + after) / 3


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(b"FAILED\n" if text is None else text.encode())
    return h.hexdigest()


def _guard(workload, text) -> bool:
    return text is not None and mutation_rejected(workload, text)


def timed_loop(workload, state, seed: int, seconds: float) -> dict:
    """Round trips of items 0, 1, ... until ``seconds`` have passed and the
    digest prefix is complete."""
    construct, verify, slowdowns, sizes, digits, prefix, log = ([] for _ in range(7))
    failed = 0
    index = 0
    start = perf_counter()
    deadline = start + seconds
    while index < workload.digest_items or perf_counter() < deadline:
        inp = workload.make_input(state, seed, index)
        text, c_s, v_s, factor = _run_item(workload, inp, log)
        if index < workload.digest_items:
            prefix.append(text)
        index += 1
        if text is None:
            failed += 1
            continue
        construct.append(c_s)
        verify.append(v_s)
        slowdowns.append(factor)
        sizes.append(len(text.encode()))
        digits.append(max(map(len, _DIGITS.findall(text))))
    wall = perf_counter() - start
    guard_ok = _guard(workload, prefix[0])
    return {
        "attempted": index + 1,  # the items plus the mutation guard
        "failed": failed + (not guard_ok),
        "completed": len(construct),
        "wall_s": wall,
        "construct_s": construct,
        "verify_s": verify,
        "slowdowns": slowdowns,
        "tail_percentile": workload.tail_percentile,
        "cert_bytes": sizes,
        "max_digits": max(digits, default=0),
        "digest": _digest(prefix),
        "digest_items": workload.digest_items,
        "mutation_rejected": guard_ok,
        "errors": log[:5],
    }


def traced_pass(workload, state, seed: int) -> dict:
    inputs = [workload.make_input(state, seed, i) for i in range(workload.digest_items)]
    log = []

    def one_pass():
        """(texts, scaled seconds of all round trips)"""
        items = [_run_item(workload, inp, log) for inp in inputs]
        return [it[0] for it in items], sum(it[1] + it[2] for it in items)

    plain, plain_s = one_pass()
    with Trace() as trace:
        traced, traced_s = one_pass()
    guard_ok = _guard(workload, plain[0])
    failed = sum(t is None for t in plain) + sum(t is None for t in traced)
    return {
        "attempted": 2 * len(inputs) + 1,
        "failed": failed + (not guard_ok),
        "digest": _digest(plain),
        "digest_items": workload.digest_items,
        "traced_digest": _digest(traced),
        "mutation_rejected": guard_ok,
        "layers": layer_metrics(trace, plain_s, traced_s),
        "calls": dict(trace.calls),
        "binding_calls": dict(trace.binding_calls),
        "errors": log[:5],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    state = workload.setup()
    if not verifies(certificate_text(workload, workload.make_input(state, WARMUP_SEED, 0))):
        raise SystemExit("error: the warm-up certificate did not verify")
    setup_raw_s = perf_counter() - SETUP_START
    out = {"setup_s": setup_raw_s / slowdown(), "setup_raw_s": setup_raw_s}
    if args.mode == "run":
        out.update(timed_loop(workload, state, args.seed, args.seconds))
    elif args.mode == "trace":
        out.update(traced_pass(workload, state, args.seed))
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

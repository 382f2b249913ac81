"""Command-line front end: construct, verify, and batch-test certificates.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 precondition violation (the violated precondition is named on stderr).
Identical invocations (including --seed) produce byte-identical artifacts;
batch items may run in parallel (--jobs) with output ordered by input index,
and an item that raises a library error becomes one error line in its place.
"""

from __future__ import annotations

import argparse
import random
import sys
from multiprocessing import Pool

from . import certjson, verify
from .errors import IsotowerError, MalformedCertificate, PreconditionError
from .generate import random_qfsystem, random_quaternion
from .presets import DEMOS, SPLIT_FIELDS
from .quadforms import isotropy_2ext
from .serialize import canonical_dumps, canonical_loads
from .splitting import split_over_2ext


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedCertificate(f"cannot read {path}: {exc}") from exc


def _read_doc(path: str) -> dict:
    return canonical_loads(_read_text(path))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- batch workers (module level for multiprocessing) ---------------------------


def _isotropy_batch_item(args) -> str:
    seed, index, r, dim = args
    rng = random.Random(seed * 1000003 + index)
    system = random_qfsystem(rng, r, dim)
    cert = isotropy_2ext(system)
    return canonical_dumps(certjson.isotropy_certificate_doc(system, cert))


def _split_batch_item(args) -> str:
    seed, index, preset, two_part = args
    rng = random.Random(seed * 1000003 + index)
    tower = SPLIT_FIELDS[preset]()
    q = random_quaternion(rng, tower)
    cert = split_over_2ext(q, two_part)
    return canonical_dumps(certjson.split_certificate_doc(cert))


def _guarded(task) -> tuple[str, int]:
    """(line, exit code) of one batch item: a library error becomes one
    canonical error line instead of ending the batch."""
    worker, item, index = task
    try:
        return worker(item), 0
    except IsotowerError as exc:
        code = 3 if isinstance(exc, PreconditionError) else 2
        return canonical_dumps({"error": str(exc), "exit": code, "index": index}), code


def _check_batch_flags(args) -> None:
    """Reject a negative --count and a --jobs below 1 before any item runs."""
    if args.count < 0:
        raise MalformedCertificate(f"--count must be >= 0, got {args.count}")
    if args.jobs < 1:
        raise MalformedCertificate(f"--jobs must be >= 1, got {args.jobs}")


def _run_batch(worker, items, jobs: int) -> tuple[str, int]:
    """The batch's output text, and its exit code: the largest of the items',
    so 3 if an item violated a precondition, else 2 if one failed, else 0."""
    tasks = [(worker, item, i) for i, item in enumerate(items)]
    # never more workers than items: a pool of one would only add a process
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        with Pool(jobs) as pool:
            results = pool.map(_guarded, tasks)
    else:
        results = [_guarded(task) for task in tasks]
    return "".join(line for line, _ in results), max((code for _, code in results), default=0)


# -- subcommands -----------------------------------------------------------------


def _cmd_isotropy(args) -> int:
    if args.input:
        system = certjson.system_from_doc(_read_doc(args.input))
        cert = isotropy_2ext(system)
        _write_text(args.output, canonical_dumps(certjson.isotropy_certificate_doc(system, cert)))
        return 0
    if args.count is None or args.seed is None:
        raise MalformedCertificate("isotropy needs --input, or --seed with --count")
    preset = args.preset or "r2"
    if not (preset[:1] == "r" and preset[1:].isdecimal() and int(preset[1:]) >= 1):
        raise MalformedCertificate(f"unknown isotropy preset {preset!r}; use r<k> with k >= 1")
    _check_batch_flags(args)
    if args.dim is not None and args.dim < 1:
        raise MalformedCertificate(f"--dim must be >= 1, got {args.dim}")
    r = int(preset[1:])
    items = [(args.seed, i, r, args.dim) for i in range(args.count)]
    text, code = _run_batch(_isotropy_batch_item, items, args.jobs)
    _write_text(args.output, text)
    return code


def _cmd_split(args) -> int:
    if args.input:
        q = certjson.quaternion_from_doc(_read_doc(args.input))
        cert = split_over_2ext(q, args.two_part)
        _write_text(args.output, canonical_dumps(certjson.split_certificate_doc(cert)))
        return 0
    if args.count is None or args.seed is None:
        raise MalformedCertificate("split-quaternion needs --input, or --seed with --count")
    preset = args.preset or "cubic"
    if preset not in SPLIT_FIELDS:
        raise MalformedCertificate(
            f"unknown field preset {preset!r}; choose from {sorted(SPLIT_FIELDS)}"
        )
    _check_batch_flags(args)
    items = [(args.seed, i, preset, args.two_part) for i in range(args.count)]
    text, code = _run_batch(_split_batch_item, items, args.jobs)
    _write_text(args.output, text)
    return code


def _cmd_corestrict(args) -> int:
    from .csa import (
        central_simple_check,
        fixed_basis_spans,
        fixed_subalgebra,
        g_action_matrix,
        tensor_power_over_K,
    )

    doc = _read_doc(args.input)
    if not isinstance(doc, dict) or "algebra" not in doc or "cyclic" not in doc:
        raise MalformedCertificate("corestrict input needs an object with 'algebra' and 'cyclic'")
    alg = certjson.algebra_from_doc(doc["algebra"])
    cyclic = certjson.cyclic_from_doc(alg.tower, doc["cyclic"])
    ta = tensor_power_over_K(alg, cyclic)
    cor = fixed_subalgebra(ta, g_action_matrix(ta, cyclic))
    out = certjson.cor_result_doc(cor, alg)
    out["report"] = {
        "dimension": cor.algebra.dim,
        "dimension_formula": cor.algebra.dim == alg.dim**cyclic.order,
        "central_simple": central_simple_check(cor.algebra),
        "fixed_basis_spans": fixed_basis_spans(cor),
    }
    _write_text(args.output, canonical_dumps(out))
    return 0 if all(v for v in out["report"].values() if isinstance(v, bool)) else 1


def _cmd_verify(args) -> int:
    lines = [ln for ln in _read_text(args.input).splitlines() if ln.strip()]
    if not lines:
        raise MalformedCertificate("empty input")
    failures = preconditions = malformed = 0
    report = []
    for idx, line in enumerate(lines):
        tag = f"[{idx}] " if len(lines) > 1 else ""
        try:
            kind, ok, reason = verify.verify_any(canonical_loads(line))
        except IsotowerError as exc:
            if not tag:
                raise  # a single document: main names the error and picks the exit code
            if isinstance(exc, PreconditionError):
                report.append(f"{tag}PRECONDITION [{type(exc).__name__}]: {exc}\n")
                preconditions += 1
            else:
                report.append(f"{tag}MALFORMED: {exc}\n")
                malformed += 1
            continue
        report.append(f"{tag}{'PASS' if ok else 'FAIL'} ({kind}): {reason}\n")
        if not ok:
            failures += 1
    _write_text(args.output, "".join(report))
    return 1 if failures else 3 if preconditions else 2 if malformed else 0


def _cmd_demo(args) -> int:
    name = args.name or args.preset
    if not name or name not in DEMOS:
        available = ", ".join(sorted(DEMOS))
        raise MalformedCertificate(f"unknown demo {name!r}; available: {available}")
    lines, doc, ok = DEMOS[name]()
    for line in lines:
        print(line)
    if args.output and doc is not None:
        _write_text(args.output, canonical_dumps(doc))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotower",
        description=(
            "exact certificates: isotropy of quadratic form systems over "
            "2-extension towers, quaternion splitting, corestrictions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, batch=False):
        # batch commands can generate their input instead of reading it
        p.add_argument("--input", required=not batch, help="input JSON path")
        p.add_argument("--output", help="output path (default stdout)")
        if batch:
            p.add_argument("--seed", type=int, help="seed for randomized batches")
            p.add_argument("--count", type=int, help="batch size (one JSON object per line)")
            p.add_argument("--preset", help="instance family for batches")
            p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p = sub.add_parser("isotropy", help="certify a common zero of a system of quadratic forms")
    common(p, batch=True)
    p.add_argument("--dim", type=int, help="override the batch dimension")
    p.set_defaults(func=_cmd_isotropy)

    p = sub.add_parser("split-quaternion", help="certify a splitting compositum for a quaternion")
    common(p, batch=True)
    p.add_argument("--two-part", type=int, default=None,
                   help="number of leading tower levels forming the maximal 2-subextension")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("corestrict", help="corestriction of an algebra along a cyclic extension")
    common(p)
    p.set_defaults(func=_cmd_corestrict)

    p = sub.add_parser("verify", help="re-check certificates from scratch (PASS/FAIL per line)")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo", help="run a named preset instance")
    p.add_argument("name", nargs="?", help="preset name")
    p.add_argument("--preset", help="preset name (alternative to the positional)")
    p.add_argument("--output", help="write the demo artifact here")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedCertificate as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: precondition violated [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except IsotowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

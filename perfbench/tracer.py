"""Spans and kernel counters recorded from outside the library.

A span wraps one public function at every name it is bound to: ``from
.sqrt import sqrt_or_nonsquare`` in ``verify`` makes a binding separate from
the one in ``sqrt``, so each binding is patched.  Modules reached as
attributes (``linalg.matmul``) need only their own binding.  The binding a
call goes through also tells construction from verification, which splits
``sqrt.test`` into ``construct`` and ``verify``.

Self time is a span's duration minus the time its child spans cover.  The
kernel (``TowerElement`` arithmetic) is called too often for spans: it gets
counters per level kind and one aggregated busy time, which stays inside its
callers' self time.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from isotower import certjson, csa, linalg, quadforms, serialize, splitting, sqrt, verify
from isotower.tower import KIND_BASE, KIND_SQRT, TowerElement

_KIND_KEY = {KIND_SQRT: "sqrt", KIND_BASE: "base"}
KINDS = ("rat", "sqrt", "base")


def _matmul_entries(args, _result) -> tuple[str, int]:
    a, b = args
    return "linalg.matmul.entries", len(a) * len(b) * (len(b[0]) if b else 0)


def _adjoin_added(_args, result) -> tuple[str, int]:
    return "sqrt.adjoin.added", int(result[2])


def _test_rooted(_args, result) -> tuple[str, int]:
    return "sqrt.test.construct.rooted", int(result is not None)


# (span name, bindings, observer of (args, result) -> (counter, increment))
SPANS = (
    ("linalg.matmul", ((linalg, "matmul"),), _matmul_entries),
    ("linalg.matvec", ((linalg, "matvec"),), None),
    ("linalg.rref", ((linalg, "rref"),), None),
    ("linalg.nullspace", ((linalg, "nullspace"),), None),
    ("linalg.solve", ((linalg, "solve"),), None),
    (
        "sqrt.test.construct",
        ((sqrt, "sqrt_or_nonsquare"), (csa, "sqrt_or_nonsquare")),
        _test_rooted,
    ),
    ("sqrt.test.verify", ((verify, "sqrt_or_nonsquare"),), None),
    (
        "sqrt.adjoin",
        ((sqrt, "adjoin_sqrt"), (quadforms, "adjoin_sqrt"), (splitting, "adjoin_sqrt")),
        _adjoin_added,
    ),
    ("quadforms.isotropy", ((quadforms, "isotropy_2ext"), (splitting, "isotropy_2ext")), None),
    ("quadforms.transfer", ((quadforms, "transfer_system"), (splitting, "transfer_system")), None),
    ("quadforms.diagonalize", ((quadforms, "diagonalize"), (splitting, "diagonalize")), None),
    ("quadforms.mix", ((quadforms, "mix_forms"),), None),
    ("quadforms.orth", ((quadforms, "orthogonal_intersection"),), None),
    ("splitting.split", ((splitting, "split_over_2ext"),), None),
    ("csa.tensor", ((csa, "tensor_power_over_K"),), None),
    ("csa.gaction", ((csa, "g_action_matrix"),), None),
    ("csa.fixed", ((csa, "fixed_subalgebra"),), None),
    ("csa.central", ((csa, "central_simple_check"),), None),
    ("csa.spans", ((csa, "fixed_basis_spans"),), None),
    ("csa.idempotent", ((csa, "split_idempotent_witness"),), None),
    ("verify.isotropy", ((verify, "verify_isotropy"),), None),
    ("verify.split", ((verify, "verify_split"),), None),
    ("verify.cor", ((verify, "verify_cor"),), None),
    (
        "certjson.doc",
        (
            (certjson, "isotropy_certificate_doc"),
            (certjson, "split_certificate_doc"),
            (certjson, "cor_result_doc"),
        ),
        None,
    ),
    ("serialize.dumps", ((serialize, "canonical_dumps"),), None),
    ("serialize.loads", ((serialize, "canonical_loads"),), None),
    (
        "serialize.parse",
        (
            (verify, "tower_from_json"),
            (verify, "vector_from_json"),
            (verify, "gram_from_json"),
            (verify, "element_from_json"),
        ),
        None,
    ),
)

# TowerElement methods counted per level kind; __truediv__ and __rtruediv__
# go through inverse() and __mul__, so they are counted there.
KERNEL_OPS = (("mul", "__mul__"), ("mul", "__rmul__"), ("sqr", "square"), ("inv", "inverse"))


class Trace:
    """Per-span call counts and self times, plus kernel counters, gathered
    while installed.  Use as a context manager around the traced work."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.binding_calls: dict[str, int] = {}  # "module.attr" of every patched name -> calls
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.kernel_busy_s = 0.0
        self._open: list[float] = []  # child time covered so far, one per open span
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, binding, fn, observe):
        calls, self_s, counters, open_ = self.calls, self.self_s, self.counters, self._open
        binding_calls = self.binding_calls

        def wrapper(*args, **kwargs):
            open_.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                calls[name] += 1
                binding_calls[binding] += 1
                self_s[name] += dur - open_.pop()
                if open_:
                    open_[-1] += dur
            if observe is not None:
                key, inc = observe(args, result)
                counters[key] += inc
            return result

        return wrapper

    def _kernel(self, op, fn):
        counters = self.counters

        def wrapper(x, *args):
            t0 = perf_counter()
            result = fn(x, *args)
            self.kernel_busy_s += perf_counter() - t0
            if result is not NotImplemented:
                lv = result.level
                kind = _KIND_KEY[result.tower.levels[lv - 1].kind] if lv else "rat"
                counters[f"tower.{op}.{kind}"] += 1
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        for name, bindings, observe in SPANS:
            for owner, attr in bindings:
                binding = f"{owner.__name__.removeprefix('isotower.')}.{attr}"
                self.binding_calls[binding] = 0
                self._patch(owner, attr, self._span(name, binding, getattr(owner, attr), observe))
        for op, attr in KERNEL_OPS:
            self._patch(TowerElement, attr, self._kernel(op, getattr(TowerElement, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def layer_metrics(trace: Trace, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics of one traced pass, each as (value, unit)."""
    c, s, n = (defaultdict(int, d) for d in (trace.counters, trace.self_s, trace.calls))
    out = {}
    for op in ("mul", "sqr", "inv"):
        for kind in KINDS:
            out[f"tower.{op}.{kind}"] = (c[f"tower.{op}.{kind}"], "count")
    out["tower.busy_s"] = (trace.kernel_busy_s, "s")
    out["linalg.matmul.calls"] = (n["linalg.matmul"], "count")
    out["linalg.matmul.entries"] = (c["linalg.matmul.entries"], "count")
    out["linalg.matmul.self_s"] = (s["linalg.matmul"], "s")
    out["linalg.matvec.self_s"] = (s["linalg.matvec"], "s")
    out["linalg.rref.calls"] = (n["linalg.rref"], "count")
    out["linalg.rref.self_s"] = (s["linalg.rref"], "s")
    out["linalg.nullspace.self_s"] = (s["linalg.nullspace"], "s")
    out["linalg.solve.self_s"] = (s["linalg.solve"], "s")
    tests = n["sqrt.test.construct"]
    out["sqrt.test.construct.calls"] = (tests, "count")
    out["sqrt.test.construct.self_s"] = (s["sqrt.test.construct"], "s")
    out["sqrt.test.root_frac"] = (_ratio(c["sqrt.test.construct.rooted"], tests), "frac")
    out["sqrt.adjoin.calls"] = (n["sqrt.adjoin"], "count")
    out["sqrt.adjoin.added_frac"] = (_ratio(c["sqrt.adjoin.added"], n["sqrt.adjoin"]), "frac")
    out["sqrt.test.verify.calls"] = (n["sqrt.test.verify"], "count")
    out["sqrt.test.verify.self_s"] = (s["sqrt.test.verify"], "s")
    out["quadforms.isotropy.calls"] = (n["quadforms.isotropy"], "count")
    for name in (
        "quadforms.isotropy",
        "quadforms.transfer",
        "quadforms.diagonalize",
        "quadforms.mix",
        "quadforms.orth",
        "splitting.split",
        "csa.tensor",
        "csa.gaction",
        "csa.fixed",
        "csa.central",
        "csa.spans",
        "csa.idempotent",
        "verify.isotropy",
        "verify.split",
        "verify.cor",
        "certjson.doc",
        "serialize.dumps",
        "serialize.loads",
        "serialize.parse",
    ):
        out[f"{name}.self_s"] = (s[name], "s")
    out["trace.overhead_frac"] = (1.0 - untraced_s / traced_s, "frac")
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0

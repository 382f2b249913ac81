"""Self-test of the benchmark's tracing: every wrapper is reached.

    python3 perfbench/selftest.py

Runs the traced pass of each workload (seed 1) and checks the predictions
of the layer table in README.md: every patched binding and kernel counter
the workload should use is called at least once, and every span of a layer
that does no work there reads exactly 0.  A wrapper left on a stale ``from
... import`` binding reads 0 and fails here, and so does a patched binding
that no workload is expected to reach unless it is listed as a guard.  Also
checks that the traced and untraced passes give the same certificate
digest, that no item failed, and that the mutation guard rejected its
mutants.  Exits 1 on any failed check.
"""

from __future__ import annotations

import sys

from run import run_worker

LINALG = ("linalg.matmul", "linalg.matvec", "linalg.rref", "linalg.nullspace")
SERIALIZE = ("serialize.canonical_dumps", "serialize.canonical_loads", "verify.tower_from_json")
SQRT_TESTS = ("sqrt.sqrt_or_nonsquare", "verify.sqrt_or_nonsquare")
FORMS = ("quadforms.mix_forms", "quadforms.orthogonal_intersection")

# Bindings (module.attr as patched) and kernel keys that must be called at
# least once.  A kernel key names a sum over level kinds ("tower.mul") or
# one kind ("tower.mul.base").
REACHED = {
    "isotropy-r4": (
        "tower.mul", "tower.inv", *LINALG, *SQRT_TESTS, "quadforms.adjoin_sqrt",
        "quadforms.isotropy_2ext", *FORMS, "verify.verify_isotropy",
        "certjson.isotropy_certificate_doc", *SERIALIZE, "verify.vector_from_json",
        "verify.gram_from_json",
    ),
    "split-septic": (
        "tower.mul", "tower.sqr", "tower.inv", "tower.mul.base", "tower.inv.base",
        *LINALG, *SQRT_TESTS, "quadforms.adjoin_sqrt", "splitting.adjoin_sqrt",
        "splitting.isotropy_2ext", "splitting.transfer_system", "splitting.diagonalize",
        *FORMS, "splitting.split_over_2ext", "verify.verify_split",
        "certjson.split_certificate_doc", *SERIALIZE, "verify.vector_from_json",
        "verify.element_from_json",
    ),
    "corestrict-quadratic": (
        "tower.mul", "tower.inv", *LINALG, "linalg.solve",
        "csa.tensor_power_over_K", "csa.g_action_matrix", "csa.fixed_subalgebra",
        "csa.central_simple_check", "csa.fixed_basis_spans", "csa.split_idempotent_witness",
        "verify.verify_cor", "certjson.cor_result_doc", *SERIALIZE,
        "verify.vector_from_json", "verify.element_from_json",
    ),
}
# Bindings no workload calls through.  They are patched so that a call
# arriving there later is counted, which keeps the zero predictions below
# honest: csa's sqrt test serves only base_change_embedding_check, and
# quadforms and sqrt do not call their own transfer_system, diagonalize or
# adjoin_sqrt.
GUARD_ONLY = {
    "csa.sqrt_or_nonsquare",
    "sqrt.adjoin_sqrt",
    "quadforms.transfer_system",
    "quadforms.diagonalize",
}

CSA = ("csa.tensor", "csa.gaction", "csa.fixed", "csa.central", "csa.spans", "csa.idempotent")
BASE = ("tower.mul.base", "tower.sqr.base", "tower.inv.base")
# Spans (summed over their bindings) and kernel keys that must read exactly 0
# where the layer table says the layer does no work.
ZERO = {
    "isotropy-r4": (
        *BASE, "quadforms.transfer", "quadforms.diagonalize", "splitting.split",
        *CSA, "verify.split", "verify.cor",
    ),
    "split-septic": (*CSA, "verify.isotropy", "verify.cor"),
    "corestrict-quadratic": (
        *BASE, "sqrt.test.construct", "sqrt.test.verify", "sqrt.adjoin",
        "quadforms.isotropy", "quadforms.transfer", "quadforms.diagonalize",
        "quadforms.mix", "quadforms.orth", "splitting.split", "verify.isotropy", "verify.split",
    ),
}


def _kernel(raw: dict, key: str) -> int:
    """The count of a kernel key, summed over level kinds for "tower.<op>"."""
    return sum(v for k, (v, _unit) in raw["layers"].items() if k == key or k.startswith(key + "."))


def check(workload: str, raw: dict) -> list[str]:
    problems = []
    for name in REACHED[workload]:
        if name.startswith("tower."):
            calls = _kernel(raw, name)
        else:
            calls = raw["binding_calls"].get(name, 0)
        if calls <= 0:
            problems.append(f"{workload}: {name} was never reached")
    for name in ZERO[workload]:
        calls = _kernel(raw, name) if name.startswith("tower.") else raw["calls"].get(name, 0)
        if calls != 0:
            problems.append(f"{workload}: {name} read {calls}, expected 0")
    if raw["digest"] != raw["traced_digest"]:
        problems.append(f"{workload}: traced and untraced digests differ")
    if raw["failed"]:
        problems.append(f"{workload}: {raw['failed']} failed items or guards: {raw['errors']}")
    if not raw["mutation_rejected"]:
        problems.append(f"{workload}: verify_any passed a mutated certificate")
    return problems


def main() -> int:
    problems = []
    patched = set()
    for workload in REACHED:
        raw = run_worker(["--workload", workload, "--mode", "trace", "--seed", "1"])
        found = check(workload, raw)
        patched.update(raw["binding_calls"])
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    expected = GUARD_ONLY.union(*REACHED.values())
    problems += [f"{b} is patched but nothing expects it reached" for b in sorted(patched - expected)]
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads and the certificate round trip they share.

Each workload turns (seed, index) into one input, builds a certificate
document from it through the public API, and names the document leaves a
mutation check perturbs.  Library functions are always reached through
their module attribute (``quadforms.isotropy_2ext``, not a local binding),
so the wrappers installed by :mod:`tracer` see the benchmark's own calls.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

from isotower import certjson, csa, generate, presets, quadforms, serialize, splitting, verify
from isotower.errors import IsotowerError

# A fixed input for the untimed warm-up item, so set-up time does not depend
# on the run seed.
WARMUP_SEED = 0


def item_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1000003 + index)


class IsotropyR4:
    """Four integral forms in 11 variables over Q (Theorem 2.1, r = 4)."""

    name = "isotropy-r4"
    # certificates hashed into the run digest; also the traced pass size
    digest_items = 20
    # the highest percentile with ten samples beyond it in a 30 s run (about
    # 90 items); fixed, so that a faster run with more items reports the
    # same percentile
    tail_percentile = 75

    def setup(self):
        return None

    def make_input(self, state, seed: int, index: int):
        return generate.random_qfsystem(item_rng(seed, index), 4)

    def construct(self, system) -> dict:
        cert = quadforms.isotropy_2ext(system)
        return certjson.isotropy_certificate_doc(system, cert)

    def mutants(self, doc: dict) -> list[dict]:
        return [_bump_first_leaf(doc, "witness")]


class SplitSeptic:
    """Quaternions over Q(2^(1/7)) (Theorem 3.2, the _split_large path)."""

    name = "split-septic"
    digest_items = 6
    tail_percentile = 50  # about 24 items in 30 s

    def setup(self):
        return presets.field_septic()

    def make_input(self, field, seed: int, index: int):
        return generate.random_quaternion(item_rng(seed, index), field)

    def construct(self, q) -> dict:
        cert = splitting.split_over_2ext(q)
        return certjson.split_certificate_doc(cert)

    def mutants(self, doc: dict) -> list[dict]:
        return [_bump_first_leaf(doc, "witness")]


class CorestrictQuadratic:
    """Corestriction along Q(sqrt d)/Q (section 4), as the CLI's corestrict
    subcommand runs it.  Every third item is M_2 in the matrix-unit basis;
    the others are quaternion algebras (u, v) over Q(sqrt d)."""

    name = "corestrict-quadratic"
    digest_items = 24
    tail_percentile = 90  # about 150 items in 30 s

    def setup(self):
        return None

    def make_input(self, state, seed: int, index: int):
        rng = item_rng(seed, index)
        while True:
            d = rng.randint(-30, 30)
            if d not in (0, 1) and all(d % (p * p) for p in (2, 3, 5)):
                break
        cyclic = presets.cyclic_sqrt(d)
        tower = cyclic.tower
        if index % 3 == 0:
            alg = csa.matrix_algebra(tower, cyclic.k_level)
        else:
            u, v = (rng.choice([k for k in range(-9, 10) if k]) for _ in range(2))
            alg = csa.quaternion_structure_algebra(
                splitting.standard_quaternion(tower.rational(u, 1), tower.rational(v, 1))
            )
        return alg, cyclic

    def construct(self, inp) -> dict:
        alg, cyclic = inp
        ta = csa.tensor_power_over_K(alg, cyclic)
        cor = csa.fixed_subalgebra(ta, csa.g_action_matrix(ta, cyclic))
        doc = certjson.cor_result_doc(cor, alg)
        doc["report"] = {
            "dimension": cor.algebra.dim,
            "dimension_formula": cor.algebra.dim == alg.dim**cyclic.order,
            "central_simple": csa.central_simple_check(cor.algebra),
            "fixed_basis_spans": csa.fixed_basis_spans(cor),
        }
        if not all(v for v in doc["report"].values() if isinstance(v, bool)):
            raise RuntimeError(f"corestriction report check failed: {doc['report']}")
        if alg.matrix_units:
            csa.split_idempotent_witness(cor)
        return doc

    def mutants(self, doc: dict) -> list[dict]:
        return [_bump_first_leaf(doc, "fixed_basis"), _bump_first_leaf(doc, "constants")]


WORKLOADS = {w.name: w for w in (IsotropyR4(), SplitSeptic(), CorestrictQuadratic())}


def certificate_text(workload, inp) -> str:
    """The construct half of a round trip: constructor, document, dumps."""
    return serialize.canonical_dumps(workload.construct(inp))


def verifies(text: str) -> bool:
    """The verify half of a round trip: loads, then verify_any."""
    _kind, ok, _reason = verify.verify_any(serialize.canonical_loads(text))
    return ok


def mutation_rejected(workload, text: str) -> bool:
    """True when verify_any returns FAIL on every one-leaf mutant of a
    certificate.  A mutant the verifier rejects as malformed counts as FAIL,
    as it does in the CLI."""
    for mutant in workload.mutants(serialize.canonical_loads(text)):
        try:
            _kind, ok, _reason = verify.verify_any(mutant)
        except IsotowerError:
            ok = False
        if ok:
            return False
    return True


def _bump_first_leaf(doc: dict, key: str) -> dict:
    """A copy of doc with the first rational leaf under ``key`` raised by 1.

    x -> x + 1 keeps "num/den" in lowest terms, so the mutant stays well formed."""
    out = copy.deepcopy(doc)
    parent = out[key]
    while isinstance(parent[0], list):
        parent = parent[0]
    q = Fraction(parent[0]) + 1
    parent[0] = f"{q.numerator}/{q.denominator}"
    return out

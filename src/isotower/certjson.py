"""Canonical JSON documents for systems, quaternions, algebras, and
certificates, and readers for the documents a command takes as input
(systems, quaternions, algebras, cyclic data).

Certificates are self-contained: they embed the full tower recipe, so the
verifier needs no side data.  This module only writes them; they are
checked from the raw document by :mod:`isotower.verify`, which shares no
code with the constructors beyond the arithmetic kernel.
"""

from __future__ import annotations

from .csa import CorResult, CyclicExtensionData, StructureConstantAlgebra
from .errors import MalformedCertificate
from .quadforms import IsotropyCertificate, QFSystem, QuadraticForm
from .serialize import (
    _to_json,
    element_from_json,
    element_to_json,
    gram_from_json,
    gram_to_json,
    int_from_json,
    tower_from_json,
    tower_to_json,
    vector_from_json,
    vector_to_json,
)
from .splitting import QuaternionAlgebra, SplitCertificate
from .tower import TowerField


# -- quadratic form systems ----------------------------------------------------


def system_doc(system: QFSystem, tower: TowerField | None = None) -> dict:
    """The system's forms and a tower: its own unless ``tower`` is given,
    as a certificate gives the tower that extends it."""
    if system.level != system.tower.height:
        raise ValueError("serialize systems at the top level of their tower")
    return {
        "forms": [gram_to_json(f.gram) for f in system.forms],
        "tower": tower_to_json(system.tower if tower is None else tower),
    }


def system_from_doc(doc: dict) -> QFSystem:
    if not isinstance(doc, dict) or "forms" not in doc or "tower" not in doc:
        raise MalformedCertificate("a system document needs 'forms' and 'tower'")
    if not isinstance(doc["forms"], list):
        raise MalformedCertificate("'forms' must be a list of gram matrices")
    tower = tower_from_json(doc["tower"])
    grams = [gram_from_json(tower, g) for g in doc["forms"]]
    try:
        return QFSystem(tuple(QuadraticForm.from_gram(tower, tower.height, g) for g in grams))
    except ValueError as exc:  # not square, not symmetric, no forms, mixed shapes
        raise MalformedCertificate(f"invalid system: {exc}") from exc


def isotropy_certificate_doc(system: QFSystem, cert: IsotropyCertificate) -> dict:
    doc = system_doc(system, cert.tower)
    doc["witness"] = vector_to_json(cert.witness)
    doc["claimed_bound"] = cert.claimed_bound
    doc["actual_degree"] = cert.actual_degree
    return doc


# -- quaternions and split certificates ------------------------------------------


def quaternion_doc(q: QuaternionAlgebra) -> dict:
    doc = {"presentation": q.presentation, "field": tower_to_json(q.field)}
    if q.presentation == "standard":
        doc["u"] = element_to_json(q.x)
        doc["v"] = element_to_json(q.y)
    else:
        doc["a"] = element_to_json(q.x)
        doc["b"] = element_to_json(q.y)
    return doc


def quaternion_from_doc(doc: dict) -> QuaternionAlgebra:
    if not isinstance(doc, dict) or "presentation" not in doc or "field" not in doc:
        raise MalformedCertificate("a quaternion document needs 'presentation' and 'field'")
    tower = tower_from_json(doc["field"])
    pres = doc["presentation"]
    try:
        if pres == "standard":
            x = element_from_json(tower, doc["u"])
            y = element_from_json(tower, doc["v"])
        elif pres == "bracket":
            x = element_from_json(tower, doc["a"])
            y = element_from_json(tower, doc["b"])
        else:
            raise MalformedCertificate(f"unknown presentation {pres!r}")
    except KeyError as exc:
        raise MalformedCertificate(f"missing quaternion entry {exc}") from exc
    try:
        return QuaternionAlgebra(pres, x, y)
    except ValueError as exc:
        raise MalformedCertificate(str(exc)) from exc


def split_certificate_doc(cert: SplitCertificate) -> dict:
    return {
        "quaternion": quaternion_doc(cert.quaternion),
        "tower": tower_to_json(cert.tower),
        "two_tower": tower_to_json(cert.two_tower),
        "witness": vector_to_json(cert.witness),
        "claimed_bound": cert.claimed_bound,
        "degree_over_F": cert.degree_over_F,
    }


# -- structure constant algebras ---------------------------------------------------


def algebra_doc(a: StructureConstantAlgebra) -> dict:
    """The dense dim x dim x dim constants table, filled from the sparse rows.
    Above level 0 each zero cell is written fresh, so no list sits at two
    places of the document; at level 0 the zero cells share the immutable
    ``"0/1"`` and cost no call each."""
    n = a.dim
    if a.level == 0:
        zeros = lambda: ["0/1"] * n
    else:
        zero = a.tower.zero(a.level)
        zeros = lambda: [element_to_json(zero) for _ in range(n)]
    constants = [[zeros() for _ in range(n)] for _ in range(n)]
    ctx, lv, rows = a.tower._ctx, a.level, a.rows
    for i, plane in enumerate(constants):
        for j, cell in enumerate(plane):
            for k, c in rows[i * n + j]:
                cell[k] = _to_json(ctx, c, lv)
    return {
        "dim": n,
        "constants": constants,
        "unit": vector_to_json(a.unit),
        "field": tower_to_json(a.tower),
        "matrix_units": a.matrix_units,
    }


def algebra_from_doc(doc: dict) -> StructureConstantAlgebra:
    if not isinstance(doc, dict):
        raise MalformedCertificate("an algebra document must be a JSON object")
    for key in ("dim", "constants", "unit", "field"):
        if key not in doc:
            raise MalformedCertificate(f"algebra document missing {key!r}")
    tower = tower_from_json(doc["field"])
    n = int_from_json(doc["dim"])
    if not isinstance(doc["constants"], list):
        raise MalformedCertificate("constants must be a list of planes")
    parsed = [gram_from_json(tower, plane) for plane in doc["constants"]]
    if n < 1 or len(parsed) != n or any(len(p) != n or any(len(r) != n for r in p) for p in parsed):
        raise MalformedCertificate("constants must be dim x dim x dim with dim >= 1")
    unit = vector_from_json(tower, doc["unit"])
    if len(unit) != n:
        raise MalformedCertificate("unit length does not match dim")
    matrix_units = doc.get("matrix_units", False)
    if not isinstance(matrix_units, bool):
        raise MalformedCertificate("matrix_units must be true or false")
    level = max(e.level for e in (*unit, *(e for plane in parsed for row in plane for e in row)))
    return StructureConstantAlgebra.from_dense(tower, level, parsed, unit, matrix_units)


def cyclic_doc(cyclic: CyclicExtensionData) -> dict:
    return {
        "k_level": cyclic.k_level,
        "order": cyclic.order,
        "sigma": [[element_to_json(x) for x in row] for row in cyclic.sigma],
    }


def cyclic_from_doc(tower: TowerField, doc: dict) -> CyclicExtensionData:
    if not isinstance(doc, dict):
        raise MalformedCertificate("a cyclic document must be a JSON object")
    for key in ("k_level", "order", "sigma"):
        if key not in doc:
            raise MalformedCertificate(f"cyclic document missing {key!r}")
    k_level = int_from_json(doc["k_level"])
    if k_level > tower.height:
        raise MalformedCertificate(f"k_level {k_level} is above the field's tower")
    rows = gram_from_json(tower, doc["sigma"])
    return CyclicExtensionData.create(tower, k_level, rows, int_from_json(doc["order"]))


def cor_result_doc(cor: CorResult, source: StructureConstantAlgebra) -> dict:
    doc = algebra_doc(cor.algebra)
    doc["fixed_basis"] = [vector_to_json(v) for v in cor.fixed_basis]
    doc["source"] = {
        "algebra": algebra_doc(source),
        "cyclic": cyclic_doc(cor.cyclic),
    }
    return doc


__all__ = [
    "system_doc",
    "system_from_doc",
    "isotropy_certificate_doc",
    "quaternion_doc",
    "quaternion_from_doc",
    "split_certificate_doc",
    "algebra_doc",
    "algebra_from_doc",
    "cyclic_doc",
    "cyclic_from_doc",
    "cor_result_doc",
]

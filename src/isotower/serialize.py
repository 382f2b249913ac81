"""Canonical JSON serialization for towers, elements, and certificates.

An element is a nested coefficient list bottoming out at ``"num/den"``
strings; its nesting depth determines its level.  A tower is a list of
levels ``{"label": str, "minpoly": [coeff, ...]}`` where each coefficient is
itself a nested list in the same convention.  This format is the substrate
of all certificates; serialize -> parse -> serialize is byte-identical.

Both directions skip each level's shared zero: the writer emits fresh
``"0/1"`` lists for it unread (no list sits at two places of a document),
and the parser returns it for any node equal to its level's zero JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from .errors import MalformedCertificate
from .tower import Level, RationalLike, TowerElement, TowerField, _decimal, _from_decimal, _level_kind, _raw_zero


def fraction_to_json(q: RationalLike) -> str:
    """``"num/den"`` of an int or a Fraction; an int n is ``"n/1"``."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # past the interpreter's int -> str digit limit
        return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def fraction_from_json(node) -> RationalLike:
    """The kernel leaf of a ``"num/den"`` string: an int for ``"n/1"``,
    else a Fraction."""
    if node == "0/1":  # most leaves: canonical, so skip the parse
        return 0
    if not isinstance(node, str):
        raise MalformedCertificate(f"expected 'num/den' string, got {node!r}")
    num, sep, den = node.partition("/")
    if not sep:
        raise MalformedCertificate(f"expected 'num/den' string, got {node!r}")
    digits = num[1:] if num[:1] == "-" else num
    if not (digits.isascii() and digits.isdigit() and den.isascii() and den.isdigit()):
        raise MalformedCertificate(f"bad rational {node!r}")
    n, d = _from_decimal(num), _from_decimal(den)
    if d == 0:
        raise MalformedCertificate(f"zero denominator in {node!r}")
    q = n if d == 1 else Fraction(n, d)
    # one spelling per rational (plain digits without a leading zero, lowest
    # terms, positive denominator), so parse -> serialize reproduces the
    # input bytes; checked on the strings, as int -> str is quadratic
    if digits[0] == "0" or den[0] == "0" or q.numerator != n or q.denominator != d:
        raise MalformedCertificate(f"rational {node!r} is not in canonical form")
    return q


def int_from_json(node) -> int:
    """A JSON integer field; bools, floats and strings are malformed."""
    if type(node) is not int:
        raise MalformedCertificate(f"expected a JSON integer, got {node!r}")
    return node


def _zero_to_json(ctx, lv):
    """Fresh JSON of the zero at level ``lv`` >= 1 of a tower with context
    ``ctx``: no list in it is shared."""
    d = ctx[lv - 1].degree
    if lv == 1:
        return ["0/1"] * d
    return [_zero_to_json(ctx, lv - 1) for _ in range(d)]


def _to_json(ctx, data, lv):
    """JSON of raw data at level ``lv`` of a tower with context ``ctx``.  A
    subtree that is its level's shared zero is written fresh, its leaves
    unread; any other subtree, zero or not, is walked."""
    if lv == 0:
        return fraction_to_json(data)
    if data is ctx[lv - 1].own_zero:
        return _zero_to_json(ctx, lv)
    if lv == 1:
        try:
            return ["0/1" if not q else f"{q.numerator}/{q.denominator}" for q in data]
        except ValueError:  # a leaf past the digit limit
            return [fraction_to_json(q) for q in data]
    return [_to_json(ctx, c, lv - 1) for c in data]


@lru_cache(maxsize=32)
def _zero_json(degrees: tuple) -> tuple:
    """The JSON of the zero at each level of a tower with these level
    degrees, lowest first; shared, so never to be mutated."""
    out = ["0/1"]
    for d in degrees:
        out.append([out[-1]] * d)
    return tuple(out)


def _zeros_of(tower: TowerField) -> tuple:
    return _zero_json(tuple([level.degree for level in tower.levels]))


def _data_from_json(node, lv, tower, zeros):
    """Raw data of ``node`` at level ``lv``; a node equal to its level's zero
    JSON (``zeros`` is ``_zeros_of(tower)``) is the tower's shared zero,
    its leaves unread."""
    if lv == 0:
        return fraction_from_json(node)
    if node == zeros[lv]:
        return _raw_zero(tower._ctx, lv)
    if not isinstance(node, list):
        raise MalformedCertificate("element nesting shallower than its level")
    d = tower._ctx[lv - 1].degree
    if len(node) != d:
        raise MalformedCertificate(
            f"level-{lv} coefficient list has length {len(node)}, expected {d}"
        )
    return tuple([_data_from_json(c, lv - 1, tower, zeros) for c in node])


def _json_depth(node) -> int:
    d = 0
    while isinstance(node, list):
        if not node:
            raise MalformedCertificate("empty coefficient list")
        node = node[0]
        d += 1
    return d


def element_to_json(x: TowerElement):
    return _to_json(x.tower._ctx, x.data, x.level)


def element_from_json(tower: TowerField, node) -> TowerElement:
    return TowerElement(tower, *_raw_from_json(tower, node, _zeros_of(tower)))


def _raw_from_json(tower, node, zeros):
    """(level, raw data) of an element node, its level its nesting depth."""
    if not isinstance(node, list):
        return 0, fraction_from_json(node)
    lv = _json_depth(node)
    if lv > tower.height:
        raise MalformedCertificate("element deeper than the tower")
    return lv, _data_from_json(node, lv, tower, zeros)


def tower_to_json(tower: TowerField):
    ctx = tower._ctx
    return [
        {"label": level.label, "minpoly": [_to_json(ctx, c, i) for c in level.minpoly]}
        for i, level in enumerate(tower.levels)
    ]


def tower_from_json(node) -> TowerField:
    if not isinstance(node, list):
        raise MalformedCertificate("tower must be a list of levels")
    partial = TowerField(())
    for i, entry in enumerate(node):
        if not isinstance(entry, dict) or set(entry) != {"label", "minpoly"}:
            raise MalformedCertificate("tower level must be {label, minpoly}")
        coeffs = entry["minpoly"]
        if not isinstance(coeffs, list) or len(coeffs) < 3:
            raise MalformedCertificate("minpoly must have degree >= 2")
        zeros = _zeros_of(partial)
        raw = tuple(_data_from_json(c, i, partial, zeros) for c in coeffs)
        if raw[-1] != partial.one(i).data:
            raise MalformedCertificate("minpoly must be monic")
        label = entry["label"]
        if not isinstance(label, str) or any(level.label == label for level in partial.levels):
            raise MalformedCertificate(f"tower labels must be distinct strings, got {label!r}")
        partial = partial._extended(Level(label, raw, _level_kind(partial._ctx, raw)))
    return partial


def vector_to_json(v) -> list:
    return [element_to_json(x) for x in v]


def vector_from_json(tower: TowerField, node) -> tuple[TowerElement, ...]:
    return tuple(TowerElement(tower, lv, x) for lv, x in _raw_vector_from_json(tower, node))


def _raw_vector_from_json(tower, node) -> list:
    """The (level, raw data) pair of each element of a vector node."""
    if not isinstance(node, list):
        raise MalformedCertificate("vector must be a list")
    zeros = _zeros_of(tower)
    return [_raw_from_json(tower, x, zeros) for x in node]


def gram_to_json(gram) -> list:
    return [[element_to_json(x) for x in row] for row in gram]


def gram_from_json(tower: TowerField, node):
    if not isinstance(node, list) or any(not isinstance(r, list) for r in node):
        raise MalformedCertificate("gram matrix must be a list of rows")
    zeros = _zeros_of(tower)
    return tuple(tuple(TowerElement(tower, *_raw_from_json(tower, x, zeros)) for x in row) for row in node)


def canonical_dumps(doc) -> str:
    """The one canonical text form: sorted keys, compact, newline-terminated."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def canonical_loads(text: str):
    """Parse a JSON document, rejecting NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # bad JSON, NaN or Infinity, or an integer past the digit limit
        raise MalformedCertificate(f"invalid JSON: {exc}") from exc


__all__ = [
    "fraction_to_json",
    "fraction_from_json",
    "int_from_json",
    "element_to_json",
    "element_from_json",
    "tower_to_json",
    "tower_from_json",
    "vector_to_json",
    "vector_from_json",
    "gram_to_json",
    "gram_from_json",
    "canonical_dumps",
    "canonical_loads",
]

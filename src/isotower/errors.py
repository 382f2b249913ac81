"""Exception hierarchy shared by all isotower modules."""

from __future__ import annotations

from dataclasses import dataclass


class IsotowerError(Exception):
    """Base class for all library errors."""


class ZeroInverse(IsotowerError, ZeroDivisionError):
    """Inversion of the zero element was requested."""


@dataclass(frozen=True)
class ReducibilityWitness:
    """A proper factor of a level's minimal polynomial, found during inversion.

    ``factor`` is a tuple of raw coefficient data over the level below,
    lowest degree first, monic, with 1 <= deg(factor) < deg(minpoly).
    """

    level: int
    factor: tuple


class PreconditionError(IsotowerError):
    """A documented operation precondition was violated (CLI exit code 3)."""


class ReducibilityError(PreconditionError):
    """A tower level turned out to be a quotient by a reducible polynomial.

    Towers must be built from irreducible minimal polynomials; a violation
    surfaces lazily, when an inversion hits a zero divisor.  Carries a
    :class:`ReducibilityWitness` naming the level and the factor found.
    """

    def __init__(self, witness: ReducibilityWitness):
        self.witness = witness
        super().__init__(
            f"level {witness.level} minpoly has proper factor of degree "
            f"{len(witness.factor) - 1}"
        )


class AllVanish(PreconditionError):
    """Every form of the system vanishes at the supplied vector."""


class DimensionTooSmall(PreconditionError):
    """System dimension below r(r+1)/2 + 1."""


class DegreeTooLarge(PreconditionError):
    """[K:F] > 8 is not supported by the splitting pipeline."""


class Missing2PartDeclaration(PreconditionError):
    """Even-degree K without a declared maximal 2-subextension chain."""


class MemoryGuardExceeded(PreconditionError):
    """Tensor power dimension over K would exceed the 4096 guard."""


class MalformedCertificate(IsotowerError):
    """Certificate or input JSON does not parse to the canonical form (CLI exit 2)."""


class SingularMatrix(IsotowerError):
    """Exact linear solve hit a rank-deficient matrix where full rank was required."""


__all__ = [
    "IsotowerError",
    "ZeroInverse",
    "ReducibilityWitness",
    "ReducibilityError",
    "PreconditionError",
    "AllVanish",
    "DimensionTooSmall",
    "DegreeTooLarge",
    "Missing2PartDeclaration",
    "MemoryGuardExceeded",
    "MalformedCertificate",
    "SingularMatrix",
]

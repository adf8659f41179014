"""Integer families realizing the three boundary locus shapes.

Each special curve shape corresponds to a Diophantine condition on the
heights: 2b^2 = a^2 + c^2 (hyperbola), b^2 = ac (circle) and
2a^2c^2 = a^2b^2 + c^2b^2 (lemniscate). All three have two-parameter
integer families; the lemniscate one is a striking product of three
quadratic forms u, w, s in (m, n) satisfying 2w^2 = u^2 + s^2
identically.

Everything here is exact integer arithmetic; the quadratic-form products
overflow 64-bit ranges already near |m|, |n| ~ 1000.
"""

from __future__ import annotations

import enum

from ._base import GeometryError, _Record

__all__ = [
    "IntTriple",
    "FamilyKind",
    "pythagorean_family",
    "geometric_family",
    "quadratic_form_family",
    "verify_identity",
    "normalize_triple",
]


class IntTriple(_Record):
    """Raw generator output; may be unordered and carry signs."""

    _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        self.__dict__.update(a=a, b=b, c=c)


class FamilyKind(enum.Enum):
    QUADRATIC_MEAN = "QuadraticMean"        # 2 b^2 = a^2 + c^2
    GEOMETRIC_MEAN = "GeometricMean"        # b^2 = a c
    HARMONIC_QUADRATIC = "HarmonicQuadratic"  # 2 a^2 c^2 = a^2 b^2 + c^2 b^2


def pythagorean_family(m: int, n: int) -> IntTriple:
    """Triple with 2b^2 = a^2 + c^2 from the Pythagorean parametrization."""
    if (m, n) == (0, 0):
        raise GeometryError("(m, n) = (0, 0) generates the zero triple")
    a = abs(m * m + 2 * m * n - n * n)
    c = abs(m * m - 2 * m * n - n * n)
    b = m * m + n * n
    return IntTriple(a, b, c)


def geometric_family(p: int, q: int, k: int = 1) -> IntTriple:
    """Triple (k p^2, k p q, k q^2) with b^2 = ac exactly."""
    if p <= 0 or q <= 0 or k <= 0:
        raise GeometryError(f"need positive parameters, got ({p}, {q}, {k})")
    if p == q:
        raise GeometryError("p = q degenerates to a = b = c")
    return IntTriple(k * p * p, k * p * q, k * q * q)


def quadratic_form_family(m: int, n: int) -> IntTriple:
    """Triple of quadratic-form products with 2a^2c^2 = a^2b^2 + c^2b^2.

    b and c may come out negative; the identity holds in the squares.
    """
    if (m, n) == (0, 0):
        raise GeometryError("(m, n) = (0, 0) generates the zero triple")
    u = 46 * m * m + 24 * m * n + n * n
    w = 74 * m * m + 10 * m * n + n * n
    s = 94 * m * m + 4 * m * n - n * n
    return IntTriple(u * w, u * s, s * w)


def verify_identity(t: IntTriple, kind: FamilyKind) -> bool:
    """Exact check of the family identity on the absolute values."""
    a, b, c = abs(t.a), abs(t.b), abs(t.c)
    if kind is FamilyKind.QUADRATIC_MEAN:
        return 2 * b * b == a * a + c * c
    if kind is FamilyKind.GEOMETRIC_MEAN:
        return b * b == a * c
    return 2 * a * a * c * c == a * a * b * b + c * c * b * b


def normalize_triple(t: IntTriple) -> IntTriple:
    """Absolute values sorted descending; rejects zeros and repeats.

    The identities are symmetric enough that the middle value after
    sorting is always the mean, so the normalized triple is a valid
    locus configuration.
    """
    values = sorted((abs(t.a), abs(t.b), abs(t.c)), reverse=True)
    if values[2] == 0:
        raise GeometryError(f"triple {t} contains a zero height")
    if values[0] == values[1] or values[1] == values[2]:
        raise GeometryError(f"triple {t} has repeated heights after normalization")
    return IntTriple(*values)

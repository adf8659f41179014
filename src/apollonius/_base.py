"""Errors, the value record, the flat residuals, the scaling exponent and the exact heights that every layer shares.

Kept apart from the geometry modules so that each CLI subcommand imports,
and so compiles, only the modules it runs: classify needs TripleConfig's
record base and OrderingError without the half-plane primitives, and the
witness search needs the flat residual without the locus.
"""

from __future__ import annotations

import math


class GeometryError(ValueError):
    """Base class for domain errors raised by the geometry layer."""


class DegenerateInputError(GeometryError):
    """Two points that must be distinct coincide."""


class OnAxisError(GeometryError):
    """An operation that excludes the y-axis received a point with x = 0."""


class OrderingError(GeometryError):
    """Heights that must be strictly ordered are not."""


class WitnessSearchError(RuntimeError):
    """A witness should exist but none passing the angle oracle was constructed."""


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise GeometryError(f"{name} must be finite, got {value!r}")


class _Record:
    """A frozen value record: fields set once by __init__, then compared, hashed and shown by _fields.

    Hand-written because every CLI run defines the records: a frozen class
    from the standard library's record decorator costs ~1.2 ms to define
    (a plain class 0.02 ms), and importing that module with inspect 8-14 ms.
    Each subclass's own __init__ stores its fields straight into
    self.__dict__, faster than a generic base __init__ or slot stores: with
    one self.__dict__.update(...), or, on the witness path (FourConfig,
    Witness), one item at a time, which is faster still.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._values())])
        return f"{type(self).__qualname__}({fields})"


_atan2 = math.atan2


def _flat_residual(x: float, y: float, h1: float, h2: float, h3: float) -> float:
    """Flat angle(h1 p h2) - angle(h2 p h3) at p = (x, y), for heights h1 > h2 > h3.

    The ray from p to the axis point (0, h) has the direction
    atan2(h - y, |x|), which lies in (-pi/2, pi/2) and decreases with h.
    So each angle is a difference of two directions and the residual a
    second difference: no product of coordinates is formed, which could
    lose digits in the subnormals or overflow.
    """
    ax = abs(x)
    t2 = _atan2(h2 - y, ax)
    return (_atan2(h1 - y, ax) - t2) - (t2 - _atan2(h3 - y, ax))


def _flat_residuals(x: float, y: float, a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """(_flat_residual(x, y, a, b, c), _flat_residual(x, y, b, c, d)), bit for bit, from four ray directions."""
    ax = abs(x)
    tb, tc = _atan2(b - y, ax), _atan2(c - y, ax)
    # the angle (b p c) closes the first residual and opens the second
    middle = tb - tc
    return (_atan2(a - y, ax) - tb) - middle, middle - (tc - _atan2(d - y, ax))


def _unit_exponent(first: float, last: float) -> int:
    """The k that puts max(|first|, |last|) / 2^k in [0.5, 1), for heights ordered first > last.

    Each caller divides its heights by 2^k with ldexp (2^-k itself can
    overflow): exact where the quotient stays normal. The locus passes its
    outer heights, so the copy's gaps, products and squares stay finite but
    heights far below the largest can round into the subnormals or to 0;
    the witness searches pass the middle pair, so heights far outside it
    can overflow instead. Each caller checks the copy it needs.
    """
    return math.frexp(first if first >= -last else -last)[1]


def _integers(*values: float) -> tuple[list[int], int]:
    """The values as integers over their common power-of-two denominator, and that denominator."""
    ratios = [value.as_integer_ratio() for value in values]
    scale = max([denominator for _, denominator in ratios])
    return [numerator * (scale // denominator) for numerator, denominator in ratios], scale

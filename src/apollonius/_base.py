"""Errors, the value record and the flat angle that every layer shares.

Kept apart from the geometry modules so that each CLI subcommand imports,
and so compiles, only the modules it runs: classify needs TripleConfig's
record base and OrderingError without the half-plane primitives, and the
witness search needs the flat angle without the locus.
"""

from __future__ import annotations

import math

# |cross| and |dot| of two flat angle vectors both below this: products of
# their components can have lost digits in the subnormals (above it, such
# a loss moves the angle by less than 2^-110)
_SHORT_PRODUCTS = 2.0**-960


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


def _euclid_angle(x: float, y: float, h1: float, h2: float) -> float:
    # the angle between the rays (-x, h1 - y) and (-x, h2 - y), from the
    # cross and dot products of the two vectors, operation for operation
    nx, dy1, dy2 = -x, h1 - y, h2 - y
    cross, dot = abs(nx * dy2 - dy1 * nx), nx * nx + dy1 * dy2
    if cross < _SHORT_PRODUCTS and -_SHORT_PRODUCTS < dot < _SHORT_PRODUCTS:
        # products may have lost digits in the subnormals: the same angle
        # with the largest component brought into [0.5, 1)
        k = math.frexp(max(abs(nx), abs(dy1), abs(dy2)))[1]
        nx, dy1, dy2 = math.ldexp(nx, -k), math.ldexp(dy1, -k), math.ldexp(dy2, -k)
        cross, dot = abs(nx * dy2 - dy1 * nx), nx * nx + dy1 * dy2
    return math.atan2(cross, dot)

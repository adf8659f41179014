"""Primitives of the upper half-plane model of the hyperbolic plane.

Points live in {(x, y): y > 0}; the geodesics are vertical rays and
semicircles centered on the boundary axis y = 0. The central trick of
this module is the boundary-center reduction: the geodesic through
P = (x, y) and an axis point (0, h) is the circle centered at

    ((x^2 + y^2 - h^2) / (2x), 0),

and the hyperbolic angle between two geodesics at P equals the
Euclidean angle between the corresponding radius vectors. Multiplied
by 2x, the radius vector is (x^2 - y^2 + h^2, 2xy), the complex number
P^2 + h^2. These vectors share their second component, so each has one
direction, and the angle at P between the geodesics to two axis points
is the difference of two directions, with no center, no division and no
unit vectors. The equal-angle residual built on this,
equal_angle_residual, a second difference of three directions, is the
independent judge of every hyperbolic witness, and everything
downstream (locus sampling, witness search) is checked against it.
hyp_angle, between geodesics to any two points, takes atan2(|cross|,
dot) of two tangents instead. The module builds no
geodesic and measures no distance: the circle through two points and
the hyperbolic distance survive only as the test reference
tests/_geodesics.py.
"""

from __future__ import annotations

import math

from ._base import (
    DegenerateInputError,
    GeometryError,
    OnAxisError,
    OrderingError,
    _check_finite,
    _Record,
)

__all__ = [
    "GeometryError",
    "DegenerateInputError",
    "OnAxisError",
    "OrderingError",
    "HPoint",
    "AxisPoint",
    "AngleResidual",
    "hyp_angle",
    "equal_angle_residual",
]


class HPoint(_Record):
    """A point of the upper half-plane (y strictly positive)."""

    _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        x, y = float(x), float(y)
        self.__dict__.update(x=x, y=y)
        _check_finite("x", x)
        _check_finite("y", y)
        _check_upper(y)


def _check_upper(y: float) -> None:
    if y <= 0:
        raise GeometryError(f"HPoint requires y > 0, got y={y!r}")


class AxisPoint(_Record):
    """A point (0, h) on the positive y-axis, stored by its height."""

    _fields = ("h",)

    def __init__(self, h: float):
        h = float(h)
        self.__dict__.update(h=h)
        _check_finite("h", h)
        if h <= 0:
            raise GeometryError(f"AxisPoint requires h > 0, got {h!r}")


class AngleResidual(_Record):
    """Difference of two unsigned angles at a common vertex, in radians."""

    _fields = ("value",)

    def __init__(self, value: float):
        self.__dict__.update(value=value)


def _oriented_tangent(px: float, py: float, qx: float, qy: float) -> tuple[float, float]:
    """Tangent at p of the geodesic through p and q, pointing toward q; not of unit length.

    With dx = qx - px, this is the radius vector (px - center, py) turned a
    quarter turn and multiplied by -2 dx, which clears the center's
    division: a vertical geodesic (dx = 0) comes out vertical exactly.
    Its dot product with the chord q - p is (py + qy) |q - p|^2 > 0, so
    it points toward q.
    """
    dx = qx - px
    return 2.0 * py * dx, dx * dx - (py - qy) * (py + qy)


def _unsigned_angle(u: tuple[float, float], v: tuple[float, float]) -> float:
    # atan2 of cross/dot is stable near 0 and pi, unlike acos of the dot
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    return math.atan2(abs(cross), dot)


def _check_angle_points(px: float, py: float, q1x: float, q1y: float, q2x: float, q2y: float) -> None:
    if (px, py) == (q1x, q1y) or (px, py) == (q2x, q2y):
        raise DegenerateInputError("angle vertex coincides with a target point")
    if (q1x, q1y) == (q2x, q2y):
        raise DegenerateInputError("angle target points coincide")


def hyp_angle(p: HPoint, q1: HPoint, q2: HPoint) -> float:
    """Hyperbolic angle at p between the geodesic rays toward q1 and q2.

    Tangents are oriented from p toward each target point, so the result
    is the unsigned ray angle in [0, pi]; opposite directions along one
    geodesic give pi.
    """
    _check_angle_points(p.x, p.y, q1.x, q1.y, q2.x, q2.y)
    # each tangent is scaled by its own power of two, so that neither its
    # squares nor the products of the two tangents leave the normal floats
    return _unsigned_angle(_rescaled_tangent(p.x, p.y, q1.x, q1.y), _rescaled_tangent(p.x, p.y, q2.x, q2.y))


def equal_angle_residual(p: HPoint, a: AxisPoint, b: AxisPoint, c: AxisPoint) -> AngleResidual:
    """Angle(a p b) minus angle(b p c) for axis points a > b > c.

    Zero exactly on the equal-angle locus of the triple. Points on the
    y-axis are rejected: there the three geodesics collapse into one.
    """
    if not (a.h > b.h > c.h):
        raise OrderingError(f"heights must satisfy a > b > c, got {a.h}, {b.h}, {c.h}")
    return AngleResidual(*_axis_residuals(p.x, p.y, (a.h, b.h, c.h)))


# bound once: the judge of every witness calls them on each height
_atan2, _frexp, _ldexp = math.atan2, math.frexp, math.ldexp


def _axis_residuals(x: float, y: float, heights: tuple[float, ...]) -> list[float]:
    """Residuals angle(h0 p h1) - angle(h1 p h2), angle(h1 p h2) - angle(h2 p h3), ... at p = (x, y).

    The heights decrease strictly and y > 0 (the callers check both). The
    tangent toward (0, h), _oriented_tangent's (-2xy, x^2 - (y - h)(y + h)),
    has the same first component for every h. So, mirrored to x > 0, each
    has the direction atan2(x^2 - (y - h)(y + h), 2|x|y), which lies in
    (-pi/2, pi/2) and grows with h; each angle is a difference of two
    directions and each residual a second difference, as in
    _base._flat_residuals.
    """
    if x == 0.0:
        raise OnAxisError("the equal-angle locus excludes points on the y-axis")
    # divide the point and the heights by the power of two of the point's
    # own scale: the point keeps every bit and its squares stay finite. A
    # height whose quotient overflows is infinite, with direction exactly
    # pi/2, and one that underflows gives its limit: both directions are
    # correct to within 2^-1000
    k = -_frexp(max(abs(x), y))[1]
    sx, sy = _ldexp(abs(x), k), _ldexp(y, k)
    xx, first = sx * sx, 2.0 * sx * sy
    residuals = []
    upper = previous = None
    for h in heights:
        try:
            sh = _ldexp(h, k)
        except OverflowError:
            sh = math.inf
        lower = _atan2(xx - (sy - sh) * (sy + sh), first)
        if upper is not None:
            angle = upper - lower
            if previous is not None:
                residuals.append(previous - angle)
            previous = angle
        upper = lower
    return residuals


def _rescaled_tangent(px: float, py: float, qx: float, qy: float) -> tuple[float, float]:
    """The tangent at p toward q, from inputs and output each scaled into [0.5, 1) by a power of two."""
    k = -math.frexp(max(abs(px), py, abs(qx), qy))[1]
    tx, ty = _oriented_tangent(math.ldexp(px, k), math.ldexp(py, k), math.ldexp(qx, k), math.ldexp(qy, k))
    k = -math.frexp(max(abs(tx), abs(ty)))[1]
    return math.ldexp(tx, k), math.ldexp(ty, k)

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
downstream (locus sampling, witness search) is checked against it. It
is the only angle the module measures: it builds no geodesic and
measures no distance, and the circle through two points, its tangent
and the hyperbolic distance survive only as the test reference
tests/_geodesics.py.
"""

from __future__ import annotations

import math

from ._base import GeometryError, OnAxisError, OrderingError, _check_finite, _Record

__all__ = [
    "GeometryError",
    "OnAxisError",
    "OrderingError",
    "HPoint",
    "AxisPoint",
    "AngleResidual",
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
    tangent at p of the geodesic toward (0, h) is the radius vector turned
    a quarter turn; times 2x, which clears the center's division, it is
    (-2xy, x^2 - (y - h)(y + h)), with the same first component for every
    h. So, mirrored to x > 0, each has the direction
    atan2(x^2 - (y - h)(y + h), 2|x|y), which lies in (-pi/2, pi/2) and
    grows with h; each angle is a difference of two directions and each
    residual a second difference, as in _base._flat_residuals.
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


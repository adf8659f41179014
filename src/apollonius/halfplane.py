"""Primitives of the upper half-plane model of the hyperbolic plane.

Points live in {(x, y): y > 0}. Geodesics are vertical rays and
semicircles centered on the boundary axis y = 0. The central trick of
this module is the boundary-center reduction: the geodesic through
P = (x, y) and an axis point (0, h) is the circle centered at

    ((x^2 + y^2 - h^2) / (2x), 0),

and the hyperbolic angle between two geodesics at P equals the
Euclidean angle between the corresponding radius vectors. Multiplied
by 2x, the radius vector is (x^2 - y^2 + h^2, 2xy), the complex number
P^2 + h^2, so the angle at P between the geodesics to two axis points
is the angle between two such vectors, with no center, no division and
no unit vectors: atan2(|cross|, dot) needs none. The equal-angle
residual built on this, equal_angle_residual, is the independent judge
of every hyperbolic witness, and everything downstream (locus
sampling, witness search) is checked against it.
"""

from __future__ import annotations

import math

from ._base import (
    DegenerateInputError,
    GeometryError,
    OffCurveError,
    OnAxisError,
    OrderingError,
    _check_finite,
    _Record,
)

__all__ = [
    "GeometryError",
    "DegenerateInputError",
    "OffCurveError",
    "OnAxisError",
    "OrderingError",
    "HPoint",
    "AxisPoint",
    "VerticalRay",
    "Arc",
    "Geodesic",
    "AngleResidual",
    "geodesic_through",
    "tangent_direction",
    "hyp_angle",
    "equal_angle_residual",
    "hyp_distance",
    "axis_center",
]

# Abscissa gap, relative to the larger abscissa, at or below which
# geodesic_through returns a vertical ray; the arc center diverges as the
# abscissas coincide.
VERTICAL_EPS = 1e-12

# Relative tolerance for "P lies on G" checks.
ON_CURVE_RTOL = 1e-9


def _scale(*values: float) -> float:
    # no absolute floor: every test that uses it must hold alike for a
    # configuration and its copy scaled by any power of two
    return max(abs(v) for v in values)


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


class VerticalRay(_Record):
    """Geodesic {x = x0, y > 0}."""

    _fields = ("x0",)

    def __init__(self, x0: float):
        self.__dict__.update(x0=x0)


class Arc(_Record):
    """Geodesic semicircle centered at (center, 0) with the given radius."""

    _fields = ("center", "radius")

    def __init__(self, center: float, radius: float):
        self.__dict__.update(center=center, radius=radius)
        if not radius > 0:
            raise GeometryError(f"Arc radius must be positive, got {radius!r}")


Geodesic = VerticalRay | Arc


class AngleResidual(_Record):
    """Difference of two unsigned angles at a common vertex, in radians."""

    _fields = ("value",)

    def __init__(self, value: float):
        self.__dict__.update(value=value)


def geodesic_through(p: HPoint, q: HPoint) -> Geodesic:
    """Geodesic through two distinct points.

    Near-equal abscissas (within VERTICAL_EPS relative) give a vertical
    ray; otherwise the perpendicular-bisector construction places the
    arc center at (q.x^2 + q.y^2 - p.x^2 - p.y^2) / (2 (q.x - p.x)). A
    center beyond the float range also gives a vertical ray: that arc is
    straight to double precision wherever it meets the points.
    """
    if p.x == q.x and p.y == q.y:
        raise DegenerateInputError(f"cannot draw a geodesic through coincident points {p}")
    center = _arc_center(p.x, p.y, q.x, q.y)
    if center is None:
        return VerticalRay(x0=p.x)
    radius = math.hypot(p.x - center, p.y)
    return Arc(center=center, radius=radius)


def _arc_center(px: float, py: float, qx: float, qy: float) -> float | None:
    """Center abscissa of the geodesic arc through two points, None for a vertical ray."""
    if abs(px - qx) <= VERTICAL_EPS * max(abs(px), abs(qx)):  # <=: px == qx == 0 is vertical too
        return None
    center = (qx * qx + qy * qy - px * px - py * py) / (2.0 * (qx - px))
    return center if math.isfinite(center) else None


def axis_center(x: float, y: float, h: float) -> float:
    """Center abscissa of the geodesic through (x, y) and the axis point (0, h)."""
    return (x * x + y * y - h * h) / (2.0 * x)


def _contains(g: Geodesic, p: HPoint) -> bool:
    if isinstance(g, VerticalRay):
        return abs(p.x - g.x0) <= ON_CURVE_RTOL * _scale(p.x, g.x0)
    d = math.hypot(p.x - g.center, p.y)
    return abs(d - g.radius) <= ON_CURVE_RTOL * g.radius


def tangent_direction(g: Geodesic, p: HPoint) -> tuple[float, float]:
    """Unit tangent of g at p; orientation sign is unspecified.

    For an arc this is the radius vector (p.x - center, p.y) rotated a
    quarter turn, so the dot product with the radius is zero.
    """
    if not _contains(g, p):
        raise OffCurveError(f"{p} does not lie on {g}")
    if isinstance(g, VerticalRay):
        return (0.0, 1.0)
    tx, ty = -p.y, p.x - g.center
    norm = math.hypot(tx, ty)
    return (tx / norm, ty / norm)


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


# |x| y, after the scaling of _axis_residuals, below which a tangent can be
# shorter than 2^-479, so that products of two of them leave the normal
# floats and lose digits
_SHORT_TANGENTS = 2.0**-480


def _axis_residuals(x: float, y: float, heights: tuple[float, ...]) -> list[float]:
    """Residuals angle(h0 p h1) - angle(h1 p h2), angle(h1 p h2) - angle(h2 p h3), ... at p = (x, y).

    The heights decrease strictly and y > 0 (the callers check both). One
    tangent per height, _oriented_tangent toward (0, h), which is
    (-2xy, x^2 - (y - h)(y + h)), and one angle per adjacent pair. These
    tangents share their first component and x^2, which are formed once,
    so each height adds one scalar; each angle takes the float operations
    of _unsigned_angle on two such tangents.
    """
    if x == 0.0:
        raise OnAxisError("the equal-angle locus excludes points on the y-axis")
    # divide everything by the power of two of the largest magnitude: exact,
    # angle-preserving, and the tangents' squared coordinates stay normal
    k = -math.frexp(max(abs(x), y, heights[0]))[1]
    sx, sy = math.ldexp(x, k), math.ldexp(y, k)
    _check_upper(sy)
    # every tangent is at least 2 |x| y long; where that is tiny, the point
    # and the heights span more than one scale can hold, so each tangent is
    # scaled on its own
    short = abs(sx) * sy < _SHORT_TANGENTS
    upper = math.ldexp(heights[0], k)
    if short:
        u = _rescaled_tangent(x, y, 0.0, heights[0])
    else:
        dx = 0.0 - sx
        tx = 2.0 * sy * dx
        txtx, dxdx = tx * tx, dx * dx
        uy = dxdx - (sy - upper) * (sy + upper)
    residuals = []
    previous = None
    for h in heights[1:]:
        lower = math.ldexp(h, k)
        if not (lower > 0.0 and lower != upper and sx != 0.0):
            # values far below the largest can round to zero or merge: the
            # checks of an HPoint and of hyp_angle, in the order the angles
            # meet them
            _check_upper(lower)
            _check_angle_points(sx, sy, 0.0, upper, 0.0, lower)
        if short:
            v = _rescaled_tangent(x, y, 0.0, h)
            angle = _unsigned_angle(u, v)
            u = v
        else:
            # _unsigned_angle((tx, uy), (tx, vy)), operation for operation:
            # abs(cross) too, since atan2(-0.0, dot < 0) is -pi
            vy = dxdx - (sy - lower) * (sy + lower)
            angle = math.atan2(abs(tx * vy - uy * tx), txtx + uy * vy)
            uy = vy
        if previous is not None:
            residuals.append(previous - angle)
        previous, upper = angle, lower
    return residuals


def _rescaled_tangent(px: float, py: float, qx: float, qy: float) -> tuple[float, float]:
    """The tangent at p toward q, from inputs and output each scaled into [0.5, 1) by a power of two."""
    k = -math.frexp(max(abs(px), py, abs(qx), qy))[1]
    tx, ty = _oriented_tangent(math.ldexp(px, k), math.ldexp(py, k), math.ldexp(qx, k), math.ldexp(qy, k))
    k = -math.frexp(max(abs(tx), abs(ty)))[1]
    return math.ldexp(tx, k), math.ldexp(ty, k)


def hyp_distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance arccosh(1 + |pq|^2 / (2 p.y q.y))."""
    d2 = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
    return math.acosh(1.0 + d2 / (2.0 * p.y * q.y))

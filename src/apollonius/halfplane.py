"""Primitives of the upper half-plane model of the hyperbolic plane.

Points live in {(x, y): y > 0}. Geodesics are vertical rays and
semicircles centered on the boundary axis y = 0. The central trick of
this module is the boundary-center reduction: the geodesic through
P = (x, y) and an axis point (0, h) is the circle centered at

    ((x^2 + y^2 - h^2) / (2x), 0),

and the hyperbolic angle between two geodesics at P equals the
Euclidean angle between the corresponding radius vectors. Everything
downstream (locus sampling, witness search) is checked against the
angle predicate defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

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

# Abscissa gap, relative to the larger abscissa, at or below which the
# connecting geodesic is treated as vertical; the arc center diverges as
# the abscissas coincide.
VERTICAL_EPS = 1e-12

# Relative tolerance for "P lies on G" checks.
ON_CURVE_RTOL = 1e-9


class GeometryError(ValueError):
    """Base class for domain errors raised by the geometry layer."""


class DegenerateInputError(GeometryError):
    """Two points that must be distinct coincide."""


class OffCurveError(GeometryError):
    """A point that must lie on a geodesic does not."""


class OnAxisError(GeometryError):
    """An operation that excludes the y-axis received a point with x = 0."""


class OrderingError(GeometryError):
    """Heights that must be strictly ordered are not."""


def _scale(*values: float) -> float:
    # no absolute floor: every test that uses it must hold alike for a
    # configuration and its copy scaled by any power of two
    return max(abs(v) for v in values)


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise GeometryError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class HPoint:
    """A point of the upper half-plane (y strictly positive)."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        _check_finite("x", self.x)
        _check_finite("y", self.y)
        _check_upper(self.y)


def _check_upper(y: float) -> None:
    if y <= 0:
        raise GeometryError(f"HPoint requires y > 0, got y={y!r}")


@dataclass(frozen=True)
class AxisPoint:
    """A point (0, h) on the positive y-axis, stored by its height."""

    h: float

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        _check_finite("h", self.h)
        if self.h <= 0:
            raise GeometryError(f"AxisPoint requires h > 0, got {self.h!r}")


@dataclass(frozen=True)
class VerticalRay:
    """Geodesic {x = x0, y > 0}."""

    x0: float


@dataclass(frozen=True)
class Arc:
    """Geodesic semicircle centered at (center, 0) with the given radius."""

    center: float
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise GeometryError(f"Arc radius must be positive, got {self.radius!r}")


Geodesic = Union[VerticalRay, Arc]


@dataclass(frozen=True)
class AngleResidual:
    """Difference of two unsigned angles at a common vertex, in radians."""

    value: float


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
    """Unit tangent at p of the geodesic through p and q, pointing toward q."""
    center = _arc_center(px, py, qx, qy)
    if center is None:
        return (0.0, 1.0) if qy > py else (0.0, -1.0)
    tx, ty = -py, px - center
    # pick the sign whose chord dot product is positive; it cannot vanish
    # because both endpoints sit strictly above the axis
    if tx * (qx - px) + ty * (qy - py) < 0.0:
        tx, ty = -tx, -ty
    norm = math.hypot(tx, ty)
    return (tx / norm, ty / norm)


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
    toward_q1 = _oriented_tangent(p.x, p.y, q1.x, q1.y)
    return _unsigned_angle(toward_q1, _oriented_tangent(p.x, p.y, q2.x, q2.y))


def equal_angle_residual(p: HPoint, a: AxisPoint, b: AxisPoint, c: AxisPoint) -> AngleResidual:
    """Angle(a p b) minus angle(b p c) for axis points a > b > c.

    Zero exactly on the equal-angle locus of the triple. Points on the
    y-axis are rejected: there the three geodesics collapse into one.
    """
    if not (a.h > b.h > c.h):
        raise OrderingError(f"heights must satisfy a > b > c, got {a.h}, {b.h}, {c.h}")
    if p.x == 0.0:
        raise OnAxisError("the equal-angle locus excludes points on the y-axis")
    # divide everything by the power of two of the largest magnitude: exact,
    # angle-preserving, and the geodesics' squared coordinates stay normal
    k = -math.frexp(max(abs(p.x), p.y, a.h))[1]
    x, y = math.ldexp(p.x, k), math.ldexp(p.y, k)
    ha, hb, hc = math.ldexp(a.h, k), math.ldexp(b.h, k), math.ldexp(c.h, k)
    # values far below the largest can round to zero or merge: the checks
    # of an HPoint and of hyp_angle, in the order the two angles meet them
    _check_upper(y)
    _check_upper(hb)
    _check_angle_points(x, y, 0.0, ha, 0.0, hb)
    _check_upper(hc)
    _check_angle_points(x, y, 0.0, hb, 0.0, hc)
    toward_b = _oriented_tangent(x, y, 0.0, hb)
    first = _unsigned_angle(_oriented_tangent(x, y, 0.0, ha), toward_b)
    second = _unsigned_angle(toward_b, _oriented_tangent(x, y, 0.0, hc))
    return AngleResidual(first - second)


def hyp_distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance arccosh(1 + |pq|^2 / (2 p.y q.y))."""
    d2 = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
    return math.acosh(1.0 + d2 / (2.0 * p.y * q.y))

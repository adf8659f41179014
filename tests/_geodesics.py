"""The geodesics of the half-plane and its distance, for the tests.

apollonius.halfplane judges angles from tangents that it forms without
building any geodesic. This module keeps the construction that does
build them: the geodesic through two points is a vertical ray or the
semicircle centered where the perpendicular bisector of the two points
meets the boundary axis (Beardon, The Geometry of Discrete Groups, 1983,
section 7), and its tangent at a point is the radius vector turned a
quarter turn. Tests hold the judge equal_angle_residual to the angles
between those tangents, and cross_ratio_hyper to its definition from
hyp_distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from apollonius.halfplane import GeometryError, HPoint


class DegenerateInputError(GeometryError):
    """Two points that must be distinct coincide."""


# Abscissa gap, relative to the larger abscissa, at or below which
# geodesic_through returns a vertical ray; the arc center diverges as the
# abscissas coincide.
VERTICAL_EPS = 1e-12


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


def geodesic_through(p: HPoint, q: HPoint) -> VerticalRay | Arc:
    """Geodesic through two distinct points.

    Near-equal abscissas (within VERTICAL_EPS relative) give a vertical
    ray; otherwise the perpendicular-bisector construction places the
    arc center at (q.x^2 + q.y^2 - p.x^2 - p.y^2) / (2 (q.x - p.x)). A
    center beyond the float range also gives a vertical ray: that arc is
    straight to double precision wherever it meets the points.
    """
    if p.x == q.x and p.y == q.y:
        raise DegenerateInputError(f"cannot draw a geodesic through coincident points {p}")
    if abs(p.x - q.x) <= VERTICAL_EPS * max(abs(p.x), abs(q.x)):  # <=: p.x == q.x == 0 is vertical too
        return VerticalRay(x0=p.x)
    center = (q.x * q.x + q.y * q.y - p.x * p.x - p.y * p.y) / (2.0 * (q.x - p.x))
    if not math.isfinite(center):
        return VerticalRay(x0=p.x)
    return Arc(center=center, radius=math.hypot(p.x - center, p.y))


def axis_center(x: float, y: float, h: float) -> float:
    """Center abscissa of the geodesic through (x, y) and the axis point (0, h)."""
    return (x * x + y * y - h * h) / (2.0 * x)


def tangent_direction(g: VerticalRay | Arc, p: HPoint) -> tuple[float, float]:
    """Unit tangent of g at p, a point of g; orientation sign is unspecified.

    For an arc this is the radius vector (p.x - center, p.y) rotated a
    quarter turn, so the dot product with the radius is zero.
    """
    if isinstance(g, VerticalRay):
        return (0.0, 1.0)
    tx, ty = -p.y, p.x - g.center
    norm = math.hypot(tx, ty)
    return (tx / norm, ty / norm)


def hyp_distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance arccosh(1 + |pq|^2 / (2 p.y q.y))."""
    d2 = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
    return math.acosh(1.0 + d2 / (2.0 * p.y * q.y))

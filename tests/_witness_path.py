"""Reference copy of the object-based witness path, for comparison.

Before the witness path ran on plain floats, every call validated a
FourConfig per stage (the scaled copy, the squares, the negated flat
problem), tested existence again in each callee, built the two loci and
judged points by building HPoints, geodesics and tangents per angle. Its
Euclidean witness intersected two float locus objects and polished the
point with Newton steps. This module keeps that code unchanged. Tests
require the cross-ratios and the existence tests to return its bits, the
half-plane oracle to raise its errors, and the closed-form witness
search to lose no witness that this copy finds within the contract. Its
oracle's center formula is off by up to 1e-7 next to the axis, so the
oracle's values are held to an exact evaluation instead. This copy's
find_witness_euclid returns None where existence holds but the float
loci do not cross off the axis, and accepts Euclidean witnesses up to
the 1e-8 bound rather than 1e-10, nan residuals included.
"""

from __future__ import annotations

import cmath
import math

from apollonius.fourpoint import (
    EXISTENCE_THRESHOLD,
    HYPER_WITNESS_TOL,
    FourConfig,
    Geometry,
    Witness,
    WitnessSearchError,
)
from apollonius.halfplane import (
    AngleResidual,
    AxisPoint,
    GeometryError,
    HPoint,
    OnAxisError,
    OrderingError,
)
from apollonius.locus import HorizontalLine, euclidean_equal_angle_residual, euclidean_locus

from _geodesics import VERTICAL_EPS, Arc, DegenerateInputError, VerticalRay
from _scalar_sampler import scaled

# ------------------------------------------------------------ half-plane oracle


def _scale(*values):
    return max(abs(v) for v in values)


def geodesic_through(p, q):
    if p.x == q.x and p.y == q.y:
        raise DegenerateInputError(f"cannot draw a geodesic through coincident points {p}")
    if abs(p.x - q.x) <= VERTICAL_EPS * _scale(p.x, q.x):
        return VerticalRay(x0=p.x)
    center = (q.x * q.x + q.y * q.y - p.x * p.x - p.y * p.y) / (2.0 * (q.x - p.x))
    if not math.isfinite(center):
        return VerticalRay(x0=p.x)
    radius = math.hypot(p.x - center, p.y)
    return Arc(center=center, radius=radius)


def _oriented_tangent(p, q):
    g = geodesic_through(p, q)
    if isinstance(g, VerticalRay):
        return (0.0, 1.0) if q.y > p.y else (0.0, -1.0)
    tx, ty = -p.y, p.x - g.center
    if tx * (q.x - p.x) + ty * (q.y - p.y) < 0.0:
        tx, ty = -tx, -ty
    norm = math.hypot(tx, ty)
    return (tx / norm, ty / norm)


def _unsigned_angle(u, v):
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    return math.atan2(abs(cross), dot)


def hyp_angle(p, q1, q2):
    if (p.x, p.y) == (q1.x, q1.y) or (p.x, p.y) == (q2.x, q2.y):
        raise DegenerateInputError("angle vertex coincides with a target point")
    if (q1.x, q1.y) == (q2.x, q2.y):
        raise DegenerateInputError("angle target points coincide")
    return _unsigned_angle(_oriented_tangent(p, q1), _oriented_tangent(p, q2))


def equal_angle_residual(p, a, b, c):
    if not (a.h > b.h > c.h):
        raise OrderingError(f"heights must satisfy a > b > c, got {a.h}, {b.h}, {c.h}")
    if p.x == 0.0:
        raise OnAxisError("the equal-angle locus excludes points on the y-axis")
    k = -math.frexp(max(abs(p.x), p.y, a.h))[1]
    p = HPoint(math.ldexp(p.x, k), math.ldexp(p.y, k))
    qb = HPoint(0.0, math.ldexp(b.h, k))
    first = hyp_angle(p, HPoint(0.0, math.ldexp(a.h, k)), qb)
    second = hyp_angle(p, qb, HPoint(0.0, math.ldexp(c.h, k)))
    return AngleResidual(first - second)


# ------------------------------------------------------------- witness search


def _require(cfg, geometry):
    if cfg.geometry is not geometry:
        raise GeometryError(f"operation expects a {geometry.value}-tagged config")


def cross_ratio_euclid(cfg):
    _require(cfg, Geometry.EUCLIDEAN)
    return ((cfg.b - cfg.c) / (cfg.a - cfg.b)) / ((cfg.c - cfg.d) / (cfg.a - cfg.d))


def cross_ratio_hyper(cfg):
    _require(cfg, Geometry.HYPERBOLIC)
    unit, _ = _normalized(cfg)
    squares = FourConfig(
        unit.a * unit.a, unit.b * unit.b, unit.c * unit.c, unit.d * unit.d, Geometry.EUCLIDEAN
    )
    return cross_ratio_euclid(squares)


def _normalized(cfg):
    k = math.frexp(cfg.a)[1]
    return scaled(cfg, math.ldexp(1.0, -k)), k


def exists_euclid(cfg):
    return cross_ratio_euclid(cfg) < EXISTENCE_THRESHOLD


def exists_hyper(cfg):
    return cross_ratio_hyper(cfg) < EXISTENCE_THRESHOLD


def find_witness_euclid(cfg):
    _require(cfg, Geometry.EUCLIDEAN)
    if not exists_euclid(cfg):
        return None
    upper = euclidean_locus(cfg.a, cfg.b, cfg.c)
    lower = euclidean_locus(cfg.b, cfg.c, cfg.d)
    xy = _intersect_axis_loci(upper, lower)
    if xy is None:
        return None
    x, y = _polish_euclid(cfg, *xy)
    res1 = euclidean_equal_angle_residual((x, y), cfg.a, cfg.b, cfg.c)
    res2 = euclidean_equal_angle_residual((x, y), cfg.b, cfg.c, cfg.d)
    worst = max(abs(res1), abs(res2))
    if worst > HYPER_WITNESS_TOL:
        raise _search_error(cfg, f"the loci meet at residual {worst:.3e} > {HYPER_WITNESS_TOL}")
    return Witness(x, y, (res1, res2))


def _intersect_axis_loci(upper, lower):
    if isinstance(upper, HorizontalLine) and isinstance(lower, HorizontalLine):
        return None
    if isinstance(upper, HorizontalLine):
        y = upper.height
        circle = lower
    elif isinstance(lower, HorizontalLine):
        y = lower.height
        circle = upper
    else:
        k1, r1 = upper.center_y, upper.radius
        k2, r2 = lower.center_y, lower.radius
        if k1 == k2:
            return None
        y = 0.5 * (k1 + k2) + (r1 - r2) * (r1 + r2) / (2.0 * (k2 - k1))
        circle = upper
    dy = y - circle.center_y
    x2 = (circle.radius - dy) * (circle.radius + dy)
    if x2 <= 0.0:
        return None
    return math.sqrt(x2), y


def _polish_euclid(cfg, x, y):
    def residuals(px, py):
        return (
            euclidean_equal_angle_residual((px, py), cfg.a, cfg.b, cfg.c),
            euclidean_equal_angle_residual((px, py), cfg.b, cfg.c, cfg.d),
        )

    for _ in range(3):
        f1, f2 = residuals(x, y)
        if max(abs(f1), abs(f2)) <= 1e-13:
            break
        h = 1e-7 * max(abs(x), abs(y), 1e-6)
        d1x = (euclidean_equal_angle_residual((x + h, y), cfg.a, cfg.b, cfg.c) - f1) / h
        d2x = (euclidean_equal_angle_residual((x + h, y), cfg.b, cfg.c, cfg.d) - f2) / h
        d1y = (euclidean_equal_angle_residual((x, y + h), cfg.a, cfg.b, cfg.c) - f1) / h
        d2y = (euclidean_equal_angle_residual((x, y + h), cfg.b, cfg.c, cfg.d) - f2) / h
        det = d1x * d2y - d1y * d2x
        if det == 0.0 or not math.isfinite(det):
            break
        step_x = (f1 * d2y - f2 * d1y) / det
        step_y = (f2 * d1x - f1 * d2x) / det
        nx, ny = x - step_x, y - step_y
        if nx == 0.0:
            break
        g1, g2 = residuals(nx, ny)
        if max(abs(g1), abs(g2)) >= max(abs(f1), abs(f2)):
            break
        x, y = nx, ny
    return x, y


def find_witness_hyper(cfg):
    _require(cfg, Geometry.HYPERBOLIC)
    if not exists_hyper(cfg):
        return None
    unit, k = _normalized(cfg)
    a2, b2, c2, d2 = (h * h for h in (unit.a, unit.b, unit.c, unit.d))
    try:
        flat = find_witness_euclid(FourConfig(-d2, -c2, -b2, -a2, Geometry.EUCLIDEAN))
    except WitnessSearchError as exc:
        raise _search_error(cfg, f"the flat witness of the squared heights failed: {exc}") from exc
    if flat is None:
        raise _search_error(cfg, "the flat problem of the squared heights returned no witness")
    root = cmath.sqrt(complex(flat.y, flat.x))
    x, y = abs(root.real), root.imag
    if y <= 0.0:
        raise _search_error(cfg, "the mapped witness lies on the boundary axis")
    p = HPoint(x, y)
    a, b, c, d = (AxisPoint(h) for h in (unit.a, unit.b, unit.c, unit.d))
    res1 = equal_angle_residual(p, a, b, c).value
    res2 = equal_angle_residual(p, b, c, d).value
    if max(abs(res1), abs(res2)) > HYPER_WITNESS_TOL:
        raise _search_error(cfg, f"the mapped witness has residuals ({res1:.3e}, {res2:.3e})")
    return Witness(math.ldexp(x, k), math.ldexp(y, k), (res1, res2))


def _search_error(cfg, cause):
    hyper = cfg.geometry is Geometry.HYPERBOLIC
    cross_ratio = cross_ratio_hyper(cfg) if hyper else cross_ratio_euclid(cfg)
    return WitnessSearchError(f"existence holds (cross-ratio {cross_ratio:.6g} < 3) but {cause}")

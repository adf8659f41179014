"""Equal-angle visibility of three adjacent collinear segments.

Four ordered axis points admit a witness P (a point off their common
line seeing the three segments under equal angles) exactly when a
cross-ratio of the configuration is below 3: in the flat plane the
cross-ratio of the heights themselves, in the half-plane model the same
expression applied to the squared heights.

Both facts come from one map. The geodesic through P = x + iy and the
axis point ih is the circle centred on the boundary at
m = (|P|^2 - h^2)/(2x), and its radius vector at P is

    P - m = (x^2 - y^2 + h^2)/(2x) + iy = (P^2 + h^2)/(2x).

The hyperbolic angle between two such geodesics at P is the Euclidean
angle between their radius vectors, and 2x > 0 is a common real factor,
so it is the Euclidean angle at W = P^2 between the rays to the real
points -h1^2 and -h2^2. The conformal square map therefore carries the
hyperbolic problem for heights a > b > c > d to the flat problem for the
collinear points -d^2 > -c^2 > -b^2 > -a^2, whose cross-ratio is the
squared-height one (Beardon, The Geometry of Discrete Groups, 1983,
ch. 7).

Witnesses are constructive and closed-form. The flat witness intersects
two circle loci analytically. The hyperbolic witness is the principal
square root of the flat witness of the squared, negated heights: with
that witness at (x_e, y_e) seeing points on the y-axis, W = y_e + i x_e
and P = sqrt(W), which lies in the upper half-plane because x_e > 0.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .halfplane import AxisPoint, GeometryError, HPoint, OrderingError, equal_angle_residual
from .locus import HorizontalLine, _euclid_angle, euclidean_locus

__all__ = [
    "Geometry",
    "FourConfig",
    "Witness",
    "WitnessSearchError",
    "cross_ratio_euclid",
    "exists_euclid",
    "cross_ratio_hyper",
    "exists_hyper",
    "find_witness_euclid",
    "find_witness_hyper",
    "fourpoint_report",
]

EXISTENCE_THRESHOLD = 3.0

# residual ceilings from the witness contracts
EUCLID_WITNESS_TOL = 1e-10
HYPER_WITNESS_TOL = 1e-8


class Geometry(enum.Enum):
    EUCLIDEAN = "euclid"
    HYPERBOLIC = "hyper"


class WitnessSearchError(RuntimeError):
    """A witness should exist but none passing the angle oracle was constructed."""


@dataclass(frozen=True)
class FourConfig:
    """Ordered heights a > b > c > d with a geometry tag.

    Hyperbolic configs need all heights positive; Euclidean ones only
    the strict ordering (d, even c, may be nonpositive).
    """

    a: float
    b: float
    c: float
    d: float
    geometry: Geometry

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))
        values = (self.a, self.b, self.c, self.d)
        if not all(math.isfinite(v) for v in values):
            raise GeometryError(f"heights must be finite, got {values}")
        _check_ordered(*values)
        if self.geometry is Geometry.HYPERBOLIC:
            _check_positive(self.d)

    def scaled(self, factor: float) -> "FourConfig":
        return FourConfig(
            self.a * factor, self.b * factor, self.c * factor, self.d * factor, self.geometry
        )

    def shifted(self, offset: float) -> "FourConfig":
        if self.geometry is not Geometry.EUCLIDEAN:
            raise GeometryError("only Euclidean configs translate freely")
        return FourConfig(
            self.a + offset, self.b + offset, self.c + offset, self.d + offset, self.geometry
        )


def _check_ordered(a: float, b: float, c: float, d: float) -> None:
    if not (a > b > c > d):
        raise OrderingError(f"heights must satisfy a > b > c > d, got {(a, b, c, d)}")


def _check_positive(d: float) -> None:
    if d <= 0:
        raise GeometryError(f"hyperbolic heights must be positive, got d={d!r}")


@dataclass(frozen=True)
class Witness:
    """An equal-angle witness point with its two angle residuals."""

    x: float
    y: float
    residuals: tuple[float, float]

    def __post_init__(self):
        worst = max(abs(self.residuals[0]), abs(self.residuals[1]))
        if worst > HYPER_WITNESS_TOL:
            raise GeometryError(f"witness residual {worst:.3e} exceeds {HYPER_WITNESS_TOL}")


def _require(cfg: FourConfig, geometry: Geometry) -> None:
    if cfg.geometry is not geometry:
        raise GeometryError(f"operation expects a {geometry.value}-tagged config")


def _cross_ratio(a: float, b: float, c: float, d: float) -> float:
    return ((b - c) / (a - b)) / ((c - d) / (a - d))


def cross_ratio_euclid(cfg: FourConfig) -> float:
    """((b-c)/(a-b)) / ((c-d)/(a-d)); always positive for ordered heights."""
    _require(cfg, Geometry.EUCLIDEAN)
    return _cross_ratio(cfg.a, cfg.b, cfg.c, cfg.d)


def cross_ratio_hyper(cfg: FourConfig) -> float:
    """(b^2-c^2)(a^2-d^2) / ((a^2-b^2)(c^2-d^2)).

    Computed as the Euclidean cross-ratio of the squared heights, which
    is the same expression and keeps the reduction exact in floats. The
    heights are squared after _normalized, so the value is bit-identical
    to squaring them directly wherever those squares are normal floats.
    """
    _require(cfg, Geometry.HYPERBOLIC)
    return _cross_ratio(*_squared(*_normalized(cfg)[:4]))


def _normalized(cfg: FourConfig) -> tuple[float, float, float, float, int]:
    """cfg's heights divided by 2^k, the power of two that puts a in [0.5, 1), and k.

    Dividing by a power of two is exact, keeps every square finite and
    changes neither a cross-ratio nor a hyperbolic angle. Heights far
    below a can round into the subnormals, so the copy is checked as a
    config is.
    """
    k = math.frexp(cfg.a)[1]
    factor = math.ldexp(1.0, -k)
    a, b, c, d = cfg.a * factor, cfg.b * factor, cfg.c * factor, cfg.d * factor
    _check_ordered(a, b, c, d)
    _check_positive(d)
    return a, b, c, d, k


def _squared(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """The squared heights, checked still ordered (nearly equal tiny ones can collapse)."""
    squares = (a * a, b * b, c * c, d * d)
    _check_ordered(*squares)
    return squares


def exists_euclid(cfg: FourConfig) -> bool:
    """Whether a Euclidean witness exists (strict cross-ratio bound)."""
    return cross_ratio_euclid(cfg) < EXISTENCE_THRESHOLD


def exists_hyper(cfg: FourConfig) -> bool:
    """Whether a hyperbolic witness exists (strict cross-ratio bound)."""
    return cross_ratio_hyper(cfg) < EXISTENCE_THRESHOLD


def find_witness_euclid(cfg: FourConfig) -> Witness | None:
    """The Euclidean witness with x > 0, or None when the cross-ratio is not below 3.

    Both loci are circles centered on the y-axis (or a horizontal line),
    so their intersection reduces to one linear equation for y. A short
    Newton polish on the two angle residuals then absorbs the precision
    the locus parameters lose when the middle heights nearly coincide.
    The witness carries the residuals of the point the polish accepted,
    each within EUCLID_WITNESS_TOL.

    Where the cross-ratio is below 3 but no float point meets that bound,
    WitnessSearchError names the cause: loci that meet tangentially on
    the axis (or are parallel lines or concentric circles in floats), or
    the residual of the best point, which reads nan where gaps between
    heights past ~1e154 overflow the loci.
    """
    _require(cfg, Geometry.EUCLIDEAN)
    flat = _flat_witness(cfg.a, cfg.b, cfg.c, cfg.d, EUCLID_WITNESS_TOL)
    return None if flat is None else Witness(*flat)


def _flat_witness(a: float, b: float, c: float, d: float, tol: float):
    """(x, y, residuals) of the flat witness of ordered heights, or None if none exists.

    The existence test, the two loci, their intersection and the polish,
    on heights the caller has validated. Where existence holds but the
    float loci do not cross off the axis, or the polished point has a
    residual over tol, WitnessSearchError names the cause.
    """
    cross_ratio = _cross_ratio(a, b, c, d)
    if not cross_ratio < EXISTENCE_THRESHOLD:
        return None
    upper = euclidean_locus(a, b, c)
    lower = euclidean_locus(b, c, d)
    if isinstance(upper, HorizontalLine) and isinstance(lower, HorizontalLine):
        raise _search_error(cross_ratio, "the loci are parallel lines")
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
            raise _search_error(cross_ratio, f"the loci are concentric circles (center {k1:.3e})")
        # factored form: differencing the squares directly loses the whole
        # answer when both circles are small and nearly coincident
        y = 0.5 * (k1 + k2) + (r1 - r2) * (r1 + r2) / (2.0 * (k2 - k1))
        circle = upper
    dy = y - circle.center_y
    x2 = (circle.radius - dy) * (circle.radius + dy)
    if x2 <= 0.0:
        raise _search_error(
            cross_ratio,
            f"the loci meet tangentially, on the axis (x^2 = {x2:.3e}; "
            f"the cross-ratio is {EXISTENCE_THRESHOLD - cross_ratio:.3e} below 3)",
        )
    x, y, res1, res2 = _polish_euclid(a, b, c, d, math.sqrt(x2), y)
    worst = max(abs(res1), abs(res2))
    if not worst <= tol:  # NaN too: gaps between heights past ~1e154 overflow the loci
        raise _search_error(cross_ratio, f"the loci meet at residual {worst:.3e} > {tol}")
    return x, y, (res1, res2)


def _residuals(a: float, b: float, c: float, d: float, x: float, y: float) -> tuple[float, float]:
    """The two Euclidean angle residuals at (x, y); they share the middle angle."""
    middle = _euclid_angle(x, y, b, c)
    return _euclid_angle(x, y, a, b) - middle, middle - _euclid_angle(x, y, c, d)


def _polish_euclid(a: float, b: float, c: float, d: float, x: float, y: float):
    """Newton-polish (x, y) against the angle residuals; the point kept and its residuals."""
    f1, f2 = _residuals(a, b, c, d, x, y)
    for _ in range(3):
        if max(abs(f1), abs(f2)) <= 1e-13:
            break
        h = 1e-7 * max(abs(x), abs(y), 1e-6)
        g1, g2 = _residuals(a, b, c, d, x + h, y)
        d1x, d2x = (g1 - f1) / h, (g2 - f2) / h
        g1, g2 = _residuals(a, b, c, d, x, y + h)
        d1y, d2y = (g1 - f1) / h, (g2 - f2) / h
        det = d1x * d2y - d1y * d2x
        if det == 0.0 or not math.isfinite(det):
            break
        step_x = (f1 * d2y - f2 * d1y) / det
        step_y = (f2 * d1x - f1 * d2x) / det
        nx, ny = x - step_x, y - step_y
        if nx == 0.0:
            break  # polishing must not land on the axis
        g1, g2 = _residuals(a, b, c, d, nx, ny)
        if max(abs(g1), abs(g2)) >= max(abs(f1), abs(f2)):
            break
        x, y, f1, f2 = nx, ny, g1, g2
    return x, y, f1, f2


def find_witness_hyper(cfg: FourConfig) -> Witness | None:
    """Square root of the flat witness of the squared, negated heights.

    The square map (module docstring) turns the hyperbolic problem into
    the Euclidean one for the axis points -d^2 > -c^2 > -b^2 > -a^2, and
    its witness (x_e, y_e), read as W = y_e + i x_e, gives P = sqrt(W).
    Heights are first divided by a power of two (_normalized), which is
    exact and keeps the squares finite; the oracle judges that copy,
    since scaling changes no hyperbolic angle and the oracle's tests are
    relative.
    A true existence predicate with no witness passing the oracle raises
    WitnessSearchError. The returned witness has x > 0 (its mirror image
    is a witness too).
    """
    _require(cfg, Geometry.HYPERBOLIC)
    a, b, c, d, k = _normalized(cfg)
    a2, b2, c2, d2 = _squared(a, b, c, d)
    cross_ratio = _cross_ratio(a2, b2, c2, d2)
    if not cross_ratio < EXISTENCE_THRESHOLD:
        return None
    try:
        # 1e-8, not the Euclidean contract: the hyperbolic oracle judges the mapped point
        flat = _flat_witness(-d2, -c2, -b2, -a2, HYPER_WITNESS_TOL)
    except WitnessSearchError as exc:
        raise _search_error(cross_ratio, f"the flat witness of the squared heights failed: {exc}") from exc
    if flat is None:
        raise _search_error(cross_ratio, "the flat problem of the squared heights returned no witness")
    x_e, y_e, _ = flat
    root = cmath.sqrt(complex(y_e, x_e))
    x, y = abs(root.real), root.imag
    if y <= 0.0:
        raise _search_error(cross_ratio, "the mapped witness lies on the boundary axis")
    p = HPoint(x, y)
    a, b, c, d = AxisPoint(a), AxisPoint(b), AxisPoint(c), AxisPoint(d)
    res1 = equal_angle_residual(p, a, b, c).value
    res2 = equal_angle_residual(p, b, c, d).value
    if max(abs(res1), abs(res2)) > HYPER_WITNESS_TOL:
        raise _search_error(cross_ratio, f"the mapped witness has residuals ({res1:.3e}, {res2:.3e})")
    return Witness(math.ldexp(x, k), math.ldexp(y, k), (res1, res2))


def _search_error(cross_ratio: float, cause: str) -> WitnessSearchError:
    return WitnessSearchError(f"existence holds (cross-ratio {cross_ratio:.6g} < 3) but {cause}")


def fourpoint_report(cfg: FourConfig, witness: Witness | None, exists: bool, cross_ratio: float) -> dict:
    """JSON-ready record of an existence test and optional witness."""
    return {
        "geometry": "hyperbolic" if cfg.geometry is Geometry.HYPERBOLIC else "euclidean",
        "a": cfg.a,
        "b": cfg.b,
        "c": cfg.c,
        "d": cfg.d,
        "cross_ratio": cross_ratio,
        "exists": exists,
        "witness": None if witness is None else {"x": witness.x, "y": witness.y},
    }

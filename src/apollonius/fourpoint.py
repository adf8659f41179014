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
from .locus import HorizontalLine, euclidean_equal_angle_residual, euclidean_locus

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
        if not (self.a > self.b > self.c > self.d):
            raise OrderingError(f"heights must satisfy a > b > c > d, got {values}")
        if self.geometry is Geometry.HYPERBOLIC and self.d <= 0:
            raise GeometryError(f"hyperbolic heights must be positive, got d={self.d!r}")

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


def cross_ratio_euclid(cfg: FourConfig) -> float:
    """((b-c)/(a-b)) / ((c-d)/(a-d)); always positive for ordered heights."""
    _require(cfg, Geometry.EUCLIDEAN)
    return ((cfg.b - cfg.c) / (cfg.a - cfg.b)) / ((cfg.c - cfg.d) / (cfg.a - cfg.d))


def cross_ratio_hyper(cfg: FourConfig) -> float:
    """(b^2-c^2)(a^2-d^2) / ((a^2-b^2)(c^2-d^2)).

    Computed as the Euclidean cross-ratio of the squared heights, which
    is the same expression and keeps the reduction exact in floats. The
    heights are squared after _normalized, so the value is bit-identical
    to squaring them directly wherever those squares are normal floats.
    """
    _require(cfg, Geometry.HYPERBOLIC)
    unit, _ = _normalized(cfg)
    squares = FourConfig(
        unit.a * unit.a, unit.b * unit.b, unit.c * unit.c, unit.d * unit.d, Geometry.EUCLIDEAN
    )
    return cross_ratio_euclid(squares)


def _normalized(cfg: FourConfig) -> tuple[FourConfig, int]:
    """cfg divided by 2^k, the power of two that puts a in [0.5, 1), and k.

    Dividing by a power of two is exact, keeps every square finite and
    changes neither a cross-ratio nor a hyperbolic angle.
    """
    k = math.frexp(cfg.a)[1]
    return cfg.scaled(math.ldexp(1.0, -k)), k


def exists_euclid(cfg: FourConfig) -> bool:
    """Whether a Euclidean witness exists (strict cross-ratio bound)."""
    return cross_ratio_euclid(cfg) < EXISTENCE_THRESHOLD


def exists_hyper(cfg: FourConfig) -> bool:
    """Whether a hyperbolic witness exists (strict cross-ratio bound)."""
    return cross_ratio_hyper(cfg) < EXISTENCE_THRESHOLD


def find_witness_euclid(cfg: FourConfig) -> Witness | None:
    """Intersect the two Euclidean loci analytically.

    Both loci are centered on the y-axis, so circle-circle intersection
    reduces to one linear equation for y. Parallel line loci and
    tangency (which lands on the axis) yield no witness, consistent with
    the strict inequality at cross-ratio 3. A short Newton polish on the
    two angle residuals absorbs the precision the locus parameters lose
    when the middle heights nearly coincide (tiny circles computed from
    large products). A point still over the Witness residual bound raises
    WitnessSearchError.
    """
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
    if worst > HYPER_WITNESS_TOL:  # the bound Witness holds in both geometries
        raise _search_error(cfg, f"the loci meet at residual {worst:.3e} > {HYPER_WITNESS_TOL}")
    return Witness(x, y, (res1, res2))


def _intersect_axis_loci(upper, lower) -> tuple[float, float] | None:
    if isinstance(upper, HorizontalLine) and isinstance(lower, HorizontalLine):
        return None  # parallel lines: the equally-spaced degenerate case
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
            return None  # concentric circles cannot meet
        # factored form: differencing the squares directly loses the whole
        # answer when both circles are small and nearly coincident
        y = 0.5 * (k1 + k2) + (r1 - r2) * (r1 + r2) / (2.0 * (k2 - k1))
        circle = upper
    dy = y - circle.center_y
    x2 = (circle.radius - dy) * (circle.radius + dy)
    if x2 <= 0.0:
        return None  # tangency sits on the axis, hence is not a witness
    return math.sqrt(x2), y


def _polish_euclid(cfg: FourConfig, x: float, y: float) -> tuple[float, float]:
    """Newton-polish the intersection against the exact angle residuals."""

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
            break  # polishing must not land on the axis
        g1, g2 = residuals(nx, ny)
        if max(abs(g1), abs(g2)) >= max(abs(f1), abs(f2)):
            break
        x, y = nx, ny
    return x, y


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


def _search_error(cfg: FourConfig, cause: str) -> WitnessSearchError:
    hyper = cfg.geometry is Geometry.HYPERBOLIC
    cross_ratio = cross_ratio_hyper(cfg) if hyper else cross_ratio_euclid(cfg)
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

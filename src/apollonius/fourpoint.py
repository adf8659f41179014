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

Witnesses are constructive and closed-form. In the flat plane PB
bisects the angle APC exactly when |PA| : |PC| = (a - b) : (b - c)
(angle-bisector theorem), so each equal-angle locus is an Apollonius
circle, and eliminating x^2 + y^2 between the two circle equations
leaves one linear equation in y. With the gaps u = a - b, v = b - c,
w = c - d, the cross-ratio cr = v(u + v + w)/(uw) and D = v^2 - uw,
the witness is

    y = b + v(v + w)(u - v) / (2D),
    x = v sqrt((v + w)(u + v)(3 - cr)uw) / (2|D|),

real and off the axis exactly when cr < 3 (D = 0 forces cr >= 3). The
hyperbolic witness is the principal square root of the flat witness of
the squared, negated heights: with that witness at (x_e, y_e) seeing
points on the y-axis, W = y_e + i x_e and P = sqrt(W), which lies in
the upper half-plane because x_e > 0.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys

from .halfplane import GeometryError, OrderingError, _axis_residuals, _Record
from .locus import _euclid_angle

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


class FourConfig(_Record):
    """Ordered heights a > b > c > d with a geometry tag.

    Hyperbolic configs need all heights positive; Euclidean ones only
    the strict ordering (d, even c, may be nonpositive).
    """

    _fields = ("a", "b", "c", "d", "geometry")

    def __init__(self, a: float, b: float, c: float, d: float, geometry: Geometry):
        # converts, stores and validates in one pass; the fields go straight
        # into __dict__, since the record's __setattr__ refuses every store
        a, b, c, d = float(a), float(b), float(c), float(d)
        self.__dict__.update(a=a, b=b, c=c, d=d, geometry=geometry)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
            raise GeometryError(f"heights must be finite, got {(a, b, c, d)}")
        _check_ordered(a, b, c, d)
        if geometry is Geometry.HYPERBOLIC:
            _check_positive(d)

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


class Witness(_Record):
    """An equal-angle witness point with its two angle residuals."""

    _fields = ("x", "y", "residuals")

    def __init__(self, x: float, y: float, residuals: tuple[float, float]):
        self.__dict__.update(x=x, y=y, residuals=residuals)
        worst = max(abs(residuals[0]), abs(residuals[1]))
        if not worst <= HYPER_WITNESS_TOL:
            raise GeometryError(f"witness residual {worst:.3e} exceeds {HYPER_WITNESS_TOL}")


def _require(cfg: FourConfig, geometry: Geometry) -> None:
    if cfg.geometry is not geometry:
        raise GeometryError(f"operation expects a {geometry.value}-tagged config")


def _cross_ratio(a: float, b: float, c: float, d: float) -> float:
    return ((b - c) / (a - b)) / ((c - d) / (a - d))


def cross_ratio_euclid(cfg: FourConfig) -> float:
    """((b-c)/(a-b)) / ((c-d)/(a-d)); always positive for ordered heights.

    Computed on the heights after _normalized, as find_witness_euclid
    does, so the gaps stay finite; the value is bit-identical to the raw
    heights' wherever no height or gap leaves the normal floats.
    """
    _require(cfg, Geometry.EUCLIDEAN)
    return _cross_ratio(*_normalized(cfg)[:4])


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
    """cfg's heights divided by 2^k, the power of two that puts max(|a|, |d|) in [0.5, 1), and k.

    Dividing by a power of two is exact, keeps every gap and square
    finite and changes neither a cross-ratio nor an angle. Heights far
    below the largest can round into the subnormals, so the copy is
    checked as a config is.
    """
    k = math.frexp(max(abs(cfg.a), abs(cfg.d)))[1]
    factor = math.ldexp(1.0, -k)
    a, b, c, d = cfg.a * factor, cfg.b * factor, cfg.c * factor, cfg.d * factor
    _check_ordered(a, b, c, d)
    if cfg.geometry is Geometry.HYPERBOLIC:
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

    The heights are first divided by the power of two of the largest
    magnitude (_normalized), which is exact and keeps every gap and
    product of gaps finite; the witness of that copy, scaled back, is the
    closed-form point of _flat_witness. It carries its two angle
    residuals, each within EUCLID_WITNESS_TOL.

    Where the cross-ratio is below 3 but the closed form does not give a
    point within that bound, WitnessSearchError names the cause: the
    residual of the point, or a divisor or coordinate that rounds to 0.
    """
    _require(cfg, Geometry.EUCLIDEAN)
    a, b, c, d, k = _normalized(cfg)
    cross_ratio = _cross_ratio(a, b, c, d)
    if not cross_ratio < EXISTENCE_THRESHOLD:
        return None
    x, y = _flat_witness(b, a - b, b - c, c - d, cross_ratio)
    residuals = _residuals(a, b, c, d, x, y)
    worst = max(abs(residuals[0]), abs(residuals[1]))
    if not worst <= EUCLID_WITNESS_TOL:
        raise _search_error(cross_ratio, f"the loci meet at residual {worst:.3e} > {EUCLID_WITNESS_TOL}")
    return Witness(math.ldexp(x, k), math.ldexp(y, k), residuals)


def _flat_witness(b: float, ab: float, bc: float, cd: float, cross_ratio: float) -> tuple[float, float]:
    """(x, y) of the flat witness of heights a > b > c > d, from b and the gaps a-b, b-c, c-d.

    cross_ratio is the caller's value of the cross-ratio, below 3, so the
    square root's argument is positive. Where that product of four gaps
    leaves the normal floats (gaps spanning ~1e100 or more), the gaps are
    first multiplied by the power of two that brings it near 1, and x and
    the offset of y from b are scaled back: exact, and unused wherever
    the product is normal. Where the divisor rounds to 0, or x underflows
    to 0 (a witness below the float range), WitnessSearchError names the
    cause.
    """
    bd, ac = bc + cd, ab + bc
    product = bd * ac * ((EXISTENCE_THRESHOLD - cross_ratio) * ab * cd)
    if product < sys.float_info.min:
        # the mean binary exponent of the four factors
        k = (math.frexp(bd)[1] + math.frexp(ac)[1] + math.frexp(ab)[1] + math.frexp(cd)[1]) // 4
        x, offset = _flat_witness(0.0, math.ldexp(ab, -k), math.ldexp(bc, -k), math.ldexp(cd, -k), cross_ratio)
        x = math.ldexp(x, k)
        if x == 0.0:
            raise _search_error(cross_ratio, "the closed form's x underflows to 0")
        return x, b + math.ldexp(offset, k)
    divisor = 2.0 * (bc * bc - ab * cd)
    if divisor == 0.0:
        raise _search_error(cross_ratio, "the divisor (b-c)^2 - (a-b)(c-d) rounds to 0")
    y = b + bc * bd * (ab - bc) / divisor
    x = bc * math.sqrt(product) / abs(divisor)
    if x == 0.0:
        raise _search_error(cross_ratio, "the closed form's x underflows to 0")
    return x, y


def _residuals(a: float, b: float, c: float, d: float, x: float, y: float) -> tuple[float, float]:
    """The two Euclidean angle residuals at (x, y); they share the middle angle."""
    middle = _euclid_angle(x, y, b, c)
    return _euclid_angle(x, y, a, b) - middle, middle - _euclid_angle(x, y, c, d)


def find_witness_hyper(cfg: FourConfig) -> Witness | None:
    """Square root of the flat witness of the squared, negated heights.

    The square map (module docstring) turns the hyperbolic problem into
    the Euclidean one for the axis points -d^2 > -c^2 > -b^2 > -a^2, and
    its witness (x_e, y_e), read as W = y_e + i x_e, gives P = sqrt(W).
    Heights are first divided by a power of two (_normalized), which is
    exact and keeps the squares finite. The flat gaps are the products
    (p - q)(p + q), which keep the gaps of close heights that squaring
    them would lose. The half-plane judge of equal_angle_residual
    (halfplane._axis_residuals) takes the point on the normalized copy
    and all four heights at once, since scaling changes no hyperbolic
    angle: its residuals are those of equal_angle_residual for (a, b, c)
    and (b, c, d) at the returned witness, bit for bit wherever the
    scaled values stay normal floats.
    A true existence predicate with no witness passing the oracle raises
    WitnessSearchError. The returned witness has x > 0 (its mirror image
    is a witness too).
    """
    _require(cfg, Geometry.HYPERBOLIC)
    a, b, c, d, k = _normalized(cfg)
    cross_ratio = _cross_ratio(*_squared(a, b, c, d))
    if not cross_ratio < EXISTENCE_THRESHOLD:
        return None
    x_e, y_e = _flat_witness(-c * c, (c - d) * (c + d), (b - c) * (b + c), (a - b) * (a + b), cross_ratio)
    root = cmath.sqrt(complex(y_e, x_e))
    x, y = abs(root.real), root.imag
    if y <= 0.0:
        raise _search_error(cross_ratio, "the mapped witness lies on the boundary axis")
    res1, res2 = _axis_residuals(x, y, (a, b, c, d))
    if not max(abs(res1), abs(res2)) <= HYPER_WITNESS_TOL:
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

"""Equal-angle visibility of three adjacent collinear segments.

Four ordered axis points admit a witness P (a point off their common
line seeing the three segments under equal angles) exactly when a
cross-ratio of the configuration is below 3: in the flat plane the
cross-ratio of the heights themselves, in the half-plane model the
cross-ratio of the hyperbolic distances

    cr_h = sinh(d_bc) sinh(d_ad) / (sinh(d_ab) sinh(d_cd)),

where d_pq = |ln(p/q)| is the distance between ip and iq. Since
p^2 - q^2 = 2pq sinh(d_pq) and the products of heights cancel, in
heights this is the flat cross-ratio times (b + c)(a + d)/((a + b)(c + d)),
which is how it is computed: no height is squared.

Both facts come from one map. The geodesic through P = x + iy and the
axis point ih is the circle centred on the boundary at
m = (|P|^2 - h^2)/(2x), and its radius vector at P is

    P - m = (x^2 - y^2 + h^2)/(2x) + iy = (P^2 + h^2)/(2x).

The hyperbolic angle between two such geodesics at P is the Euclidean
angle between their radius vectors, and 2x > 0 is a common real factor,
so it is the Euclidean angle at W = P^2 between the rays to the real
points -h1^2 and -h2^2. The conformal square map therefore carries the
hyperbolic problem for heights a > b > c > d to the flat problem for the
collinear points -d^2 > -c^2 > -b^2 > -a^2, whose cross-ratio is cr_h
(Beardon, The Geometry of Discrete Groups, 1983, ch. 7).

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
the upper half-plane because x_e > 0. This map is the one place where
heights are squared.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys

from ._base import GeometryError, OrderingError, WitnessSearchError, _flat_residual, _Record
from .halfplane import _axis_residuals

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

_FLOAT_MIN = sys.float_info.min


class Geometry(enum.Enum):
    EUCLIDEAN = "euclid"
    HYPERBOLIC = "hyper"


_EUCLIDEAN = Geometry.EUCLIDEAN
_HYPERBOLIC = Geometry.HYPERBOLIC
_INF = math.inf


class FourConfig(_Record):
    """Ordered heights a > b > c > d with a geometry tag.

    Hyperbolic configs need all heights positive; Euclidean ones only
    the strict ordering (d, even c, may be nonpositive).

    Validity is decided once, by one chained comparison (finite, ordered
    and, hyperbolic, positive); _check_heights runs only where it fails,
    to name the failure, so each error keeps its class, text and order.
    The unit copy is decided once too: _unit_copy, the heights divided by
    2^k, k the binary exponent of max(|a|, |d|), and k, kept in the
    private _unit where the copy passes the checks the witness functions
    need (ordered; hyperbolic, positive), else None.
    Heights far below the largest can round into the subnormals and
    collapse; such configs construct, and the witness functions raise on
    them. _unit is not a field: repr, ==, hash and pickles see only a, b,
    c, d and geometry, and unpickling builds it again.
    """

    _fields = ("a", "b", "c", "d", "geometry")

    def __init__(self, a: float, b: float, c: float, d: float, geometry: Geometry):
        # converts, validates and stores in one pass; the fields go straight
        # into __dict__, since the record's __setattr__ refuses every store
        a, b, c, d = float(a), float(b), float(c), float(d)
        hyperbolic = geometry is _HYPERBOLIC
        floor = 0.0 if hyperbolic else -_INF
        # nan fails every comparison, and an infinite height the outer ones;
        # on a failure the checks name it, in their order
        if not _INF > a > b > c > d > floor:
            _check_heights(a, b, c, d, hyperbolic)
        unit = _unit_copy(a, b, c, d)
        ua, ub, uc, ud, _ = unit
        fields = self.__dict__
        fields["a"] = a
        fields["b"] = b
        fields["c"] = c
        fields["d"] = d
        fields["geometry"] = geometry
        fields["_unit"] = unit if ua > ub > uc > ud > floor else None

    def __getstate__(self):
        fields = self.__dict__
        return {name: fields[name] for name in self._fields}

    def __setstate__(self, state):
        self.__init__(**state)


def _check_heights(a: float, b: float, c: float, d: float, hyperbolic: bool) -> None:
    """Raise the error of the first check the heights fail: finite, ordered, then (hyperbolic) positive."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise GeometryError(f"heights must be finite, got {(a, b, c, d)}")
    if not a > b > c > d:
        raise OrderingError(f"heights must satisfy a > b > c > d, got {(a, b, c, d)}")
    if hyperbolic and d <= 0:
        raise GeometryError(f"hyperbolic heights must be positive, got d={d!r}")


class Witness(_Record):
    """An equal-angle witness point with its two angle residuals.

    Raises GeometryError for a residual above HYPER_WITNESS_TOL in
    magnitude, or a nan one.
    """

    _fields = ("x", "y", "residuals")

    def __init__(self, x: float, y: float, residuals: tuple[float, float]):
        fields = self.__dict__
        fields["x"] = x
        fields["y"] = y
        fields["residuals"] = residuals
        # chained comparisons, false for nan, and no call on the witness path
        r0, r1 = residuals
        if not (-HYPER_WITNESS_TOL <= r0 <= HYPER_WITNESS_TOL and -HYPER_WITNESS_TOL <= r1 <= HYPER_WITNESS_TOL):
            bad = r1 if -HYPER_WITNESS_TOL <= r0 <= HYPER_WITNESS_TOL else r0
            raise GeometryError(f"witness residual {abs(bad):.3e} exceeds {HYPER_WITNESS_TOL}")


def _reject(cfg: FourConfig, geometry: Geometry) -> None:
    """Raise the error of the first check cfg fails as an input of geometry's functions.

    They test the tag and cfg._unit inline and call this only where one
    fails, so the checks run in their order: the tag, then _check_heights
    on the unit copy that FourConfig rejected (_unit is None), built again
    here only to name the failure.
    """
    if cfg.geometry is not geometry:
        raise GeometryError(f"operation expects a {geometry.value}-tagged config")
    a, b, c, d, _ = _unit_copy(cfg.a, cfg.b, cfg.c, cfg.d)
    _check_heights(a, b, c, d, geometry is _HYPERBOLIC)


def cross_ratio_euclid(cfg: FourConfig) -> float:
    """((b-c)/(a-b)) / ((c-d)/(a-d)); always positive for ordered heights.

    Computed on the config's unit copy (_unit), as find_witness_euclid
    does, so the gaps stay finite; the value is bit-identical to the raw
    heights' wherever no height or gap leaves the normal floats.
    """
    unit = cfg._unit
    if cfg.geometry is not _EUCLIDEAN or unit is None:
        _reject(cfg, _EUCLIDEAN)
    a, b, c, d, _ = unit
    return ((b - c) / (a - b)) / ((c - d) / (a - d))


def cross_ratio_hyper(cfg: FourConfig) -> float:
    """sinh(d_bc) sinh(d_ad) / (sinh(d_ab) sinh(d_cd)), d_pq the hyperbolic distance of ip and iq.

    Computed from the heights of the config's unit copy (_unit) as
    (b-c)/(c-d) * ((a-d)/(a-b) * (a+d)/(a+b)) * (b+c)/(c+d), the
    module docstring's factored form. Each factor is a ratio of two
    differences or two sums of heights, so nothing is squared. The first
    factor is at least about 2^-53, the bracket at least 1 and the last
    factor more than 1, so no partial product exceeds the result or
    leaves the normal floats below, and a difference that lands in the
    subnormals is exact. Where the heights of the copy are normal
    floats, the value is therefore within 15 roundings of the exact one,
    with inf standing for a cross-ratio past the float range.
    """
    unit = cfg._unit
    if cfg.geometry is not _HYPERBOLIC or unit is None:
        _reject(cfg, _HYPERBOLIC)
    a, b, c, d, _ = unit
    return (b - c) / (c - d) * ((a - d) / (a - b) * ((a + d) / (a + b))) * ((b + c) / (c + d))


def _unit_copy(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float, int]:
    """The heights divided by 2^k, the power of two that puts max(|a|, |d|) in [0.5, 1), and k.

    Dividing by a power of two is exact, keeps every gap and square finite
    and changes neither a cross-ratio nor an angle, but heights far below
    the largest can round into the subnormals. Each height is scaled on
    its own (ldexp), so the copy is finite even where 2^-k is not, for
    heights all below 2^-1024.
    """
    # max(|a|, |d|) wherever a > d, which FourConfig requires
    k = math.frexp(a if a >= -d else -d)[1]
    return math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k), math.ldexp(d, -k), k


def exists_euclid(cfg: FourConfig) -> bool:
    """Whether a Euclidean witness exists (strict cross-ratio bound)."""
    return cross_ratio_euclid(cfg) < EXISTENCE_THRESHOLD


def exists_hyper(cfg: FourConfig) -> bool:
    """Whether a hyperbolic witness exists (strict cross-ratio bound)."""
    return cross_ratio_hyper(cfg) < EXISTENCE_THRESHOLD


def find_witness_euclid(cfg: FourConfig) -> Witness | None:
    """The Euclidean witness with x > 0, or None when the cross-ratio is not below 3.

    The heights are first divided by the power of two of the largest
    magnitude (the config's unit copy, _unit), which is exact and keeps
    every gap and product of gaps finite; the witness of that copy,
    scaled back, is the closed-form point of _flat_witness. It carries
    its two angle residuals, each within EUCLID_WITNESS_TOL.

    Where the cross-ratio is below 3 but the closed form does not give a
    point within that bound, WitnessSearchError names the cause: the
    residual of the point, a divisor or coordinate that rounds to 0, or
    a point that scales back into the subnormals or past the float range.
    """
    cross_ratio = cross_ratio_euclid(cfg)
    if not cross_ratio < EXISTENCE_THRESHOLD:
        return None
    a, b, c, d, k = cfg._unit
    x, y = _flat_witness(b, a - b, b - c, c - d, cross_ratio)
    res1, res2 = _flat_residual(x, y, a, b, c), _flat_residual(x, y, b, c, d)
    # chained comparisons, false for nan
    if not (-EUCLID_WITNESS_TOL <= res1 <= EUCLID_WITNESS_TOL and -EUCLID_WITNESS_TOL <= res2 <= EUCLID_WITNESS_TOL):
        worst = max(abs(res1), abs(res2))
        raise _search_error(cross_ratio, f"the loci meet at residual {worst:.3e} > {EUCLID_WITNESS_TOL}")
    return _scaled_witness(x, y, k, (res1, res2), cross_ratio)


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
    if product < _FLOAT_MIN:
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


def find_witness_hyper(cfg: FourConfig) -> Witness | None:
    """Square root of the flat witness of the squared, negated heights.

    The square map (module docstring) turns the hyperbolic problem into
    the Euclidean one for the axis points -d^2 > -c^2 > -b^2 > -a^2, and
    its witness (x_e, y_e), read as W = y_e + i x_e, gives P = sqrt(W).
    Existence is decided by cross_ratio_hyper. Heights are first divided
    by a power of two (the config's unit copy, _unit), which is exact and
    keeps the squares finite. The flat gaps are the products
    (p - q)(p + q), which keep the gaps of close heights that squaring
    them would lose; where one underflows to 0, WitnessSearchError names
    it. The half-plane judge of
    equal_angle_residual (halfplane._axis_residuals) takes the point on
    the unit copy and all four heights at once, since scaling changes no
    hyperbolic angle: its residuals are those of equal_angle_residual for
    (a, b, c) and (b, c, d) at the returned witness, bit for bit wherever
    the scaled values stay normal floats. A true existence predicate with
    no witness passing the oracle, or with a point that scales back into
    the subnormals or past the float range, raises WitnessSearchError.
    The returned witness has x > 0 (its mirror image is a witness too).
    """
    cross_ratio = cross_ratio_hyper(cfg)
    if not cross_ratio < EXISTENCE_THRESHOLD:
        return None
    a, b, c, d, k = cfg._unit
    lower, middle, upper = (c - d) * (c + d), (b - c) * (b + c), (a - b) * (a + b)
    if not (lower and middle and upper):
        name = "(c-d)(c+d)" if not lower else "(b-c)(b+c)" if not middle else "(a-b)(a+b)"
        raise _search_error(cross_ratio, f"the flat gap {name} rounds to 0")
    x_e, y_e = _flat_witness(-c * c, lower, middle, upper, cross_ratio)
    root = cmath.sqrt(complex(y_e, x_e))
    x, y = abs(root.real), root.imag
    if y <= 0.0:
        raise _search_error(cross_ratio, "the mapped witness lies on the boundary axis")
    res1, res2 = _axis_residuals(x, y, (a, b, c, d))
    if not (-HYPER_WITNESS_TOL <= res1 <= HYPER_WITNESS_TOL and -HYPER_WITNESS_TOL <= res2 <= HYPER_WITNESS_TOL):
        raise _search_error(cross_ratio, f"the mapped witness has residuals ({res1:.3e}, {res2:.3e})")
    return _scaled_witness(x, y, k, (res1, res2), cross_ratio)


def _search_error(cross_ratio: float, cause: str) -> WitnessSearchError:
    return WitnessSearchError(f"existence holds (cross-ratio {cross_ratio:.6g} < 3) but {cause}")


def _scaled_witness(x: float, y: float, k: int, residuals: tuple[float, float], cross_ratio: float) -> Witness:
    """The witness (x, y) of the unit copy, judged there with these residuals, scaled back by 2^k."""
    try:
        x, y = math.ldexp(x, k), math.ldexp(y, k)
    except OverflowError:
        # scaled back past the float range, the judged witness has no float form
        raise _search_error(cross_ratio, f"the witness scaled by 2^{k} lies past the float range") from None
    if x < _FLOAT_MIN:
        # scaled back into the subnormals, x keeps too few bits to stand for it
        raise _search_error(cross_ratio, f"the witness x = {x:.6g} lies in the subnormal range (below {_FLOAT_MIN:.6g})")
    return Witness(x, y, residuals)


def fourpoint_report(cfg: FourConfig, witness: Witness | None, cross_ratio: float) -> dict:
    """JSON-ready record of an existence test and optional witness.

    exists is cross_ratio < EXISTENCE_THRESHOLD, as exists_euclid and
    exists_hyper decide it. A cross-ratio past the float range (inf,
    where a gap underflows against the others) has no JSON number, so it
    is reported as null; no witness exists there.
    """
    return {
        "geometry": "hyperbolic" if cfg.geometry is Geometry.HYPERBOLIC else "euclidean",
        "a": cfg.a,
        "b": cfg.b,
        "c": cfg.c,
        "d": cfg.d,
        "cross_ratio": None if cross_ratio == math.inf else cross_ratio,
        "exists": cross_ratio < EXISTENCE_THRESHOLD,
        "witness": None if witness is None else {"x": witness.x, "y": witness.y},
    }

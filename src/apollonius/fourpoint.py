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

real and off the axis exactly when cr < 3 (D = 0 forces cr >= 3). It is
taken with u and w only as the ratios p = v/u and q = v/w, so that an
outer gap any distance above v (or past the float range, a ratio of 0)
overflows nothing: cr = p + q + pq and m = 3 - cr, so p, q < 3 and
pq < 1 wherever m > 0. Divided through by uw, the witness is

    y = b + v(1 + q)(p - 1) / e,    x = v sqrt((1 + q)(1 + p) m) / e,

with e = -2D/uw = 2(1 - pq) = m - (p - 1)(q - 1) > 0. Taken from the
exact m, e keeps its digits where p and q are near 1 and 2(1 - pq)
cancels, and reads m, not 0, where floats cannot tell the gaps apart
(p = q = 1).
The hyperbolic witness is the principal square root of the flat witness
of the squared, negated heights: with that witness at (x_e, y_e) seeing
points on the y-axis, W = y_e + i x_e and P = sqrt(W), which lies in
the upper half-plane because x_e > 0. This map is the one place where
heights are squared.

Both searches work on one copy: the heights divided by the power of two
of the middle pair, max(|b|, |c|). There v stays a normal float, and so,
hyperbolic, do (b - c)(b + c) and (c - d)(c + d), since b < 2c wherever
m > 0; an outer height past the copy's float range is infinite there.
The Euclidean search mirrors the config to (-d, -c, -b, -a) where p < q,
so that its larger outer gap is cd. The point is scaled back; the
hyperbolic judge, which scales the heights by the point's own power of
two, judges it on the heights as given, the Euclidean one in the copy.
In both, the ray direction of a height infinite at that scale is its
limit +-pi/2.

Existence is decided exactly, once per geometry (_ratio_euclid,
_ratio_hyper), as the sign of m = 3 - cr, which every function here reads
and the witness takes. A float filter (Shewchuk, DCG 18, 1997) decides
almost every config: the float cr of the heights as given rounds 7 times
(flat) or 15 (hyperbolic), so where each quotient and product is a finite
normal float (a difference or sum in the subnormals is exact) it is within
a factor 1 +- 16 * 2^-53 of the exact one (Higham, Accuracy and Stability
of Numerical Algorithms, 2002, lemma 3.1), and outside the band 3 (1 +-
16 * 2^-53) on its side of 3, with m = 3.0 - cr; elsewhere _exact_ratio decides.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys

from ._base import GeometryError, OrderingError, WitnessSearchError, _flat_residuals, _integers, _Record, _unit_exponent
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
# 3 (1 -+ 16 * 2^-53), exactly: the float filter's band (module docstring)
_BAND_LO, _BAND_HI = EXISTENCE_THRESHOLD * (1.0 - 2.0**-49), EXISTENCE_THRESHOLD * (1.0 + 2.0**-49)


class Geometry(enum.Enum):
    EUCLIDEAN = "euclid"
    HYPERBOLIC = "hyper"


_EUCLIDEAN = Geometry.EUCLIDEAN
_HYPERBOLIC = Geometry.HYPERBOLIC
_INF = math.inf
_ldexp = math.ldexp


class FourConfig(_Record):
    """Ordered heights a > b > c > d with a geometry tag.

    Hyperbolic configs need all heights positive; Euclidean ones only
    the strict ordering (d, even c, may be nonpositive).

    Validity is decided once, by one chained comparison (finite, ordered
    and, hyperbolic, positive); _check_heights runs only where it fails,
    to name the failure, so each error keeps its class, text and order.
    Every valid config is decided from its heights as given, at any spread.
    """

    _fields = ("a", "b", "c", "d", "geometry")

    def __init__(self, a: float, b: float, c: float, d: float, geometry: Geometry):
        # converts, validates and stores in one pass; the fields go straight
        # into __dict__, since the record's __setattr__ refuses every store
        a, b, c, d = float(a), float(b), float(c), float(d)
        hyperbolic = geometry is _HYPERBOLIC
        # nan fails every comparison, and an infinite height the outer ones;
        # on a failure the checks name it, in their order
        if not _INF > a > b > c > d > (0.0 if hyperbolic else -_INF):
            _check_heights(a, b, c, d, hyperbolic)
        fields = self.__dict__
        fields["a"] = a
        fields["b"] = b
        fields["c"] = c
        fields["d"] = d
        fields["geometry"] = geometry


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


def _ratio_euclid(cfg: FourConfig) -> tuple[float, float]:
    """(cr, m): the flat cross-ratio ((b-c)/(a-b)) / ((c-d)/(a-d)) and the margin m = 3 - cr (module docstring)."""
    # read from __dict__, which FourConfig fills: faster than four attribute loads
    fields = cfg.__dict__
    if fields["geometry"] is not _EUCLIDEAN:
        raise GeometryError("operation expects a euclid-tagged config")
    a, b, c, d = fields["a"], fields["b"], fields["c"], fields["d"]
    # 0 where a - d overflows, which would divide by 0 below
    lower = (c - d) / (a - d)
    if lower >= _FLOAT_MIN:
        upper = (b - c) / (a - b)
        cross_ratio = upper / lower
        if upper >= _FLOAT_MIN and (cross_ratio < _BAND_LO or _BAND_HI < cross_ratio < _INF):
            return cross_ratio, EXISTENCE_THRESHOLD - cross_ratio
    return _exact_ratio(a, b, c, d, False)


def _ratio_hyper(cfg: FourConfig) -> tuple[float, float]:
    """(cr, m): the hyperbolic cross-ratio and the margin m = 3 - cr (module docstring)."""
    fields = cfg.__dict__
    if fields["geometry"] is not _HYPERBOLIC:
        raise GeometryError("operation expects a hyper-tagged config")
    a, b, c, d = fields["a"], fields["b"], fields["c"], fields["d"]
    first = (b - c) / (c - d)
    partial = first * ((a - d) / (a - b) * ((a + d) / (a + b)))
    cross_ratio = partial * ((b + c) / (c + d))
    # the bracket is at least 1/2 and the last factor at least 1, so where
    # first and partial are normal and cr is finite, so is every partial result
    if first >= _FLOAT_MIN and partial >= _FLOAT_MIN and (cross_ratio < _BAND_LO or _BAND_HI < cross_ratio < _INF):
        return cross_ratio, EXISTENCE_THRESHOLD - cross_ratio
    return _exact_ratio(a, b, c, d, True)


def _exact_ratio(a: float, b: float, c: float, d: float, hyperbolic: bool) -> tuple[float, float]:
    """(cr, m) of the heights, correctly rounded, with the exact sign of m.

    True division of the exact integer gaps (times the sums p + q,
    hyperbolic) rounds correctly. Past the float range cr = inf, m = -inf;
    a nonzero m that rounds to 0 is the smallest subnormal of its sign.
    """
    (a, b, c, d), _ = _integers(a, b, c, d)
    upper, middle, lower, outer = a - b, b - c, c - d, a - d
    if hyperbolic:
        upper, middle, lower, outer = upper * (a + b), middle * (b + c), lower * (c + d), outer * (a + d)
    numerator, denominator = middle * outer, upper * lower
    excess = 3 * denominator - numerator
    try:
        cross_ratio = numerator / denominator
    except OverflowError:
        return _INF, -_INF
    margin = excess / denominator
    if margin == 0.0 and excess:
        margin = 5e-324 if excess > 0 else -5e-324
    return cross_ratio, margin


def cross_ratio_euclid(cfg: FourConfig) -> float:
    """((b-c)/(a-b)) / ((c-d)/(a-d)) of cfg: the float value where it decides existence, else correctly rounded."""
    return _ratio_euclid(cfg)[0]


def cross_ratio_hyper(cfg: FourConfig) -> float:
    """sinh(d_bc) sinh(d_ad) / (sinh(d_ab) sinh(d_cd)), d_pq the hyperbolic distance of ip and iq, from _ratio_hyper."""
    return _ratio_hyper(cfg)[0]


def exists_euclid(cfg: FourConfig) -> bool:
    """Whether a Euclidean witness exists: the exact cross-ratio is below 3."""
    return _ratio_euclid(cfg)[1] > 0.0


def exists_hyper(cfg: FourConfig) -> bool:
    """Whether a hyperbolic witness exists: the exact cross-ratio is below 3."""
    return _ratio_hyper(cfg)[1] > 0.0


def find_witness_euclid(cfg: FourConfig) -> Witness | None:
    """The Euclidean witness with x > 0, or None when the cross-ratio is not below 3.

    The closed form of _flat_witness on the heights divided by 2^k, k the
    exponent of the middle pair (_unit_exponent of b and c), mirrored to
    (-d, -c, -b, -a) where a - b is the larger outer gap, so that cd is.
    An outer height past the copy's float range is infinite there: its ray
    direction is the limit +-pi/2 and its gap ratio 0. The point is judged
    in the copy, each residual within EUCLID_WITNESS_TOL, and scaled back.
    Else WitnessSearchError names the cause: the residual, the divisor, or
    a point scaled back out of the normal floats.
    """
    ratio = _ratio_euclid(cfg)
    if not ratio[1] > 0.0:
        return None
    # the heights, read from __dict__ as in _ratio_euclid, divided by 2^k
    fields = cfg.__dict__
    k = _unit_exponent(fields["b"], fields["c"])
    a, b, c, d = _copy(fields["a"], k), _ldexp(fields["b"], -k), _ldexp(fields["c"], -k), _copy(fields["d"], k)
    bc = b - c
    p, q = bc / (a - b), bc / (c - d)
    if p < q:
        x, y = _flat_witness(-c, bc, q, p, ratio)
        y = -y
    else:
        x, y = _flat_witness(b, bc, p, q, ratio)
    res1, res2 = _flat_residuals(x, y, a, b, c, d)
    # chained comparisons, false for nan
    if not (-EUCLID_WITNESS_TOL <= res1 <= EUCLID_WITNESS_TOL and -EUCLID_WITNESS_TOL <= res2 <= EUCLID_WITNESS_TOL):
        worst = max(abs(res1), abs(res2))
        raise _search_error(ratio, f"the loci meet at residual {worst:.3e} > {EUCLID_WITNESS_TOL}")
    x, y = _scaled_back(x, y, k, ratio)
    return Witness(x, y, (res1, res2))


def _flat_witness(b: float, bc: float, p: float, q: float, ratio: tuple[float, float]) -> tuple[float, float]:
    """(x, y) of the flat witness of heights a > b > c > d, from b, bc = b - c and the gap ratios p = bc/ab, q = bc/cd.

    ratio is the caller's (cr, m), with m = 3 - cr > 0: the closed form
    of the module docstring, with e = m - (p - 1)(q - 1). Where m is
    subnormal, its exponent folds into the square root and into e, exactly.
    WitnessSearchError where e, positive for exact p and q, is not.
    """
    margin = ratio[1]
    s = 1.0 + q
    e = margin - (p - 1.0) * (q - 1.0)
    if not e > 0.0:
        raise _search_error(ratio, "the divisor m - (p-1)(q-1) rounds to 0 or below")
    y = b + bc * s * (p - 1.0) / e
    if margin < _FLOAT_MIN:
        # sqrt(m 2^1074) / (e 2^537) = sqrt(m) / e, with m 2^1074 normal
        margin, e = _ldexp(margin, 1074), _ldexp(e, 537)
    return bc * math.sqrt(s * (1.0 + p) * margin) / e, y


def find_witness_hyper(cfg: FourConfig) -> Witness | None:
    """Square root of the flat witness of the squared, negated heights.

    The square map (module docstring) carries the problem to the flat one
    for -d^2 > -c^2 > -b^2 > -a^2, whose witness (x_e, y_e), read as
    W = y_e + i x_e, gives P = sqrt(W), x > 0: on the heights divided by
    2^k, k the exponent of the middle pair (_unit_exponent of b and c),
    with flat gaps such as (b - c)(b + c), which keep the gaps of close
    heights. The point is scaled back and judged on the heights as given
    by the half-plane judge, halfplane._axis_residuals, which gives
    equal_angle_residual's residuals for (a, b, c) and (b, c, d) at any
    spread of the heights. Else WitnessSearchError names the cause, as in
    find_witness_euclid.
    """
    ratio = _ratio_hyper(cfg)
    if not ratio[1] > 0.0:
        return None
    fields = cfg.__dict__
    a, b, c, d = fields["a"], fields["b"], fields["c"], fields["d"]
    k = _unit_exponent(b, c)
    sa, sb, sc, sd = _copy(a, k), _ldexp(b, -k), _ldexp(c, -k), _ldexp(d, -k)
    middle = (sb - sc) * (sb + sc)
    p, q = middle / ((sc - sd) * (sc + sd)), middle / ((sa - sb) * (sa + sb))
    x_e, y_e = _flat_witness(-sc * sc, middle, p, q, ratio)
    root = cmath.sqrt(complex(y_e, x_e))
    x, y = _scaled_back(abs(root.real), root.imag, k, ratio)
    if y <= 0.0:
        raise _search_error(ratio, "the mapped witness lies on the boundary axis")
    res1, res2 = _axis_residuals(x, y, (a, b, c, d))
    if not (-HYPER_WITNESS_TOL <= res1 <= HYPER_WITNESS_TOL and -HYPER_WITNESS_TOL <= res2 <= HYPER_WITNESS_TOL):
        raise _search_error(ratio, f"the mapped witness has residuals ({res1:.3e}, {res2:.3e})")
    return Witness(x, y, (res1, res2))


def _copy(height: float, k: int) -> float:
    """height / 2^k, or inf of its sign past the float range, where math.ldexp raises: its gap ratio is then 0."""
    try:
        return _ldexp(height, -k)
    except OverflowError:
        return math.copysign(_INF, height)


def _search_error(ratio: tuple[float, float], cause: str) -> WitnessSearchError:
    """The failure of a search where ratio = (cr, m) says a witness exists; where cr prints as 3, m gives the digits."""
    cross_ratio, margin = ratio
    text = f"{cross_ratio:.6g}"
    if text == "3":
        text = f"3 - {margin:.2g}"
    return WitnessSearchError(f"existence holds (cross-ratio {text} < 3) but {cause}")


def _scaled_back(x: float, y: float, k: int, ratio: tuple[float, float]) -> tuple[float, float]:
    """The witness (x, y) of the copy scaled back by 2^k; WitnessSearchError where it leaves the normal floats."""
    try:
        x, y = _ldexp(x, k), _ldexp(y, k)
    except OverflowError:
        # scaled back past the float range, the witness has no float form
        raise _search_error(ratio, f"the witness scaled by 2^{k} lies past the float range") from None
    if x < _FLOAT_MIN:
        # scaled back into the subnormals, x keeps too few bits to stand for it
        raise _search_error(ratio, f"the witness x = {x:.6g} lies in the subnormal range (below {_FLOAT_MIN:.6g})")
    return x, y


def fourpoint_report(cfg: FourConfig, witness: Witness | None) -> dict:
    """JSON-ready record of cfg's existence test, read from its geometry's one decision, and optional witness.

    A cross-ratio past the float range (inf, where a gap underflows against
    the others) has no JSON number, so it is reported as null.
    """
    hyperbolic = cfg.geometry is _HYPERBOLIC
    cross_ratio, margin = _ratio_hyper(cfg) if hyperbolic else _ratio_euclid(cfg)
    return {
        "geometry": "hyperbolic" if hyperbolic else "euclidean",
        "a": cfg.a,
        "b": cfg.b,
        "c": cfg.c,
        "d": cfg.d,
        "cross_ratio": None if cross_ratio == _INF else cross_ratio,
        "exists": margin > 0.0,
        "witness": None if witness is None else {"x": witness.x, "y": witness.y},
    }

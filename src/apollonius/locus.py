"""The equal-angle locus of three axis points, in both geometries.

For heights a > b > c > 0 on the y-axis, the set of half-plane points
seeing the two segments under equal hyperbolic angles is the polar
quartic

    r^4 alpha = 2 r^2 beta cos(2 theta) + gamma,

with alpha = 2b^2 - a^2 - c^2, beta = a^2 c^2 - b^4 and
gamma = b^2 (2 a^2 c^2 - a^2 b^2 - c^2 b^2). Read as a quadratic in
s = r^2 this is solved per angle, which is the only sampler used here.

The shape is governed by where b sits relative to three means of (a, c):
the quadratic mean Q, the geometric mean G and the harmonic-quadratic
mean H = (2 a^2 c^2 / (a^2 + c^2))^(1/2), with H < G < Q. The boundary
cases degenerate to half of a hyperbola, a semicircle and half of a
lemniscate; the four open intervals give ovals (outside [H, Q] the
angle-domain is disc-limited and every angle carries two radii) or
boundary-to-boundary arcs. At theta = pi/2 the radius r = b solves the
quartic for every triple (both sides equal b^4 (2b^2 - a^2 - c^2)), so
(0, b) lies on every locus. Away from it the sampler discovers each
regime's theta-domain empirically from root existence rather than
asserting it.

The Euclidean counterpart (same equal-angle condition in the flat plane)
is a horizontal line when b = (a + c)/2 and otherwise the circle with
diameter from (0, b) to (0, y_d), y_d = (2ac - bc - ab)/(a + c - 2b).

numpy is imported inside the functions that sweep angle arrays, so that
classify and the Euclidean locus run without loading it.
"""

from __future__ import annotations

import enum
import math
import sys

from ._base import (
    GeometryError,
    OnAxisError,
    OrderingError,
    _check_finite,
    _flat_residuals,
    _integers,
    _Record,
    _unit_exponent,
)

__all__ = [
    "TripleConfig",
    "QuarticCoeffs",
    "LocusClass",
    "Curve",
    "HorizontalLine",
    "AxisCircle",
    "EuclideanLocus",
    "coefficients",
    "eval_quartic",
    "classify",
    "solve_r2",
    "theta_grid",
    "sample_curve",
    "euclidean_locus",
    "euclidean_equal_angle_residual",
    "samples_to_csv",
    "classification_report",
]

# relative |alpha| threshold below which the quadratic in s degenerates
# to the linear (hyperbola-boundary) equation
ALPHA_EPS = 1e-14

# roots of the unit copy at or below this are the lemniscate's node at the
# origin, which lies on the boundary axis, not in the half-plane
ORIGIN_EPS = 1e-300


class TripleConfig(_Record):
    """Ordered heights a > b > c > 0 on the y-axis."""

    _fields = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        a = float(a)
        _check_finite("a", a)
        b = float(b)
        _check_finite("b", b)
        c = float(c)
        _check_finite("c", c)
        self.__dict__.update(a=a, b=b, c=c)
        if not (a > b > c > 0):
            raise OrderingError(f"heights must satisfy a > b > c > 0, got ({a}, {b}, {c})")


class QuarticCoeffs(_Record):
    """Coefficients (alpha, beta, gamma) of the polar quartic."""

    _fields = ("alpha", "beta", "gamma")

    def __init__(self, alpha: float, beta: float, gamma: float):
        self.__dict__.update(alpha=alpha, beta=beta, gamma=gamma)


class LocusClass(enum.Enum):
    """The seven shape regimes, by the position of b among the means."""

    ABOVE_QUADRATIC = "AboveQuadratic"
    QUADRATIC_HYPERBOLA = "QuadraticHyperbola"
    BETWEEN_GEOMETRIC_AND_QUADRATIC = "BetweenGeometricAndQuadratic"
    GEOMETRIC_CIRCLE = "GeometricCircle"
    BETWEEN_HARMONIC_AND_GEOMETRIC = "BetweenHarmonicAndGeometric"
    HARMONIC_LEMNISCATE = "HarmonicLemniscate"
    BELOW_HARMONIC = "BelowHarmonic"


class Curve(_Record):
    """Sampled locus points as columns, one row per point.

    sample_curve sorts the rows by (theta, r). rank is the root's column
    in the per-angle solve: 0 for the smaller radius or a lone root, 1
    for the larger. The five columns have one length, and every point
    lies in the upper half-plane, with the checks HPoint makes (else
    GeometryError). Curves compare and hash by identity.
    """

    _fields = ("theta", "r", "x", "y", "rank")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, theta: np.ndarray, r: np.ndarray, x: np.ndarray, y: np.ndarray, rank: np.ndarray):
        import numpy as np

        self.__dict__.update(theta=theta, r=r, x=x, y=y, rank=rank)
        lengths = [len(column) for column in (theta, r, x, y, rank)]
        if len(set(lengths)) > 1:
            named = ", ".join(f"{name} {length}" for name, length in zip(self._fields, lengths))
            raise GeometryError(f"curve columns must have equal lengths, got {named}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise GeometryError("curve points must have finite x and y")
        if not (y > 0.0).all():
            raise GeometryError(f"curve points require y > 0, got y={float(y.min())!r}")

    def __len__(self) -> int:
        return len(self.theta)


class HorizontalLine(_Record):
    """Euclidean locus {y = height} (the b = (a + c)/2 case)."""

    _fields = ("height",)

    def __init__(self, height: float):
        self.__dict__.update(height=height)


class AxisCircle(_Record):
    """Euclidean locus circle centered at (0, center_y)."""

    _fields = ("center_y", "radius")

    def __init__(self, center_y: float, radius: float):
        self.__dict__.update(center_y=center_y, radius=radius)
        if not radius > 0:
            raise GeometryError(f"circle radius must be positive, got {radius!r}")


EuclideanLocus = HorizontalLine | AxisCircle


def _coefficient_values(cfg: TripleConfig) -> tuple[float, float, float]:
    """alpha, beta and gamma as floats, inf or nan where one overflows float64.

    alpha = 2*b2 - a2 - c2, beta = a2*c2 - b2*b2,
    gamma = b2*(2*a2*c2 - a2*b2 - c2*b2), where x2 = x*x. Every caller
    forms them here, so recomputation is bit-identical.
    """
    a2, b2, c2 = cfg.a * cfg.a, cfg.b * cfg.b, cfg.c * cfg.c
    return 2.0 * b2 - a2 - c2, a2 * c2 - b2 * b2, b2 * (2.0 * a2 * c2 - a2 * b2 - c2 * b2)


def coefficients(cfg: TripleConfig) -> QuarticCoeffs:
    """Quartic coefficients, in the evaluation order of _coefficient_values.

    Raises GeometryError naming each coefficient that overflows float64
    (gamma, of degree six in the heights, does so from heights of about
    1e51: (6e51, 4e51, 2e51) gives gamma = -inf).
    """
    alpha, beta, gamma = _coefficient_values(cfg)
    named = (("alpha", alpha), ("beta", beta), ("gamma", gamma))
    overflowed = ", ".join(f"{name} = {value!r}" for name, value in named if not math.isfinite(value))
    if overflowed:
        raise GeometryError(
            f"quartic coefficients overflow float64 at heights "
            f"({cfg.a!r}, {cfg.b!r}, {cfg.c!r}): {overflowed}"
        )
    return QuarticCoeffs(alpha, beta, gamma)


def eval_quartic(cfg: TripleConfig, r: float, theta: float) -> float:
    """Residual r^4 alpha - 2 r^2 beta cos(2 theta) - gamma; zero on the locus.

    Takes the coefficients of the heights as given, so it raises
    coefficients()'s GeometryError where one overflows (raw heights from
    about 1e51); sample_curve and solve_r2, which solve on the unit copy,
    do not. The residual has degree six in the heights and underflows at
    small ones: at (4, 2, 1) * 1e-55 it is 0.0 at r = 3e-55, off the locus
    (-585 at scale 1).
    """
    q = coefficients(cfg)
    s = r * r
    return s * s * q.alpha - 2.0 * s * q.beta * math.cos(2.0 * theta) - q.gamma


def classify(cfg: TripleConfig, eps: float = 1e-12) -> LocusClass:
    """Locus regime of the triple, decided exactly at every scale.

    Compares b^2 against Q^2 = (a^2 + c^2)/2, G^2 = ac and
    H^2 = 2 a^2 c^2 / (a^2 + c^2) with relative tolerance eps; a boundary
    class wins only when |b^2 - M^2| <= eps * M^2, checked from the
    quadratic mean downward. Integral heights ignore eps, so integer
    triples like (35, 25, 5) land on a boundary only when they lie on it.
    The heights, as integers over one power of two, and eps, as a ratio
    of integers, are compared in integers with each M^2's denominator
    cleared. eps must be finite and nonnegative (else GeometryError).
    """
    if not 0.0 <= eps < math.inf:
        raise GeometryError(f"eps must be finite and nonnegative, got {eps!r}")
    (a, b, c), scale = _integers(cfg.a, cfg.b, cfg.c)
    p, q = eps.as_integer_ratio() if scale > 1 else (0, 1)
    a2, b2, c2 = a * a, b * b, c * c
    # b^2 - M^2 and M^2 for each mean M, times M^2's denominator
    mq, mg, mh = a2 + c2, a * c, 2 * a2 * c2
    dq, dg, dh = 2 * b2 - mq, b2 - mg, b2 * mq - mh
    if q * abs(dq) <= p * mq:
        return LocusClass.QUADRATIC_HYPERBOLA
    if q * abs(dg) <= p * mg:
        return LocusClass.GEOMETRIC_CIRCLE
    if q * abs(dh) <= p * mh:
        return LocusClass.HARMONIC_LEMNISCATE
    if dq > 0:
        return LocusClass.ABOVE_QUADRATIC
    if dg > 0:
        return LocusClass.BETWEEN_GEOMETRIC_AND_QUADRATIC
    if dh > 0:
        return LocusClass.BETWEEN_HARMONIC_AND_GEOMETRIC
    return LocusClass.BELOW_HARMONIC


def _ordered_unit_copy(a: float, b: float, c: float, floor: float) -> tuple[tuple[float, float, float], int]:
    """The heights divided by 2^k (_unit_exponent), where gamma and uv stay normal, and k.

    GeometryError where the copy is not ordered above floor.
    """
    k = _unit_exponent(a, c)
    unit = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k)
    if not unit[0] > unit[1] > unit[2] > floor:
        raise GeometryError(f"heights ({a!r}, {b!r}, {c!r}) span more than float64 holds below the largest")
    return unit, k


def solve_r2(cfg: TripleConfig, theta: float) -> list[float]:
    """Positive roots s = r^2 of the quartic at the given angle, ascending.

    Solves alpha s^2 - 2 beta cos(2 theta) s - gamma = 0 on the unit copy
    (_ordered_unit_copy) by the sign-stable quadratic form (one root by the
    -sign trick, the other by Vieta's product), or the linear equation where
    alpha degenerates, and scales each root back by 2^(2k). Roots at the
    origin node are dropped; one that scales back past the float range or
    into the subnormals raises GeometryError.
    """
    if not (0.0 < theta < math.pi):
        raise GeometryError(f"theta must lie in (0, pi), got {theta!r}")
    import numpy as np

    unit, k = _ordered_unit_copy(cfg.a, cfg.b, cfg.c, 0.0)
    roots = [s for s in _solve_arrays(TripleConfig(*unit), np.array([theta]))[0].tolist() if s == s]
    with np.errstate(over="ignore"):
        r2 = np.ldexp(roots, 2 * k).tolist()
    if not all(sys.float_info.min <= s < math.inf for s in r2):
        raise GeometryError(f"roots r^2 of {cfg!r} at theta {theta!r}, {roots!r} * 2**{2 * k}, leave the normal floats")
    return r2


def _solve_arrays(cfg: TripleConfig, thetas: np.ndarray) -> np.ndarray:
    """Vectorized solve_r2 over a theta grid.

    Returns an (n, 2) array of roots ascending along axis 1, NaN where a
    root does not exist. solve_r2 and sample_curve pass it the unit copy,
    so one angle solves bit for bit alike in both.
    """
    import numpy as np

    q = coefficients(cfg)
    cos2t = np.cos(2.0 * thetas)
    n = thetas.shape[0]
    roots = np.full((n, 2), np.nan)
    if abs(q.alpha) <= ALPHA_EPS * (cfg.a * cfg.a + cfg.c * cfg.c):
        denom = -2.0 * q.beta * cos2t
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(denom != 0.0, q.gamma / denom, np.nan)
        roots[:, 0] = np.where(s > ORIGIN_EPS, s, np.nan)
        return roots
    A = q.alpha
    B = -2.0 * q.beta * cos2t
    C = -q.gamma
    disc = B * B - 4.0 * A * C
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    qq = np.where(B != 0.0, -0.5 * (B + np.copysign(sq, B)), -0.5 * sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(ok & (qq != 0.0), qq / A, np.nan)
        r2 = np.where(ok & (qq != 0.0), C / qq, np.nan)
    r1 = np.where(r1 > ORIGIN_EPS, r1, np.nan)
    r2 = np.where(r2 > ORIGIN_EPS, r2, np.nan)
    # fmin/fmax ignore NaN, so a lone root lands in column 0; an exact
    # double root is reported once
    lo = np.fmin(r1, r2)
    hi = np.fmax(r1, r2)
    roots[:, 0] = lo
    roots[:, 1] = np.where(hi == lo, np.nan, hi)
    return roots


def theta_grid(n: int) -> np.ndarray:
    """Uniform n-point angle grid on (0, pi) with a pi/(4n) endpoint margin."""
    if n < 2:
        raise GeometryError(f"need n >= 2 grid points, got {n!r}")
    import numpy as np

    margin = math.pi / (4 * n)
    return np.linspace(margin, math.pi - margin, n)


def sample_curve(cfg: TripleConfig, n: int) -> Curve:
    """Locus points from an n-angle sweep, rows sorted by (theta, r).

    Angles where the curve does not exist contribute nothing, so the
    result discovers the theta-domain empirically. It can be empty: the
    ovals of the AboveQuadratic regime (b near a) and of the BelowHarmonic
    regime (b near c) narrow around theta = pi/2 and can fall between two
    grid angles. An odd n samples theta = pi/2, where r = b always lies
    on the locus. It solves on the unit copy and scales r back by 2^k; a
    radius that scales back past the float range raises GeometryError.
    """
    import numpy as np

    unit, k = _ordered_unit_copy(cfg.a, cfg.b, cfg.c, 0.0)
    thetas = theta_grid(n)
    roots = _solve_arrays(TripleConfig(*unit), thetas)
    # row-major: per angle, column 0 before column 1, i.e. ascending r
    rows, rank = np.nonzero(~np.isnan(roots))
    theta = thetas[rows]
    unit_r = np.sqrt(roots[rows, rank])
    with np.errstate(over="ignore"):
        r = np.ldexp(unit_r, k)
    past = np.flatnonzero(r == math.inf)
    if len(past):
        raise GeometryError(
            f"radius r of {cfg!r} at theta {float(theta[past[0]])!r}, {float(unit_r[past[0]])!r} * 2**{k}, "
            "lies past the float range"
        )
    # the curve bytes follow numpy's float64 cos and sin, as the solve's
    # cos(2 theta) already does; tests pin that they equal libm's
    # math.cos and math.sin, with numpy's SIMD dispatch on and off
    return Curve(theta, r, r * np.cos(theta), r * np.sin(theta), rank)


def euclidean_locus(a: float, b: float, c: float) -> EuclideanLocus:
    """Euclidean equal-angle locus of axis heights a > b > c.

    Heights may be nonpositive here: the flat-plane statement needs only
    finite heights in order.

    The circle meets the axis at b and at b + 2uv/(u + v), with u = a - b
    and v = c - b. Working in these offsets from b keeps full relative
    precision when the three heights nearly coincide, and the line test
    is relative to the heights' magnitude so the locus of a scaled triple
    is the scaled locus at every scale. It is computed on the unit copy
    (_ordered_unit_copy) and scaled back; where the heights collapse in that copy,
    or the circle does not fit in float64 (it reaches past 1.8e308, or
    its radius rounds to 0), GeometryError names the cause.
    """
    _check_descending(a, b, c)
    (ua, ub, uc), k = _ordered_unit_copy(a, b, c, -math.inf)
    if abs(ub - 0.5 * (ua + uc)) <= 1e-12 * max(abs(ua), abs(uc)):
        return HorizontalLine(height=math.ldexp(0.5 * (ua + uc), k))
    u, v = ua - ub, uc - ub
    half_chord = u * v / (u + v)
    try:
        return AxisCircle(center_y=math.ldexp(ub + half_chord, k), radius=math.ldexp(abs(half_chord), k))
    except (OverflowError, GeometryError):  # ldexp past the largest float, or a radius of 0
        raise GeometryError(
            f"the Euclidean locus of ({a!r}, {b!r}, {c!r}) does not fit in float64: the circle of "
            f"center {ub + half_chord!r} * 2**{k} and radius {abs(half_chord)!r} * 2**{k}"
        ) from None


def _check_descending(a: float, b: float, c: float) -> None:
    _check_finite("a", a)
    _check_finite("b", b)
    _check_finite("c", c)
    if not (a > b > c):
        raise OrderingError(f"heights must satisfy a > b > c, got ({a}, {b}, {c})")


def euclidean_equal_angle_residual(p: tuple[float, float], a: float, b: float, c: float) -> float:
    """Euclidean angle(a p b) - angle(b p c) at a finite point off the y-axis."""
    _check_descending(a, b, c)
    x, y = p
    _check_finite("x", x)
    _check_finite("y", y)
    if x == 0.0:
        raise OnAxisError("the Euclidean locus predicate excludes the y-axis")
    return _flat_residuals(x, y, a, b, c, c)[0]


def samples_to_csv(curve: Curve) -> str:
    """CSV serialization with header theta,r,x,y at 17 significant digits."""
    from ._fmt17 import fmt17_rows

    return "theta,r,x,y\n" + fmt17_rows((curve.theta, curve.r, curve.x, curve.y), (",", ",", ",", "\n"))


def classification_report(cfg: TripleConfig, eps: float = 1e-12) -> dict:
    """JSON-ready classification record for the triple.

    A coefficient past the float range (gamma from heights of about 1e51,
    all three from about 1e154) has no JSON number, so it is reported as
    null; classify decides the class exactly at every scale.
    """
    alpha, beta, gamma = (v if math.isfinite(v) else None for v in _coefficient_values(cfg))
    return {
        "a": cfg.a,
        "b": cfg.b,
        "c": cfg.c,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "class": classify(cfg, eps).value,
    }

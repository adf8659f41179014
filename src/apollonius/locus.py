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

from .halfplane import (
    GeometryError,
    OnAxisError,
    OrderingError,
    _check_finite,
    _Record,
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

# roots at or below this are the lemniscate's node at the origin, which
# lies on the boundary axis, not in the half-plane
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

    def scaled(self, factor: float) -> "TripleConfig":
        return TripleConfig(self.a * factor, self.b * factor, self.c * factor)


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
    for the larger. Every point lies in the upper half-plane, with the
    checks HPoint makes. Curves compare and hash by identity.
    """

    _fields = ("theta", "r", "x", "y", "rank")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, theta: np.ndarray, r: np.ndarray, x: np.ndarray, y: np.ndarray, rank: np.ndarray):
        import numpy as np

        self.__dict__.update(theta=theta, r=r, x=x, y=y, rank=rank)
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


def coefficients(cfg: TripleConfig) -> QuarticCoeffs:
    """Quartic coefficients, in the documented evaluation order.

    alpha = 2*b2 - a2 - c2, beta = a2*c2 - b2*b2,
    gamma = b2*(2*a2*c2 - a2*b2 - c2*b2), where x2 = x*x. The same
    ordering is used everywhere so recomputation is bit-identical.
    """
    a2, b2, c2 = cfg.a * cfg.a, cfg.b * cfg.b, cfg.c * cfg.c
    alpha = 2.0 * b2 - a2 - c2
    beta = a2 * c2 - b2 * b2
    gamma = b2 * (2.0 * a2 * c2 - a2 * b2 - c2 * b2)
    return QuarticCoeffs(alpha, beta, gamma)


def eval_quartic(cfg: TripleConfig, r: float, theta: float) -> float:
    """Residual r^4 alpha - 2 r^2 beta cos(2 theta) - gamma; zero on the locus."""
    q = coefficients(cfg)
    s = r * r
    return s * s * q.alpha - 2.0 * s * q.beta * math.cos(2.0 * theta) - q.gamma


def classify(cfg: TripleConfig, eps: float = 1e-12, exact: bool | None = None) -> LocusClass:
    """Locus regime of the triple.

    Compares b^2 against Q^2 = (a^2 + c^2)/2, G^2 = ac and
    H^2 = 2 a^2 c^2 / (a^2 + c^2) with relative tolerance eps; a boundary
    class wins only when |b^2 - M^2| <= eps * M^2, checked from the
    quadratic mean downward.

    With exact=True (or exact=None and all heights integral) the boundary
    tests use exact integer comparisons, so integer triples like
    (35, 25, 5) classify exactly regardless of eps.
    """
    if eps < 0:
        raise GeometryError(f"eps must be nonnegative, got {eps!r}")
    if exact is None:
        exact = all(float(v).is_integer() for v in (cfg.a, cfg.b, cfg.c))
    if exact:
        return _classify_exact(int(cfg.a), int(cfg.b), int(cfg.c))

    a2, b2, c2 = cfg.a * cfg.a, cfg.b * cfg.b, cfg.c * cfg.c
    q2 = 0.5 * (a2 + c2)
    g2 = cfg.a * cfg.c
    h2 = 2.0 * a2 * c2 / (a2 + c2)
    if abs(b2 - q2) <= eps * q2:
        return LocusClass.QUADRATIC_HYPERBOLA
    if abs(b2 - g2) <= eps * g2:
        return LocusClass.GEOMETRIC_CIRCLE
    if abs(b2 - h2) <= eps * h2:
        return LocusClass.HARMONIC_LEMNISCATE
    if b2 > q2:
        return LocusClass.ABOVE_QUADRATIC
    if b2 > g2:
        return LocusClass.BETWEEN_GEOMETRIC_AND_QUADRATIC
    if b2 > h2:
        return LocusClass.BETWEEN_HARMONIC_AND_GEOMETRIC
    return LocusClass.BELOW_HARMONIC


def _classify_exact(a: int, b: int, c: int) -> LocusClass:
    a2, b2, c2 = a * a, b * b, c * c
    if 2 * b2 == a2 + c2:
        return LocusClass.QUADRATIC_HYPERBOLA
    if b2 == a * c:
        return LocusClass.GEOMETRIC_CIRCLE
    if b2 * (a2 + c2) == 2 * a2 * c2:
        return LocusClass.HARMONIC_LEMNISCATE
    if 2 * b2 > a2 + c2:
        return LocusClass.ABOVE_QUADRATIC
    if b2 > a * c:
        return LocusClass.BETWEEN_GEOMETRIC_AND_QUADRATIC
    if b2 * (a2 + c2) > 2 * a2 * c2:
        return LocusClass.BETWEEN_HARMONIC_AND_GEOMETRIC
    return LocusClass.BELOW_HARMONIC


def _alpha_is_degenerate(cfg: TripleConfig, alpha: float) -> bool:
    return abs(alpha) <= ALPHA_EPS * (cfg.a * cfg.a + cfg.c * cfg.c)


def solve_r2(cfg: TripleConfig, theta: float) -> list[float]:
    """Positive roots s = r^2 of the quartic at the given angle, ascending.

    Solves alpha s^2 - 2 beta cos(2 theta) s - gamma = 0 with the
    sign-stable quadratic form (larger root via the -sign trick, the
    other via the Vieta product), falling back to the linear equation
    when alpha degenerates. Roots at the origin node are dropped.
    """
    if not (0.0 < theta < math.pi):
        raise GeometryError(f"theta must lie in (0, pi), got {theta!r}")
    import numpy as np

    roots, _ = _solve_arrays(cfg, np.array([theta]))
    return [float(s) for s in roots[0] if not np.isnan(s)]


def _solve_arrays(cfg: TripleConfig, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized solve_r2 over a theta grid.

    Returns an (n, 2) array of roots ascending along axis 1, NaN where a
    root does not exist, plus the cos(2 theta) array (reused by callers).
    Matches the scalar path bit for bit: same formulas, same order.
    """
    import numpy as np

    q = coefficients(cfg)
    cos2t = np.cos(2.0 * thetas)
    n = thetas.shape[0]
    roots = np.full((n, 2), np.nan)
    if _alpha_is_degenerate(cfg, q.alpha):
        denom = -2.0 * q.beta * cos2t
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(denom != 0.0, q.gamma / denom, np.nan)
        roots[:, 0] = np.where(s > ORIGIN_EPS, s, np.nan)
        return roots, cos2t
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
    return roots, cos2t


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
    on the locus.
    """
    import numpy as np

    thetas = theta_grid(n)
    roots, _ = _solve_arrays(cfg, thetas)
    # row-major: per angle, column 0 before column 1, i.e. ascending r
    rows, rank = np.nonzero(~np.isnan(roots))
    theta = thetas[rows]
    r = np.sqrt(roots[rows, rank])
    # math.cos and math.sin, not numpy's: numpy may use its own vector
    # routines on some CPUs, and the output bytes must not depend on that
    angles = theta.tolist()
    x = r * np.fromiter(map(math.cos, angles), float, len(angles))
    y = r * np.fromiter(map(math.sin, angles), float, len(angles))
    return Curve(theta, r, x, y, rank)


def euclidean_locus(a: float, b: float, c: float) -> EuclideanLocus:
    """Euclidean equal-angle locus of axis heights a > b > c.

    Heights may be nonpositive here (the flat-plane statement needs only
    the ordering), which the four-point intersection relies on.

    The circle meets the axis at b and at b + 2uv/(u + v), with u = a - b
    and v = c - b. Working in these offsets from b keeps full relative
    precision when the three heights nearly coincide, and the line test
    is relative to the heights' magnitude so the locus of a scaled triple
    is the scaled locus at every scale.
    """
    _check_descending(a, b, c)
    if abs(b - 0.5 * (a + c)) <= 1e-12 * max(abs(a), abs(c)):
        return HorizontalLine(height=0.5 * (a + c))
    u, v = a - b, c - b
    half_chord = u * v / (u + v)
    return AxisCircle(center_y=b + half_chord, radius=abs(half_chord))


def _check_descending(a: float, b: float, c: float) -> None:
    if not (a > b > c):
        raise OrderingError(f"heights must satisfy a > b > c, got ({a}, {b}, {c})")


def euclidean_equal_angle_residual(p: tuple[float, float], a: float, b: float, c: float) -> float:
    """Euclidean angle(a p b) - angle(b p c) at a point off the y-axis."""
    _check_descending(a, b, c)
    x, y = p
    if x == 0.0:
        raise OnAxisError("the Euclidean locus predicate excludes the y-axis")
    return _euclid_angle(x, y, a, b) - _euclid_angle(x, y, b, c)


def _euclid_angle(x: float, y: float, h1: float, h2: float) -> float:
    v1 = (-x, h1 - y)
    v2 = (-x, h2 - y)
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    dot = v1[0] * v2[0] + v1[1] * v2[1]
    return math.atan2(abs(cross), dot)


def samples_to_csv(curve: Curve) -> str:
    """CSV serialization with header theta,r,x,y at 17 significant digits."""
    import numpy as np

    table = np.column_stack((curve.theta, curve.r, curve.x, curve.y))
    return "theta,r,x,y\n" + ("%.17g,%.17g,%.17g,%.17g\n" * len(curve)) % tuple(table.ravel().tolist())


def classification_report(cfg: TripleConfig, eps: float = 1e-12) -> dict:
    """JSON-ready classification record for the triple."""
    q = coefficients(cfg)
    return {
        "a": cfg.a,
        "b": cfg.b,
        "c": cfg.c,
        "alpha": q.alpha,
        "beta": q.beta,
        "gamma": q.gamma,
        "class": classify(cfg, eps).value,
    }

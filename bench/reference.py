"""Independent reference computations the benchmark checks outputs against.

Nothing here imports the apollonius package: every check must hold
against arithmetic of the benchmark's own, not against a second call
into the code under test.

- exact cross-ratios in rationals (fractions.Fraction) from float heights;
- ray angles at a point from complex arithmetic: the Euclidean angle is
  the argument of a quotient of chords, the hyperbolic one comes from
  the Moebius map z -> (w - p)/(w - conj p), which sends p to the
  centre of the unit disc, where geodesic rays are straight radii;
- the polar quartic's residual with coefficients built in rationals;
- the probabilities P_e in closed form and P_h(R) by Gauss-Legendre
  quadrature of the one-dimensional reduction;
- exact integer regime comparisons and family identities.
"""

from __future__ import annotations

import cmath
import math
import statistics
from fractions import Fraction

import numpy as np

PE_EXACT = (15.0 - 16.0 * math.log(2.0)) / 9.0

REGIMES = (
    "AboveQuadratic",
    "QuadraticHyperbola",
    "BetweenGeometricAndQuadratic",
    "GeometricCircle",
    "BetweenHarmonicAndGeometric",
    "HarmonicLemniscate",
    "BelowHarmonic",
)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def cross_ratio_exact(a, b, c, d, squared):
    """((b-c)(a-d)) / ((a-b)(c-d)) in rationals, on the heights or their squares."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    if squared:
        a, b, c, d = a * a, b * b, c * c, d * d
    return (b - c) * (a - d) / ((a - b) * (c - d))


def boundary_b2(a, c, d):
    """Squared middle height b*^2 at which the squared-height cross-ratio is 3.

    Solving (B - C)(A - D) = 3 (A - B)(C - D) for B, with X = x^2.
    """
    A, C, D = a * a, c * c, d * d
    return (3.0 * A * (C - D) + C * (A - D)) / ((A - D) + 3.0 * (C - D))


def euclid_angle(x, y, h1, h2):
    """Euclidean angle at (x, y) between the chords to (0, h1) and (0, h2)."""
    p = complex(x, y)
    return abs(cmath.phase((complex(0.0, h1) - p) / (complex(0.0, h2) - p)))


def hyper_angle(x, y, h1, h2):
    """Hyperbolic angle at (x, y) between the geodesic rays to (0, h1) and (0, h2).

    The map T(w) = (w - p)/(w - conj p) is an isometry onto the disc with
    T(p) = 0 and a constant derivative argument at p, so the angle
    between the rays is the angle between T(w1) and T(w2).
    """
    p = complex(x, y)
    q = p.conjugate()
    w1, w2 = complex(0.0, h1), complex(0.0, h2)
    return abs(cmath.phase((w1 - p) * (w2 - q) / ((w1 - q) * (w2 - p))))


def witness_residuals(x, y, heights, hyperbolic):
    """The two equal-angle residuals of a four-point witness."""
    angle = hyper_angle if hyperbolic else euclid_angle
    a, b, c, d = heights
    return (
        angle(x, y, a, b) - angle(x, y, b, c),
        angle(x, y, b, c) - angle(x, y, c, d),
    )


def quartic_coefficients(a, b, c):
    """(alpha, beta, gamma) of the equal-angle quartic, rounded once from rationals."""
    a2, b2, c2 = (Fraction(v) ** 2 for v in (a, b, c))
    alpha = 2 * b2 - a2 - c2
    beta = a2 * c2 - b2 * b2
    gamma = b2 * (2 * a2 * c2 - a2 * b2 - c2 * b2)
    return float(alpha), float(beta), float(gamma)


def quartic_relative_residual(a, b, c, x, y):
    """|r^4 alpha - 2 beta (x^2 - y^2) - gamma| over the sum of its terms' magnitudes.

    Uses Cartesian points, so r^2 cos(2 theta) = x^2 - y^2 and the
    sample's own angle does not enter. The scale adds every product
    before cancellation, so points near the lemniscate's node are judged
    by backward error rather than by a vanishing residual.
    """
    alpha, beta, gamma = quartic_coefficients(a, b, c)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = x * x + y * y
    d = x * x - y * y
    a2, b2, c2 = a * a, b * b, c * c
    residual = s * s * alpha - 2.0 * beta * d - gamma
    scale = (
        s * s * (2.0 * b2 + a2 + c2)
        + 2.0 * (a2 * c2 + b2 * b2) * np.abs(d)
        + b2 * (2.0 * a2 * c2 + a2 * b2 + c2 * b2)
    )
    return np.abs(residual) / scale


def ph_integral(ratio, nodes=96):
    """P_h(R) = 2 int_0^1 (u*(v) - v) dv by Gauss-Legendre on [0, 1].

    u*(v) = ln B*(C) / (2L) with C = e^(2Lv), L = ln R, S = R^2 and
    B*(C) - C = 3 (C - 1)(S - C) / (S + 3C - 4), written with expm1 and
    log1p so the band stays accurate as R -> 1.
    """
    if not ratio > 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio!r}")
    t, w = np.polynomial.legendre.leggauss(nodes)
    v = 0.5 * (t + 1.0)
    L = math.log(ratio)
    S = ratio * ratio
    em = np.expm1(2.0 * L * v)
    C = 1.0 + em
    band = np.log1p(3.0 * em * (S - C) / (C * ((S - 1.0) + 3.0 * em))) / (2.0 * L)
    return float(2.0 * np.dot(0.5 * w, band))


def regime_exact(a, b, c):
    """Locus regime of an integer triple by exact integer comparisons."""
    a2, b2, c2 = a * a, b * b, c * c
    q = 2 * b2 - (a2 + c2)
    g = b2 - a * c
    h = b2 * (a2 + c2) - 2 * a2 * c2
    if q == 0:
        return "QuadraticHyperbola"
    if g == 0:
        return "GeometricCircle"
    if h == 0:
        return "HarmonicLemniscate"
    if q > 0:
        return "AboveQuadratic"
    if g > 0:
        return "BetweenGeometricAndQuadratic"
    if h > 0:
        return "BetweenHarmonicAndGeometric"
    return "BelowHarmonic"


def family_identity(kind, a, b, c):
    """The Diophantine identity of a boundary family, in integers."""
    a, b, c = abs(a), abs(b), abs(c)
    if kind == "QuadraticMean":
        return 2 * b * b == a * a + c * c
    if kind == "GeometricMean":
        return b * b == a * c
    if kind == "HarmonicQuadratic":
        return 2 * a * a * c * c == b * b * (a * a + c * c)
    raise ValueError(f"unknown family {kind!r}")

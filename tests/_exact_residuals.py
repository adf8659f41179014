"""Equal-angle residuals of the half-plane judge in exact rational arithmetic.

The radius vector at P = (x, y) of the geodesic through P and the axis
point (0, h), multiplied by 2x, is (x^2 - y^2 + h^2, 2xy). The cross and
dot products of two such vectors are formed in fractions.Fraction from
the float inputs, so they are exact, and scaled together to at most 1
before the single rounding to floats that atan2 needs. Each angle is
therefore correct to about an ulp at any scale, and a residual to about
an ulp of the larger angle. With flat=True the vectors are the flat
plane's rays (-x, h - y) instead, for the Euclidean residuals.

exact_cross_ratio_euclid and exact_cross_ratio_hyper are the cross-ratios
of the float heights in rationals, and hyper_cross_ratio_error measures a
float hyperbolic one against the latter.
"""

from __future__ import annotations

import math
from fractions import Fraction

# fourpoint.cross_ratio_hyper's float value rounds 15 times (four
# differences, four sums, four quotients, three products), each within
# 2^-53 relative; compounded, that stays below 16 units of 2^-53, and its
# correctly rounded value, where the float one cannot decide, within 1/2
HYPER_CROSS_RATIO_BOUND = 16


def exact_angle(x: float, y: float, h1: float, h2: float, flat: bool = False) -> float:
    """Angle at (x, y) between the geodesics (or, flat, the rays) to (0, h1) and (0, h2)."""
    x, y = Fraction(x), Fraction(y)

    def radius(h):
        if flat:
            return -x, Fraction(h) - y
        return x * x - y * y + Fraction(h) ** 2, 2 * x * y

    (u0, u1), (v0, v1) = radius(h1), radius(h2)
    cross, dot = abs(u0 * v1 - u1 * v0), u0 * v0 + u1 * v1
    scale = max(cross, abs(dot))
    return math.atan2(float(cross / scale), float(dot / scale))


def exact_residuals(x: float, y: float, heights, flat: bool = False) -> tuple[float, ...]:
    """angle(h0 p h1) - angle(h1 p h2), ... for decreasing heights, as the judge orders them."""
    angles = [exact_angle(x, y, h1, h2, flat) for h1, h2 in zip(heights, heights[1:])]
    return tuple(first - second for first, second in zip(angles, angles[1:]))


def exact_cross_ratio_euclid(heights) -> Fraction:
    """(b-c)(a-d) / ((a-b)(c-d)) of the float heights, exactly."""
    a, b, c, d = map(Fraction, heights)
    return (b - c) * (a - d) / ((a - b) * (c - d))


def exact_cross_ratio_hyper(heights) -> Fraction:
    """(b^2-c^2)(a^2-d^2) / ((a^2-b^2)(c^2-d^2)) of the float heights, exactly."""
    return exact_cross_ratio_euclid([Fraction(h) ** 2 for h in heights])


def hyper_cross_ratio_error(value: float, heights) -> Fraction:
    """|value - cr| / cr in units of 2^-53, cr = exact_cross_ratio_hyper(heights).

    An infinite value stands for 2^1024, where rounding to float overflows.
    """
    exact = exact_cross_ratio_hyper(heights)
    approx = Fraction(2) ** 1024 if value == math.inf else Fraction(value)
    if value == math.inf and exact >= approx:
        return Fraction(0)
    return abs(approx - exact) / exact * 2**53

"""Equal-angle residuals of the half-plane judge in exact rational arithmetic.

The radius vector at P = (x, y) of the geodesic through P and the axis
point (0, h), multiplied by 2x, is (x^2 - y^2 + h^2, 2xy). The cross and
dot products of two such vectors are formed in fractions.Fraction from
the float inputs, so they are exact, and scaled together to at most 1
before the single rounding to floats that atan2 needs. Each angle is
therefore correct to about an ulp at any scale, and a residual to about
an ulp of the larger angle. With flat=True the vectors are the flat
plane's rays (-x, h - y) instead, for the Euclidean residuals.
"""

from __future__ import annotations

import math
from fractions import Fraction


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

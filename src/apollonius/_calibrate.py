"""P_e and P_h in closed form, and the endpoint ratio at which P_h meets a target.

With S = R^2, L = ln R and p = 4S - 1, the integral of probability's
one-dimensional reduction, P_h(R) = (1/(2L^2)) * integral_1^S ln B*(C)
dC/C - 1, integrates in dilogarithms (Lewin, Polylogarithms and
Associated Functions, 1981):

    F(C) = ln^2(pC)/2 + Li2(3S/(pC)) - ln^2(3C)/2 - Li2((4 - S)/(3C)),
    P_h(R) = (F(S) - F(1)) / (2L^2) - 1,

where the squared logarithms of F(S) - F(1) sum to 2L ln(p/3). Every
argument is a ratio of integers, since the double R is, so P_h is
evaluated in Python-int fixed point: ln by an atanh series and Li2 by
its power series, each after an exact argument reduction (Brent and
Zimmermann, Modern Computer Arithmetic, 2010, ch. 4). F(S) - F(1) is
about L^2 times the size of its terms as R -> 1, so the fixed point
carries that many guard bits. P_e = (15 - 16 ln 2)/9 takes the same
ln 2. Each value is rounded to a double once, from the fixed point.
Nothing here imports numpy, so `prob ph --calibrate` starts without it.
"""

from __future__ import annotations

import math

from ._base import GeometryError, _Record

__all__ = ["HyperProbSetup", "calibrate_ratio", "pe_quadrature", "ph_quadrature"]

# bits of P_h that the root solve compares; a few more absorb the rounding
# of the series, and the guard bits the cancellation near R = 1
_BITS = 128
_SLACK_BITS = 32

# cap on regula falsi steps; the Illinois rule converges in about a dozen
_ROOT_MAX_STEPS = 100

# 1 + 2**-51: the smallest ratio with two doubles strictly inside (1, ratio) is
# the next double above it
_TWO_ULPS_ABOVE_ONE = math.nextafter(math.nextafter(1.0, 2.0), 2.0)


class HyperProbSetup(_Record):
    """Endpoint ratio a/d of the hyperbolic sampling interval."""

    _fields = ("ratio",)

    def __init__(self, ratio: float):
        self.__dict__.update(ratio=ratio)
        if not (math.isfinite(ratio) and ratio > 1.0):
            raise GeometryError(f"ratio must be finite and > 1, got {ratio!r}")
        # the two interior heights must be distinct doubles strictly inside
        # (1, ratio); with fewer than two there, sampling could never stop
        if ratio <= _TWO_ULPS_ABOVE_ONE:
            raise GeometryError(
                f"ratio {ratio!r} leaves fewer than two doubles strictly inside "
                f"(1, ratio) for the interior heights"
            )


class _Fixed:
    """Fixed point with `bits` fractional bits: the int X stands for X / 2^bits.

    Every operation rounds toward minus infinity, one unit at most.
    """

    def __init__(self, bits: int):
        self.bits = bits
        self.ln2 = 2 * self._atanh(1, 3)
        # pi^2/6 = 2 Li2(1/2) + ln^2 2
        self.zeta2 = 2 * self._li2_series(1, 2) + (self.ln2 * self.ln2 >> bits)

    def _atanh(self, n: int, d: int) -> int:
        """atanh(n/d) for 0 <= n/d <= 1/3."""
        t = (n << self.bits) // d
        t2 = t * t >> self.bits
        total = power = t
        k = 1
        while power:
            power = power * t2 >> self.bits
            k += 2
            total += power // k
        return total

    def ln(self, n: int, d: int) -> int:
        """ln(n/d) for positive ints n and d."""
        e = n.bit_length() - d.bit_length()
        n, d = (n, d << e) if e >= 0 else (n << -e, d)
        # n/d = x / 2^e lies in (1/2, 2); move it into [1/sqrt2, sqrt2]
        if n * n > 2 * d * d:
            d, e = d << 1, e + 1
        elif 2 * n * n < d * d:
            n, e = n << 1, e - 1
        t = 2 * self._atanh(abs(n - d), n + d)  # ln x = 2 atanh((x - 1)/(x + 1))
        return e * self.ln2 + (t if n >= d else -t)

    def li2(self, n: int, d: int) -> int:
        """Li2(n/d) for d > 0 and n < d (Zagier, "The dilogarithm function", 2007)."""
        if 2 * n > d:  # (1/2, 1): reflection to 1 - x
            return self.zeta2 - (self.ln(n, d) * self.ln(d - n, d) >> self.bits) - self._li2_series(d - n, d)
        if n < -d:  # below -1: inversion to 1/x in (-1, 0)
            log = self.ln(-n, d)
            return -self.zeta2 - (log * log >> (self.bits + 1)) - self.li2(-d, -n)
        if 2 * n < -d:  # [-1, -1/2): Landen, to x/(x - 1) in (1/3, 1/2]
            log = self.ln(d - n, d)
            return -(log * log >> (self.bits + 1)) - self._li2_series(-n, d - n)
        return self._li2_series(n, d)

    def _li2_series(self, n: int, d: int) -> int:
        """Sum of x^k / k^2 over k >= 1, for x = n/d in [-1/2, 1/2]."""
        x = (n << self.bits) // d
        total = power = x
        k = 1
        while power:
            k += 1
            power = power * x >> self.bits
            total += power // (k * k)
        return total


def _fixed_for(ratio: float) -> _Fixed:
    """Fixed point that holds P_h at ratios from this one up to _BITS bits.

    Near R = 1 the terms cancel to about L^2 ~ (R - 1)^2 of their size;
    R - 1 is exact there and at least 2^(e - 1), e its binary exponent.
    """
    e = math.frexp(ratio - 1.0)[1]
    return _Fixed(_BITS + _SLACK_BITS + max(0, 2 - 2 * e))


def _ph(ratio: float, fx: _Fixed) -> int:
    """P_h(ratio) in fx's fixed point, from the dilogarithm closed form."""
    rn, rd = ratio.as_integer_ratio()
    n, d = rn * rn, rd * rd  # S = n/d
    p = 4 * n - d  # (4S - 1) d
    c = 4 * d - n  # (4 - S) d
    length = fx.ln(rn, rd)
    diff = (
        (2 * length * fx.ln(p, 3 * d) >> fx.bits)
        + fx.li2(3 * d, p)
        - fx.li2(3 * n, p)
        - fx.li2(c, 3 * n)
        + fx.li2(c, 3 * d)
    )
    return (diff << 2 * fx.bits) // (2 * length * length) - (1 << fx.bits)


def pe_quadrature() -> float:
    """P_e = (15 - 16 ln 2)/9, with ln 2 to 2^-128, rounded once to a double."""
    fx = _Fixed(_BITS)
    return ((15 << fx.bits) - 16 * fx.ln2) / (9 << fx.bits)


def ph_quadrature(setup: HyperProbSetup) -> float:
    """P_h at the setup's ratio, from the closed form to 2^-128, rounded once to a double."""
    fx = _fixed_for(setup.ratio)
    return _ph(setup.ratio, fx) / (1 << fx.bits)


def calibrate_ratio(target: float, bracket: tuple[float, float]) -> float | None:
    """Endpoint ratio at which P_h hits the target, or None.

    Returns None when the bracket endpoints do not straddle the target
    (the probability is monotone decreasing in the ratio, so a straddle
    is also necessary for a root to exist inside). Otherwise the root is
    solved to the last bit of the ratio by regula falsi with the Illinois
    rule, on P_h from the dilogarithm closed form to 2^-128, compared
    exactly with the target.
    """
    lo, hi = bracket
    HyperProbSetup(lo)
    HyperProbSetup(hi)
    fx = _fixed_for(min(lo, hi))
    num, den = float(target).as_integer_ratio()
    goal = num << fx.bits

    def f(ratio: float) -> int:
        return _ph(ratio, fx) * den - goal

    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        return None
    return _illinois(f, lo, hi, f_lo, f_hi)


def _illinois(f, a: float, b: float, fa: int, fb: int) -> float:
    """Root of f between a and b, where the ints fa = f(a) and fb = f(b) differ in sign.

    Regula falsi keeps the newest point b and an end a of opposite sign;
    when a survives a step its value is halved (the Illinois rule), so
    both ends close in superlinearly. The halving doubles every later
    value instead, so no bit is lost, and the secant point is the exact
    one, rounded once. Stops when it rounds onto an end, which happens
    once a and b are adjacent doubles, or f vanishes. (Dowell and
    Jarratt, BIT 11, 1971.)
    """
    shift = 0
    for _ in range(_ROOT_MAX_STEPS):
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        x = (an * bd * fb - bn * ad * fa) / (ad * bd * (fb - fa))
        if not min(a, b) < x < max(a, b):
            return x
        fx = f(x) << shift
        if fx == 0:
            return x
        if (fx > 0) == (fb > 0):
            shift += 1
            fx <<= 1
        else:
            a, fa = b, fb
        b, fb = x, fx
    raise GeometryError(f"root solve did not converge in {_ROOT_MAX_STEPS} steps")

"""An independent ln, Li2 and P_h in Python-int fixed point, for the tests.

apollonius.probability takes ln by an atanh series after a power-of-two
reduction, Li2 by its power series after reflection, Landen and
inversion, and pi^2/6 as 2 Li2(1/2) + ln^2 2. This module shares none
of those steps:

- ln by repeated integer square roots down to within about 2^-32 of 1,
  then the Mercator series of ln(1 + z);
- Li2 by the Bernoulli series in u = -ln(1 - x), sum B_n u^(n+1)/(n+1)!,
  which converges for |u| < 2 pi; only reflection (x > 1/2) and
  inversion (x < -1) reduce the argument, so |u| <= ln 2;
- pi from Machin's formula;
- P_h from the dilogarithm form with every squared logarithm formed:

      F(C) = ln^2(pC)/2 + Li2(3S/(pC)) - ln^2(3C)/2 - Li2((4 - S)/(3C)),
      P_h(R) = (F(S) - F(1)) / (2L^2) - 1,   S = R^2, p = 4S - 1, L = ln R.

Values are Fractions with denominator 2^BITS, good to about 2^-(BITS - 16)
before the cancellation of F(S) - F(1), which costs 2 log2(1/L) bits.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

BITS = 320
_ONE = 1 << BITS
_ROOTS = 32  # square roots taken before the Mercator series


def _mul(x: int, y: int) -> int:
    return x * y >> BITS


def _fixed(x: Fraction) -> int:
    return (x.numerator << BITS) // x.denominator


def _atan_inv(m: int) -> int:
    """atan(1/m) for an integer m > 1."""
    total, power, k, sign = 0, _ONE // m, 1, 1
    while power:
        total += sign * (power // k)
        power //= m * m
        k, sign = k + 2, -sign
    return total


@functools.cache
def zeta2() -> int:
    """pi^2/6, with pi = 16 atan(1/5) - 4 atan(1/239) (Machin)."""
    pi = 16 * _atan_inv(5) - 4 * _atan_inv(239)
    return _mul(pi, pi) // 6


def _ln_near_one(y: int) -> int:
    """ln(y / 2^BITS) for y / 2^BITS in [1, 2]."""
    extra = _ROOTS + 16
    w = BITS + extra
    y <<= extra
    for _ in range(_ROOTS):
        y = math.isqrt(y << w)
    z = y - (1 << w)  # y^(1/2^_ROOTS) = 1 + z, 0 <= z < 2^-_ROOTS
    total, power, k = 0, z, 1
    while power:
        total += (power // k) if k % 2 else -(power // k)
        power = power * z >> w
        k += 1
    return (total << _ROOTS) >> extra


@functools.cache
def ln2() -> int:
    return _ln_near_one(2 << BITS)


def ln(x: Fraction) -> int:
    """ln x for a positive Fraction x."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    y = x / Fraction(2) ** e
    if y < 1:
        y, e = 2 * y, e - 1
    return e * ln2() + _ln_near_one(_fixed(y))


@functools.cache
def _bernoulli_terms(count: int) -> tuple[Fraction, ...]:
    """B_n / (n + 1)! for n < count, with B_1 = -1/2."""
    b = [Fraction(1)]
    for n in range(1, count):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    terms, factorial = [], 1
    for n, bn in enumerate(b):
        factorial *= n + 1
        terms.append(bn / factorial)
    return tuple(terms)


def li2(x: Fraction) -> int:
    """Li2(x) for a Fraction x < 1."""
    if x > Fraction(1, 2):
        return zeta2() - _mul(ln(x), ln(1 - x)) - li2(1 - x)
    if x < -1:
        return -zeta2() - _mul(ln(-x), ln(-x)) // 2 - li2(1 / x)
    if x == 0:
        return 0
    u = -ln(1 - x)  # |u| <= ln 2
    total, power = 0, u
    for coefficient in _bernoulli_terms(BITS // 3 + 8):
        total += power * coefficient.numerator // coefficient.denominator
        power = _mul(power, u)
    return total


def ph(ratio: float) -> Fraction:
    """P_h(ratio) from the dilogarithm closed form."""
    r = Fraction(ratio)
    s = r * r
    p = 4 * s - 1

    def f(c: Fraction) -> int:
        lp, l3 = ln(p * c), ln(3 * c)
        return _mul(lp, lp) // 2 + li2(3 * s / (p * c)) - _mul(l3, l3) // 2 - li2((4 - s) / (3 * c))

    length = ln(r)
    return Fraction(f(s) - f(Fraction(1)), 2 * _mul(length, length)) - 1

"""Probability that three random adjacent segments admit an equal-angle witness.

Euclidean setting: fix the outer points at heights 1 and 0 and drop two
independent uniform points between them; call the larger b and the
smaller c. A witness exists iff the cross-ratio is below 3, i.e.

    (b - c) / (c (1 - b)) < 3
    b - c < 3c - 3bc
    b (1 + 3c) < 4c,

so the success region is b < 4c/(1 + 3c), and since the ordered pair
(b, c) has density 2 on the triangle 0 < c < b < 1 and c < 4c/(1+3c) < 1
throughout,

    P_e = 2 * integral_0^1 (4c/(1 + 3c) - c) dc = (15 - 16 ln 2) / 9.

Hyperbolic setting: the natural invariant measure on a vertical line is
dy/y, so drop two points log-uniformly between heights 1 and R. The
value depends on the endpoint ratio R (it is NOT invariant under the
choice of R, only under joint scaling), so R is an explicit parameter
everywhere. With L = ln R, the two points cut the distance L from 1 to
R into three distances, and a witness exists iff their cross-ratio
sinh(d_bc) sinh(L) / (sinh(d_ab) sinh(d_cd)) is below 3 (see fourpoint).
The Monte Carlo kernel tests exactly that, on the draws' 53-bit
integers, so it forms no height and behaves alike at every ratio.

For the exact value, the same condition in heights (2 pq sinh(d_pq) =
p^2 - q^2) solves in closed form for the upper point: writing S = R^2,
p = 4S - 1 and C = c^2 = e^(2Lv), success iff b^2 < B*(C) with
B*(C) = (pC - 3S) / (S + 3C - 4), and C < B*(C) < S always holds. That
gives the one-dimensional reduction

    P_h(R) = 2 * integral_0^1 (ln B*(e^(2Lv)) / (2L) - v) dv
           = (1/(2L^2)) * integral_1^S ln B*(C) dC/C - 1,

which integrates in dilogarithms (Lewin, Polylogarithms and Associated
Functions, 1981):

    F(C) = ln^2(pC)/2 + Li2(3S/(pC)) - ln^2(3C)/2 - Li2((4 - S)/(3C)),
    P_h(R) = (F(S) - F(1)) / (2L^2) - 1,

where the squared logarithms of F(S) - F(1) sum to 2L ln(p/3). P_h
decreases from P_e as R -> 1+ to 0 as R -> infinity, so any target
below P_e is reproduced by exactly one ratio; calibrate_ratio finds it.

Every argument of F is a ratio of integers, since the double R is, so
P_h is evaluated in Python-int fixed point: ln by an atanh series and
Li2 by its power series, each after an exact argument reduction (Brent
and Zimmermann, Modern Computer Arithmetic, 2010, ch. 4). F(S) - F(1)
is about L^2 times the size of its terms as R -> 1, so the fixed point
carries that many guard bits. P_e takes the same ln 2. Each value is
rounded to a double once, from the fixed point.

numpy and rng are imported only inside the Monte Carlo kernels, so the
closed forms, and prob ph --calibrate, load neither.
"""

from __future__ import annotations

import math
import os

from ._base import GeometryError, _Record

__all__ = [
    "ProbEstimate",
    "HyperProbSetup",
    "ph_reference_constant",
    "estimate_pe",
    "estimate_ph",
    "pe_quadrature",
    "ph_quadrature",
    "calibrate_ratio",
]

# samples per block; the estimates do not depend on it. A block runs in one
# PairBuffers of 49 bytes per sample, 1.53 MiB per thread at 2^15. Medians
# in ms of 21 interleaved runs of 2^20 samples (ratio 2 for P_h), 2 vCPU
# Xeon with 2 MiB of L2 per core, numpy 2.4.6:
#
#   block   pe, 1 thread   ph, 1 thread   ph, 2 threads   all three
#   2^13        21.6           27.8            37.8           88.5
#   2^14        16.1           20.1            24.2           60.9
#   2^15        16.7           21.9            17.7           55.7
#   2^16        21.0           23.2            16.8           60.8
#   2^17        27.9           31.8            23.9           83.0
#
# Small blocks slow the sharded call, which hands the GIL over once per
# ufunc call; from 2^16 the buffers outgrow L2.
_CHUNK = 1 << 15

# the pair kernel's draws are 53-bit integers, the variates times this
_TWO_53 = 2.0**53

# bits of P_h that the root solve compares; a few more absorb the rounding
# of the series, and the guard bits the cancellation near R = 1
_BITS = 128
_SLACK_BITS = 32

# cap on regula falsi steps; the Illinois rule converges in about a dozen
_ROOT_MAX_STEPS = 100


class ProbEstimate(_Record):
    """Monte Carlo success fraction with its binomial standard error."""

    _fields = ("mean", "stderr", "n", "seed")

    def __init__(self, mean: float, stderr: float, n: int, seed: int):
        self.__dict__.update(mean=mean, stderr=stderr, n=n, seed=seed)


class HyperProbSetup(_Record):
    """Endpoint ratio a/d of the hyperbolic sampling interval: any finite double above 1.

    Neither the Monte Carlo kernel nor the closed form forms an interior
    height, so the first double above 1 works too; P_h there is P_e.
    """

    _fields = ("ratio",)

    def __init__(self, ratio: float):
        self.__dict__.update(ratio=ratio)
        if not (math.isfinite(ratio) and ratio > 1.0):
            raise GeometryError(f"ratio must be finite and > 1, got {ratio!r}")


def ph_reference_constant() -> float:
    """(2 sqrt5 ln(2 + sqrt5) - 5) / (5 ln 2), about 0.42015149316.

    Reported without the endpoint ratio it presumes; see calibrate_ratio
    for the ratio that reproduces it under the log-uniform model.
    """
    s5 = math.sqrt(5.0)
    return (2.0 * s5 * math.log(2.0 + s5) - 5.0) / (5.0 * math.log(2.0))


def _draw_ordered_pair(stream: SampleStream) -> tuple[float, float]:
    # ties and zero draws are measure-zero boundary hits; redraw keeps the
    # ordered-pair density exactly 2 on the open triangle
    while True:
        u = stream.next_float()
        v = stream.next_float()
        if u != v and u != 0.0 and v != 0.0:
            return (u, v) if u > v else (v, u)


def estimate_pe(n: int, seed: int, threads: int = 1) -> ProbEstimate:
    """Fraction of Euclidean configs admitting a witness.

    Bit-identical for fixed (n, seed) regardless of threads: each
    sample's variates are keyed by its index alone.
    """
    return _estimate(_count_sharded(_euclid_indicators, n, seed, threads, ()), n, seed)


def estimate_ph(n: int, seed: int, setup: HyperProbSetup, threads: int = 1) -> ProbEstimate:
    """Fraction of hyperbolic configs admitting a witness, at the given ratio."""
    return _estimate(_count_sharded(_hyper_indicators, n, seed, threads, (setup.ratio,)), n, seed)


def _estimate(successes: int, n: int, seed: int) -> ProbEstimate:
    mean = successes / n
    return ProbEstimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / n), n=n, seed=seed)


def _worker_count(threads: int, chunks: int, cpus: int) -> int:
    """Pool size for a sharded count: threads beyond the chunks of work or the CPUs only cost."""
    return max(1, min(threads, chunks, cpus))


def _count_sharded(indicator_fn, n, seed, threads, extra) -> int:
    import numpy as np

    workers = _worker_count(threads, -(-n // _CHUNK), os.cpu_count() or 1)

    def count(lo, hi):
        return sum(int(np.count_nonzero(ind)) for ind in _blocks(indicator_fn, seed, lo, hi, extra))

    if workers == 1:
        return count(0, n)
    # imported here: it loads logging, about 10 ms cold, which the default
    # single-threaded run never needs
    from concurrent.futures import ThreadPoolExecutor

    bounds = [n * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count, bounds[:-1], bounds[1:]))


def _blocks(indicator_fn, seed, lo, hi, extra):
    """Indicator arrays of samples lo..hi-1, _CHUNK at a time, all computed in one PairBuffers.

    Each array is a view of the buffers' flag row, which the next block
    overwrites; copy it to keep it. Every estimate runs through here,
    with lo = 0 and hi = n where the count is unsharded (a shard is
    never empty), so this is where n < 1 and a seed outside [0, 2^64)
    are named.
    """
    from .rng import PairBuffers, _check_seed

    if hi - lo < 1:
        raise GeometryError(f"need at least one sample, got n={hi - lo!r}")
    _check_seed(seed)
    buffers = PairBuffers(min(_CHUNK, hi - lo))
    return (
        indicator_fn(seed, start, min(start + _CHUNK, hi), *extra, buffers) for start in range(lo, hi, _CHUNK)
    )


def _ordered_gaps(seed: int, lo: int, hi: int, buffers: PairBuffers) -> np.ndarray:
    """The gaps 2^53 - B, B - C and C of samples lo..hi-1, as rows 0, 1 and 2 of buffers.out[:, :n].

    B > C are the larger and smaller of draws 0 and 1 as their 53-bit
    integers (the variates times 2^53, exact as floats), so the rows are
    the three segments that the two draws cut the unit interval into,
    times 2^53, top first, each an integer from 1 up. A tie or a zero
    draw, a measure-zero boundary hit, is redrawn by _draw_ordered_pair
    from the sample's stream past the two rejected draws; both kernels
    share this rule.
    """
    import numpy as np

    from .rng import SampleStream, _pair_integers

    n = hi - lo
    u, v = _pair_integers(seed, lo, hi, buffers)
    gaps = buffers.out[:, :n]
    upper, middle, lower = gaps
    np.minimum(u, v, out=lower)
    np.maximum(u, v, out=upper)
    np.subtract(upper, lower, out=middle)
    np.subtract(_TWO_53, upper, out=upper)
    # ties and zero draws are so rare that the full mask is built only when
    # a reduction finds one
    if not (middle.min() > 0.0 and lower.min() > 0.0):
        for i in np.nonzero((middle == 0.0) | (lower == 0.0))[0]:
            stream = SampleStream(seed, lo + int(i))
            stream.next_float()  # skip the two rejected draws
            stream.next_float()
            b, c = (x * _TWO_53 for x in _draw_ordered_pair(stream))
            gaps[:, i] = _TWO_53 - b, b - c, c
    return gaps


def _euclid_indicators(seed: int, lo: int, hi: int, buffers: PairBuffers) -> np.ndarray:
    import numpy as np

    n = hi - lo
    upper, middle, lower = _ordered_gaps(seed, lo, hi, buffers)
    # cross_ratio_euclid's float expression for heights (1, b, c, 0),
    # cr = ((b - c) / (1 - b)) / c (c - d and / (a - d) are exact), times
    # 2^-53 exactly: every operand is the float one times a power of two and
    # the quotient lies in [2^-106, 2^53]. This float test is exists_euclid
    # except in its band around 3, about 1e-14 of the samples
    middle /= upper
    middle /= lower
    return np.less(middle, 3.0 / _TWO_53, out=buffers.flag[:n])


def _hyper_indicators(seed: int, lo: int, hi: int, ratio: float, buffers: PairBuffers) -> np.ndarray:
    import numpy as np

    n = hi - lo
    gaps = _ordered_gaps(seed, lo, hi, buffers)
    # heights 1 < e^(sC) < e^(sB) < ratio, with L = ln(ratio) and s = L / 2^53
    # (exact), lie at hyperbolic distances s times the gaps; the cross-ratio
    # of fourpoint.cross_ratio_hyper, sinh(d_bc) sinh(L) / (sinh(d_ab) sinh(d_cd)),
    # is below 3 where sinh(d_bc) < (3 / sinh L) sinh(d_ab) sinh(d_cd). No
    # height is formed, so nothing overflows or collapses at any ratio
    length = math.log(ratio)
    gaps *= length / _TWO_53
    np.sinh(gaps, out=gaps)
    upper, middle, lower = gaps
    upper *= 3.0 / math.sinh(length)
    upper *= lower
    return np.less(middle, upper, out=buffers.flag[:n])


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

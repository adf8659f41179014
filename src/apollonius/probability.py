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

    P = 2 * integral_0^1 (4c/(1 + 3c) - c) dc = (15 - 16 ln 2) / 9.

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
p^2 - q^2) solves in closed form for the upper point: writing S = R^2
and C = c^2 = e^(2Lv), success iff b^2 < B*(C) with

    B*(C) = ((4S - 1) C - 3S) / (S + 3C - 4),

and C < B*(C) < S always holds, giving the smooth one-dimensional
reduction

    P(R) = 2 * integral_0^1 (ln B*(e^(2Lv)) / (2L) - v) dv.

P(R) decreases from the Euclidean value (15 - 16 ln 2)/9 as R -> 1+ to 0
as R -> infinity, so any target below the Euclidean value is reproduced
by exactly one ratio; calibrate_ratio finds it. The integral has a
closed form in dilogarithms, which _calibrate evaluates in Python-int
fixed point, without numpy; pe_quadrature, ph_quadrature and
calibrate_ratio live there with HyperProbSetup and are re-exported here.

The estimators never build a FourConfig, so only the two samplers that
do import fourpoint, and prob pe and prob ph run without compiling it.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ._base import GeometryError, _Record
from ._calibrate import HyperProbSetup, calibrate_ratio, pe_quadrature, ph_quadrature
from .rng import PairBuffers, SampleStream, _check_seed, _pair_integers

__all__ = [
    "ProbEstimate",
    "HyperProbSetup",
    "pe_closed_form",
    "ph_reference_constant",
    "sample_config_euclid",
    "sample_config_hyper",
    "estimate_pe",
    "estimate_ph",
    "euclid_indicator_stream",
    "hyper_indicator_stream",
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


class ProbEstimate(_Record):
    """Monte Carlo success fraction with its binomial standard error."""

    _fields = ("mean", "stderr", "n", "seed")

    def __init__(self, mean: float, stderr: float, n: int, seed: int):
        self.__dict__.update(mean=mean, stderr=stderr, n=n, seed=seed)


def pe_closed_form() -> float:
    """(15 - 16 ln 2) / 9, about 0.434405."""
    return (15.0 - 16.0 * math.log(2.0)) / 9.0


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


def sample_config_euclid(stream: SampleStream) -> FourConfig:
    """Random config on the unit segment: a=1, d=0, b > c uniform order stats.

    "The point closer to the top is called b" is interpreted as plain
    order statistics of two i.i.d. draws, nothing more: the pair is
    unordered until sorted, so the ordered density is exactly 2 on the
    open triangle.
    """
    from .fourpoint import FourConfig, Geometry

    b, c = _draw_ordered_pair(stream)
    return FourConfig(1.0, b, c, 0.0, Geometry.EUCLIDEAN)


def sample_config_hyper(stream: SampleStream, setup: HyperProbSetup) -> FourConfig:
    """Random config with d=1, a=ratio and two log-uniform interior heights."""
    from .fourpoint import FourConfig, Geometry

    length = math.log(setup.ratio)
    while True:
        hi, lo = _draw_ordered_pair(stream)
        b = math.exp(hi * length)
        c = math.exp(lo * length)
        # exp can collapse distinct draws onto each other or an endpoint
        if b != c and c != 1.0 and b != setup.ratio:
            return FourConfig(setup.ratio, b, c, 1.0, Geometry.HYPERBOLIC)


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
    overwrites; copy it to keep it. Every estimate and indicator stream
    runs through here, with lo = 0 and hi = n where the count is
    unsharded (a shard is never empty), so this is where n < 1 and a
    seed outside [0, 2^64) are named.
    """
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
    draw, a measure-zero boundary hit, is redrawn from the sample's
    stream past the two rejected draws, as the scalar samplers do; both
    kernels share this rule.
    """
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
    n = hi - lo
    upper, middle, lower = _ordered_gaps(seed, lo, hi, buffers)
    # cross_ratio_euclid's float expression for heights (1, b, c, 0):
    # cr = ((b - c) / (1 - b)) / c, since c - d and / (a - d) are exact. On
    # the gaps times 2^53 every operand is the float one times a power of
    # two and the quotient lies in [2^-106, 2^53], so it is below 3 * 2^-53
    # exactly when cr < 3
    middle /= upper
    middle /= lower
    return np.less(middle, 3.0 / _TWO_53, out=buffers.flag[:n])


def _hyper_indicators(seed: int, lo: int, hi: int, ratio: float, buffers: PairBuffers) -> np.ndarray:
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


def euclid_indicator_stream(n: int, seed: int) -> np.ndarray:
    """Per-sample success booleans of estimate_pe(n, seed)."""
    return np.concatenate([ind.copy() for ind in _blocks(_euclid_indicators, seed, 0, n, ())])


def hyper_indicator_stream(n: int, seed: int, ratio: float) -> np.ndarray:
    """Per-sample success booleans of estimate_ph(n, seed, HyperProbSetup(ratio))."""
    HyperProbSetup(ratio)  # validate
    return np.concatenate([ind.copy() for ind in _blocks(_hyper_indicators, seed, 0, n, (ratio,))])

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
everywhere. Writing S = R^2, L = ln R and C = c^2 = e^(2Lv), the squared
existence condition (squared-heights cross-ratio below 3) solves in
closed form for the upper point: success iff b^2 < B*(C) with

    B*(C) = ((4S - 1) C - 3S) / (S + 3C - 4),

and C < B*(C) < S always holds, giving the smooth one-dimensional
reduction

    P(R) = 2 * integral_0^1 (ln B*(e^(2Lv)) / (2L) - v) dv.

P(R) decreases from the Euclidean value (15 - 16 ln 2)/9 as R -> 1+ to 0
as R -> infinity, so any target below the Euclidean value is reproduced
by exactly one ratio; calibrate_ratio finds it.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .fourpoint import FourConfig, Geometry
from .halfplane import GeometryError, _Record
from .rng import PairBuffers, SampleStream, uniform_pair

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

# samples per block; the estimates do not depend on it. At 2^16 a block's
# arrays (512 KiB each) stay in cache: 2^15 runs as fast, 2^17 ~20% slower
_CHUNK = 1 << 16

# Gauss-Legendre rules double in size from _GAUSS_MIN_NODES until two
# successive rules agree; past _GAUSS_MAX_NODES the integral is reported
# as unresolved rather than returned
_GAUSS_MIN_NODES = 16
_GAUSS_MAX_NODES = 512

# cap on regula falsi steps; the Illinois rule converges in about a dozen
_ROOT_MAX_STEPS = 100

# 1 + 2**-51: the smallest ratio with two doubles strictly inside (1, ratio) is
# the next double above it
_TWO_ULPS_ABOVE_ONE = math.nextafter(math.nextafter(1.0, 2.0), 2.0)

# quadrature and calibration work in extended precision so that the
# float64 results are correctly rounded (x87 80-bit where numpy has it)
_LD = np.longdouble


class ProbEstimate(_Record):
    """Monte Carlo success fraction with its binomial standard error."""

    _fields = ("mean", "stderr", "n", "seed")

    def __init__(self, mean: float, stderr: float, n: int, seed: int):
        self.__dict__.update(mean=mean, stderr=stderr, n=n, seed=seed)


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
    b, c = _draw_ordered_pair(stream)
    return FourConfig(1.0, b, c, 0.0, Geometry.EUCLIDEAN)


def sample_config_hyper(stream: SampleStream, setup: HyperProbSetup) -> FourConfig:
    """Random config with d=1, a=ratio and two log-uniform interior heights."""
    length = math.log(setup.ratio)
    while True:
        u = stream.next_float()
        v = stream.next_float()
        if u == v or u == 0.0 or v == 0.0:
            continue
        hi, lo = (u, v) if u > v else (v, u)
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
    successes = _count_sharded(_euclid_indicators, n, seed, threads, (0.0,))
    return _estimate(successes, n, seed)


def estimate_ph(n: int, seed: int, setup: HyperProbSetup, threads: int = 1) -> ProbEstimate:
    """Fraction of hyperbolic configs admitting a witness, at the given ratio."""
    successes = _count_sharded(_hyper_indicators, n, seed, threads, (setup.ratio, 1.0))
    return _estimate(successes, n, seed)


def _estimate(successes: int, n: int, seed: int) -> ProbEstimate:
    if n < 1:
        raise GeometryError(f"need at least one sample, got n={n!r}")
    mean = successes / n
    return ProbEstimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / n), n=n, seed=seed)


def _worker_count(threads: int, chunks: int, cpus: int) -> int:
    """Pool size for a sharded count: threads beyond the chunks of work or the CPUs only cost."""
    return max(1, min(threads, chunks, cpus))


def _count_sharded(indicator_fn, n, seed, threads, extra) -> int:
    if n < 1:
        raise GeometryError(f"need at least one sample, got n={n!r}")
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
    """Indicator arrays of samples lo..hi-1, _CHUNK at a time, all drawn in one PairBuffers."""
    buffers = PairBuffers(min(_CHUNK, hi - lo))
    for start in range(lo, hi, _CHUNK):
        yield indicator_fn(seed, start, min(start + _CHUNK, hi), *extra, buffers)


def _ordered_uniforms(seed: int, lo: int, hi: int, buffers: PairBuffers | None = None):
    u, v = uniform_pair(seed, lo, hi, buffers)
    bad = (u == v) | (u == 0.0) | (v == 0.0)
    for i in np.nonzero(bad)[0]:
        stream = SampleStream(seed, lo + int(i))
        stream.next_float()  # skip the two rejected draws
        stream.next_float()
        u[i], v[i] = _draw_ordered_pair(stream)
    upper = np.maximum(u, v)
    return upper, np.minimum(u, v, out=v)


def _euclid_indicators(
    seed: int, lo: int, hi: int, offset: float, buffers: PairBuffers
) -> np.ndarray:
    b, c = _ordered_uniforms(seed, lo, hi, buffers)
    a = 1.0 + offset
    d = 0.0 + offset
    if offset != 0.0:
        b += offset
        c += offset
    # mirror cross_ratio_euclid's float expression exactly:
    # cr = ((b - c) / (a - b)) / ((c - d) / (a - d))
    cr = np.subtract(b, c)
    cr /= np.subtract(a, b, out=b)
    c -= d
    c /= a - d
    cr /= c
    return cr < 3.0


def _hyper_indicators(
    seed: int, lo: int, hi: int, ratio: float, scale: float, buffers: PairBuffers
) -> np.ndarray:
    length = math.log(ratio)
    b, c = _ordered_uniforms(seed, lo, hi, buffers)
    b *= length
    np.exp(b, out=b)
    c *= length
    np.exp(c, out=c)
    collapsed = (b == c) | (c == 1.0) | (b == ratio)
    setup = HyperProbSetup(ratio)
    for i in np.nonzero(collapsed)[0]:
        cfg = sample_config_hyper(SampleStream(seed, lo + int(i)), setup)
        b[i], c[i] = cfg.b, cfg.c
    a = ratio * scale
    d = 1.0 * scale
    if scale != 1.0:
        b *= scale
        c *= scale
    a2, d2 = a * a, d * d
    b *= b
    c *= c
    # the squared-height cross-ratio, as one float expression:
    # cr = ((b2 - c2) / (a2 - b2)) / ((c2 - d2) / (a2 - d2))
    cr = np.subtract(b, c)
    cr /= np.subtract(a2, b, out=b)
    c -= d2
    c /= a2 - d2
    cr /= c
    return cr < 3.0


def euclid_indicator_stream(n: int, seed: int, offset: float = 0.0) -> np.ndarray:
    """Per-sample success booleans; offset translates all four heights.

    The stream with any offset equals the offset-0 stream except for
    float rounding at the existence boundary, which is what the affine
    invariance property asserts.
    """
    return np.concatenate(list(_blocks(_euclid_indicators, seed, 0, n, (offset,))))


def hyper_indicator_stream(n: int, seed: int, ratio: float, scale: float = 1.0) -> np.ndarray:
    """Per-sample success booleans; scale multiplies all four heights."""
    HyperProbSetup(ratio)  # validate
    return np.concatenate(list(_blocks(_hyper_indicators, seed, 0, n, (ratio, scale))))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on (0, 1), n even.

    Newton's method on the Legendre recurrence, in long double, from
    Tricomi's asymptotic nodes; three steps take them below long-double
    resolution. numpy.polynomial.legendre.leggauss gives the same rule,
    but only in float64, which leaves the sums a few ulp off, and its
    eigenvalue solve costs 16 ms at 128 nodes and over 100 ms at 512.
    """
    k = np.arange(1, n // 2 + 1, dtype=_LD)
    x = (1 - _LD(n - 1) / (8 * _LD(n) ** 3)) * np.cos(_LD(np.pi) * (4 * k - 1) / (4 * n + 2))
    for _ in range(3):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    w = 1 / ((1 - x * x) * dp * dp)  # half the [-1, 1] weight 2 / ((1 - x^2) P_n'^2)
    nodes = np.concatenate([1 - x, 1 + x[::-1]]) / 2
    weights = np.concatenate([w, w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_integral(band, tol: float) -> np.longdouble:
    """Integral of band over (0, 1) by Gauss-Legendre rules of doubling size.

    band maps a long-double node array to integrand values. A value
    counts only once two successive rules agree to tol; the larger rule's
    value is returned. Agreement finer than the long-double spacing of
    the value is rounding luck, so it never counts. Raises GeometryError
    naming tol when no two rules up to _GAUSS_MAX_NODES nodes agree.
    """
    if not tol > 0:
        raise GeometryError(f"tol must be positive, got {tol!r}")
    previous = None
    n = _GAUSS_MIN_NODES
    while n <= _GAUSS_MAX_NODES:
        nodes, weights = _gauss_legendre(n)
        value = np.dot(weights, band(nodes))
        if previous is not None and max(abs(value - previous), np.spacing(value)) <= tol:
            return value
        previous = value
        n *= 2
    raise GeometryError(
        f"Gauss-Legendre rules up to {_GAUSS_MAX_NODES} nodes do not agree to tol={tol!r}"
    )


def pe_quadrature(tol: float) -> float:
    """Euclidean probability by Gauss-Legendre quadrature of the success band.

    The band 2 (4c/(1 + 3c) - c) = 6c(1 - c)/(1 + 3c) is integrated over
    (0, 1) by rules of 16, 32, ... nodes until two successive rules agree
    to tol (GeometryError if none up to 512 do).
    """
    return float(_gauss_integral(lambda c: 6 * c * (1 - c) / (1 + 3 * c), tol))


def ph_quadrature(setup: HyperProbSetup, tol: float) -> float:
    """Hyperbolic probability at the given ratio, by the 1-D reduction.

    The success boundary is solved in closed form for the upper point
    (see the module docstring), leaving a smooth integrand that vanishes
    at both endpoints; no indicator discontinuity survives. The band
    width is computed as

        u*(v) - v = log1p(3 (C-1)(S-C) / (C (S + 3C - 4))) / (2L)

    with C - 1 = expm1(2Lv), S - 1 = (R - 1)(R + 1), S - C = (S - 1) -
    (C - 1) and S + 3C - 4 = (S - 1) + 3 (C - 1), which stays fully
    conditioned as the ratio approaches 1 (where B* - C underflows
    against C itself). It is integrated like pe_quadrature: Gauss-Legendre
    rules of doubling size until two successive ones agree to tol.
    """
    return float(_ph_integral(setup.ratio, tol))


def _ph_integral(ratio: float, tol: float) -> np.longdouble:
    r = _LD(ratio)
    s1 = (r - 1) * (r + 1)
    length = np.log(r)

    def band(v):
        em = np.expm1(2 * length * v)  # C - 1
        t = 3 * em * (s1 - em) / ((1 + em) * (s1 + 3 * em))  # (B* - C)/C
        return np.log1p(t) / length  # 2 (u*(v) - v), the -v already folded in

    return _gauss_integral(band, tol)


def calibrate_ratio(
    target: float, bracket: tuple[float, float], tol: float = 1e-9
) -> float | None:
    """Endpoint ratio at which ph_quadrature hits the target, or None.

    Returns None when the bracket endpoints do not straddle the target
    (the probability is monotone decreasing in the ratio, so a straddle
    is also necessary for a root to exist inside). Otherwise the root is
    solved to the last bit of the ratio, on long-double probabilities,
    by regula falsi with the Illinois rule.
    """
    lo, hi = bracket
    HyperProbSetup(lo)
    HyperProbSetup(hi)
    qtol = min(1e-10, tol / 10.0)
    goal = _LD(target)

    def f(ratio: float) -> np.longdouble:
        return _ph_integral(ratio, qtol) - goal

    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        return None
    return _illinois(f, lo, hi, f_lo, f_hi)


def _illinois(f, a: float, b: float, fa, fb) -> float:
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign.

    Regula falsi keeps the newest point b and an end a of opposite sign;
    when a survives a step its value is halved (the Illinois rule), so
    both ends close in superlinearly. Stops when the secant point rounds
    onto an end, which happens once a and b are adjacent doubles, or f
    vanishes. (Dowell and Jarratt, BIT 11, 1971.)
    """
    for _ in range(_ROOT_MAX_STEPS):
        x = float((a * fb - b * fa) / (fb - fa))
        if not min(a, b) < x < max(a, b):
            return x
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fb > 0.0):
            fa = fa / 2
        else:
            a, fa = b, fb
        b, fb = x, fx
    raise GeometryError(f"root solve did not converge in {_ROOT_MAX_STEPS} steps")

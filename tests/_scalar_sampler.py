"""The scalar sampling path and the config rescalers, as the tests' reference.

The Monte Carlo kernels of apollonius.probability decide each sample on
the draws' 53-bit integers and never form its heights. The samplers here
build each sample's FourConfig one draw at a time from the same stream,
SampleStream(seed, i), so a test can require every kernel indicator to
equal the library's existence test on that config, also after scaling
all four heights or translating them. The indicator streams concatenate
the kernels' blocks, copied, since each block is a view that the next
one overwrites.
"""

from __future__ import annotations

import math

import numpy as np

from apollonius import probability
from apollonius.fourpoint import FourConfig, Geometry
from apollonius.halfplane import GeometryError
from apollonius.locus import TripleConfig
from apollonius.probability import HyperProbSetup

# 1 + 2**-51: the smallest ratio with two doubles strictly inside (1, ratio) is
# the next double above it
_TWO_ULPS_ABOVE_ONE = math.nextafter(math.nextafter(1.0, 2.0), 2.0)


def sample_config_euclid(stream) -> FourConfig:
    """Random config on the unit segment: a=1, d=0, b > c uniform order stats.

    "The point closer to the top is called b" is interpreted as plain
    order statistics of two i.i.d. draws, nothing more: the pair is
    unordered until sorted, so the ordered density is exactly 2 on the
    open triangle.
    """
    b, c = probability._draw_ordered_pair(stream)
    return FourConfig(1.0, b, c, 0.0, Geometry.EUCLIDEAN)


def sample_config_hyper(stream, setup: HyperProbSetup) -> FourConfig:
    """Random config with d=1, a=ratio and two log-uniform interior heights."""
    # the two interior heights must be distinct doubles strictly inside
    # (1, ratio); with fewer than two there, sampling could never stop
    if setup.ratio <= _TWO_ULPS_ABOVE_ONE:
        raise GeometryError(
            f"ratio {setup.ratio!r} leaves fewer than two doubles strictly inside "
            f"(1, ratio) for the interior heights"
        )
    length = math.log(setup.ratio)
    while True:
        hi, lo = probability._draw_ordered_pair(stream)
        b = math.exp(hi * length)
        c = math.exp(lo * length)
        # exp can collapse distinct draws onto each other or an endpoint
        if b != c and c != 1.0 and b != setup.ratio:
            return FourConfig(setup.ratio, b, c, 1.0, Geometry.HYPERBOLIC)


def euclid_indicator_stream(n: int, seed: int) -> np.ndarray:
    """Per-sample success booleans of estimate_pe(n, seed)."""
    blocks = probability._blocks(probability._euclid_indicators, seed, 0, n, ())
    return np.concatenate([ind.copy() for ind in blocks])


def hyper_indicator_stream(n: int, seed: int, ratio: float) -> np.ndarray:
    """Per-sample success booleans of estimate_ph(n, seed, HyperProbSetup(ratio))."""
    blocks = probability._blocks(probability._hyper_indicators, seed, 0, n, (ratio,))
    return np.concatenate([ind.copy() for ind in blocks])


def scaled(cfg: FourConfig | TripleConfig, factor: float) -> FourConfig | TripleConfig:
    """The config with every height times factor; a FourConfig keeps its geometry."""
    if isinstance(cfg, TripleConfig):
        return TripleConfig(cfg.a * factor, cfg.b * factor, cfg.c * factor)
    return FourConfig(cfg.a * factor, cfg.b * factor, cfg.c * factor, cfg.d * factor, cfg.geometry)


def shifted(cfg: FourConfig, offset: float) -> FourConfig:
    """The Euclidean config with offset added to every height."""
    if cfg.geometry is not Geometry.EUCLIDEAN:
        raise GeometryError("only Euclidean configs translate freely")
    return FourConfig(cfg.a + offset, cfg.b + offset, cfg.c + offset, cfg.d + offset, cfg.geometry)

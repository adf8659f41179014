"""Deterministic SVG emission for sampled locus curves.

Output is a plain polyline plot in mathematical coordinates (y up, done
with a flip transform), with the boundary axis y = 0 drawn and the
viewBox fitted to the samples with a 5% margin. Each root rank of the
curve is one branch, and a branch breaks after every gap between
consecutive samples that is more than ten times its median gap, so
hyperbola gaps and lemniscate nodes do not get bridged by chords. A gap
is math.hypot of the two samples' differences and the median is the
upper middle gap; numpy computes the gaps, and where one could fall on
the other side of the cutoff math.hypot recomputes them all, so the
cuts are math.hypot's on every platform. All numbers are printed as
%.17g; bytes are identical across runs for identical input.
"""

from __future__ import annotations

import math

import numpy as np

from ._base import GeometryError
from ._fmt17 import fmt17_rows
from .locus import Curve
from .serialize import fmt17

__all__ = ["render_svg"]

_JUMP_FACTOR = 10.0


def _split_on_jumps(xs: np.ndarray, ys: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges [start, stop) of a branch's pieces between jumps.

    The rule: each gap is math.hypot of two neighbouring points'
    differences, the median is the upper middle gap (sorted(gaps)[len(gaps)
    // 2], not np.median's mean of two), and a cut follows every gap over
    _JUMP_FACTOR times the median; none where the median is 0.

    np.hypot computes the gaps first, and its last bit can differ from
    math.hypot's by platform and SIMD loop. Both lie within 1 ulp of the
    true gap, so they differ by a relative d of at most 2 ulps, and so do
    the two medians, as an order statistic keeps a bound that holds gap by
    gap. Rounding ten times either median adds under 1 ulp. So a gap whose
    np.hypot lies outside (1 +- w) times the approximate cutoff, with
    w > 3d, falls on the same side of the exact cutoff, and where no gap
    lies inside that band the approximate cuts are the rule's. Otherwise,
    and where the median is within 2^24 of the subnormals or of the float
    range (the bound is relative), or not finite, math.hypot computes
    every gap.
    """
    if len(xs) < 2:
        return [(0, len(xs))]
    with np.errstate(over="ignore"):
        dx, dy = np.diff(xs), np.diff(ys)
        gaps = np.hypot(dx, dy)
    middle = len(gaps) // 2
    median = float(np.partition(gaps, middle)[middle])
    if 2.0**-998 < median < 2.0**1000:
        # w = 2^-47, 32 ulps
        cutoff = _JUMP_FACTOR * median
        over = np.flatnonzero(gaps > cutoff * (1.0 - 2.0**-47))
        if (gaps[over] > cutoff * (1.0 + 2.0**-47)).all():
            return _pieces(over, len(xs))
    gaps = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(gaps))
    median = float(np.partition(gaps, middle)[middle])
    if not median > 0.0:
        return [(0, len(xs))]
    return _pieces(np.flatnonzero(gaps > _JUMP_FACTOR * median), len(xs))


def _pieces(jumps: np.ndarray, count: int) -> list[tuple[int, int]]:
    """[start, stop) ranges of count points, split after each jump gap."""
    bounds = [0, *(jumps + 1).tolist(), count]
    return list(zip(bounds, bounds[1:]))


def render_svg(curve: Curve) -> str:
    """SVG document text for the sampled curve, 800 x 600 pixels.

    Raises GeometryError for an empty curve, and for one whose frame,
    padded by 5%, does not fit in float64.
    """
    if not len(curve):
        raise GeometryError("cannot render an empty curve")
    x_lo, x_hi = float(curve.x.min()), float(curve.x.max())
    y_lo, y_hi = min(0.0, float(curve.y.min())), float(curve.y.max())
    pad_x = 0.05 * (x_hi - x_lo) or 0.05
    pad_y = 0.05 * (y_hi - y_lo) or 0.05
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    width, height = x_hi - x_lo, y_hi - y_lo
    if not max(width, height) < math.inf:
        raise GeometryError(
            f"the SVG frame of the curve does not fit in float64: x from {float(curve.x.min())!r} to "
            f"{float(curve.x.max())!r} and y from 0.0 to {float(curve.y.max())!r}, padded by 5%, "
            f"span {width!r} by {height!r}"
        )
    stroke = fmt17(0.006 * max(width, height))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" '
        f'viewBox="{fmt17(x_lo)} {fmt17(-y_hi)} {fmt17(width)} {fmt17(height)}">',
        '<g transform="scale(1,-1)">',
        f'<line x1="{fmt17(x_lo)}" y1="0" x2="{fmt17(x_hi)}" y2="0" '
        f'stroke="#888888" stroke-width="{stroke}"/>',
    ]
    # each rank's rows in one run, gathered rank by rank rather than by a
    # sort or np.unique: numpy's sort would map more of its library into
    # memory than the whole curve takes
    branches = [np.flatnonzero(curve.rank == rank) for rank in range(int(curve.rank.max()) + 1)]
    order = np.concatenate(branches)
    xs, ys = curve.x[order], curve.y[order]
    # the whole curve as "x,y " rows in one pass; ends holds the offset of
    # each row's closing " ", so rows i to j - 1 are text[begin : ends[j - 1]],
    # without that last " ", where begin is ends[i - 1] + 1, or 0 for i = 0
    text = fmt17_rows((xs, ys), (",", " "))
    ends = np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8) == ord(" "))
    first = 0
    for branch in branches:
        last = first + len(branch)
        for start, stop in _split_on_jumps(xs[first:last], ys[first:last]):
            if stop - start < 2:
                continue
            begin = ends[first + start - 1] + 1 if first + start else 0
            points = text[begin : ends[first + stop - 1]]
            lines.append(f'<polyline fill="none" stroke="#1f4e9c" stroke-width="{stroke}" points="{points}"/>')
        first = last
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

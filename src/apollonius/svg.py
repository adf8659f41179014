"""Deterministic SVG emission for sampled locus curves.

Output is a plain polyline plot in mathematical coordinates (y up, done
with a flip transform), with the boundary axis y = 0 drawn and the
viewBox fitted to the samples with a 5% margin. Each root rank of the
curve is one branch, and a branch breaks wherever consecutive samples
jump more than ten times its median spacing, so hyperbola gaps and
lemniscate nodes do not get bridged by chords. All numbers are printed
as %.17g; bytes are identical across runs for identical input.
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
    """Index ranges [start, stop) of a branch's pieces between jumps."""
    if len(xs) < 2:
        return [(0, len(xs))]
    # math.hypot, not np.hypot, whose rounding differs on some pairs; and
    # the upper middle gap, not np.median's mean of the two middle ones
    gaps = np.fromiter(map(math.hypot, np.diff(xs).tolist(), np.diff(ys).tolist()), float, len(xs) - 1)
    middle = len(gaps) // 2
    median = np.partition(gaps, middle)[middle]
    if not median > 0.0:
        return [(0, len(xs))]
    cuts = (np.flatnonzero(gaps > _JUMP_FACTOR * median) + 1).tolist()
    bounds = [0, *cuts, len(xs)]
    return list(zip(bounds, bounds[1:]))


def render_svg(curve: Curve) -> str:
    """SVG document text for the sampled curve, 800 x 600 pixels."""
    if not len(curve):
        raise GeometryError("cannot render an empty curve")
    x_lo, x_hi = float(curve.x.min()), float(curve.x.max())
    y_lo, y_hi = min(0.0, float(curve.y.min())), float(curve.y.max())
    pad_x = 0.05 * (x_hi - x_lo) or 0.05
    pad_y = 0.05 * (y_hi - y_lo) or 0.05
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    width, height = x_hi - x_lo, y_hi - y_lo
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
    # the whole curve as "x,y " rows in one pass; bounds holds -1 and the
    # offset of each row's closing " ", so rows i to j - 1 are
    # text[bounds[i] + 1 : bounds[j]], without that last " "
    text = fmt17_rows((xs, ys), (",", " "))
    bounds = np.flatnonzero(np.frombuffer(b" " + text.encode("ascii"), np.uint8) == ord(" ")) - 1
    first = 0
    for branch in branches:
        last = first + len(branch)
        for start, stop in _split_on_jumps(xs[first:last], ys[first:last]):
            if stop - start < 2:
                continue
            points = text[bounds[first + start] + 1 : bounds[first + stop]]
            lines.append(f'<polyline fill="none" stroke="#1f4e9c" stroke-width="{stroke}" points="{points}"/>')
        first = last
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

"""Reference copy of the per-point curve path, for byte comparison.

Before curves became columns, sample_curve built one HPoint and one
CurveSample per point, samples_to_csv formatted each number with fmt17,
and render_svg regrouped the samples into branches by a dict keyed on
theta. This module keeps that code unchanged, so tests can require the
column path to write the same CSV and SVG bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from apollonius.halfplane import GeometryError, HPoint
from apollonius.locus import TripleConfig, _solve_arrays, theta_grid
from apollonius.serialize import fmt17

_JUMP_FACTOR = 10.0


@dataclass(frozen=True)
class CurveSample:
    """One locus point in polar and Cartesian form."""

    theta: float
    r: float
    point: HPoint


def sample_curve(cfg: TripleConfig, n: int) -> list[CurveSample]:
    thetas = theta_grid(n)
    roots = _solve_arrays(cfg, thetas)
    samples: list[CurveSample] = []
    for i, theta in enumerate(thetas):
        for k in range(2):
            s = roots[i, k]
            if not np.isnan(s):
                r = math.sqrt(s)
                point = HPoint(r * math.cos(theta), r * math.sin(theta))
                samples.append(CurveSample(float(theta), r, point))
    return samples


def samples_to_csv(samples: list[CurveSample]) -> str:
    lines = ["theta,r,x,y"]
    for s in samples:
        lines.append(
            f"{fmt17(s.theta)},{fmt17(s.r)},{fmt17(s.point.x)},{fmt17(s.point.y)}"
        )
    return "\n".join(lines) + "\n"


def _branches(samples: list[CurveSample]) -> list[list[CurveSample]]:
    by_theta: dict[float, list[CurveSample]] = {}
    for s in samples:
        by_theta.setdefault(s.theta, []).append(s)
    ranked: dict[int, list[CurveSample]] = {}
    for theta in sorted(by_theta):
        group = sorted(by_theta[theta], key=lambda s: s.r)
        for rank, s in enumerate(group):
            ranked.setdefault(rank, []).append(s)
    return [ranked[rank] for rank in sorted(ranked)]


def _split_on_jumps(branch: list[CurveSample]) -> list[list[CurveSample]]:
    if len(branch) < 2:
        return [branch]
    gaps = [
        math.hypot(q.point.x - p.point.x, q.point.y - p.point.y)
        for p, q in zip(branch, branch[1:])
    ]
    median = sorted(gaps)[len(gaps) // 2]
    cutoff = _JUMP_FACTOR * median
    pieces: list[list[CurveSample]] = [[branch[0]]]
    for gap, sample in zip(gaps, branch[1:]):
        if median > 0.0 and gap > cutoff:
            pieces.append([])
        pieces[-1].append(sample)
    return pieces


def render_svg(samples: list[CurveSample]) -> str:
    if not samples:
        raise GeometryError("cannot render an empty sample list")
    xs = [s.point.x for s in samples]
    ys = [s.point.y for s in samples]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    pad_x = 0.05 * (x_hi - x_lo) or 0.05
    pad_y = 0.05 * (y_hi - y_lo) or 0.05
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    width, height = x_hi - x_lo, y_hi - y_lo
    stroke = 0.006 * max(width, height)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" '
        f'viewBox="{fmt17(x_lo)} {fmt17(-y_hi)} {fmt17(width)} {fmt17(height)}">',
        '<g transform="scale(1,-1)">',
        f'<line x1="{fmt17(x_lo)}" y1="0" x2="{fmt17(x_hi)}" y2="0" '
        f'stroke="#888888" stroke-width="{fmt17(stroke)}"/>',
    ]
    for branch in _branches(samples):
        for piece in _split_on_jumps(branch):
            if len(piece) < 2:
                continue
            points = " ".join(f"{fmt17(s.point.x)},{fmt17(s.point.y)}" for s in piece)
            lines.append(
                f'<polyline fill="none" stroke="#1f4e9c" '
                f'stroke-width="{fmt17(stroke)}" points="{points}"/>'
            )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

#!/usr/bin/env python3
"""Gallery of the seven locus regimes for heights a=35, c=5.

Sweeps the middle height b across the three mean boundaries, classifies
each configuration, samples the curve, checks the equal-angle property
at every sampled point, and writes one SVG per regime to demo_output/.
"""

import math
from pathlib import Path

from apollonius import (
    AxisPoint,
    HPoint,
    TripleConfig,
    classify,
    coefficients,
    equal_angle_residual,
    render_svg,
    sample_curve,
)

A, C = 35.0, 5.0

# the three boundary values of b
Q = math.sqrt((A * A + C * C) / 2)   # quadratic mean: 25
G = math.sqrt(A * C)                 # geometric mean: sqrt(175)
H = math.sqrt(2 * A * A * C * C / (A * A + C * C))  # harmonic-quadratic: 7

MIDDLES = [30.0, Q, 20.0, G, 10.0, H, 6.0]

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

print(f"boundaries for a={A:g}, c={C:g}:  H={H:g}  <  G={G:.6f}  <  Q={Q:g}")
print()
print(f"{'b':>10}  {'class':<30} {'samples':>7}  {'worst angle residual':>20}")
print("-" * 74)

for b in MIDDLES:
    cfg = TripleConfig(A, b, C)
    regime = classify(cfg)
    curve = sample_curve(cfg, 512)
    axis = (AxisPoint(A), AxisPoint(b), AxisPoint(C))
    worst = max(
        abs(equal_angle_residual(HPoint(x, y), *axis).value)
        for x, y in zip(curve.x.tolist(), curve.y.tolist())
    )
    name = out_dir / f"locus_b_{b:.4g}.svg"
    name.write_text(render_svg(curve))
    print(f"{b:>10.4f}  {regime.value:<30} {len(curve):>7}  {worst:>20.3e}")

q = coefficients(TripleConfig(A, Q, C))
print()
print(f"on the quadratic boundary the leading coefficient vanishes: alpha = {q.alpha:g}")
q = coefficients(TripleConfig(A, H, C))
print(f"on the harmonic boundary the constant term vanishes:        gamma = {q.gamma:g}")
print(f"\nSVG plots written to {out_dir}/")

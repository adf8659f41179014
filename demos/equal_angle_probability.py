#!/usr/bin/env python3
"""Geometric probability of an equal-angle witness for random points.

Two interior points drop uniformly on a fixed segment (Euclidean case)
or log-uniformly between two fixed heights (hyperbolic case, where the
invariant measure on a vertical line is dy/y). The script compares
Monte Carlo estimates against the exact closed forms, sweeps the
hyperbolic endpoint ratio, and runs the calibration experiment for the
reference constant 0.4201514924.
"""

from apollonius import (
    HyperProbSetup,
    calibrate_ratio,
    estimate_pe,
    estimate_ph,
    pe_quadrature,
    ph_reference_constant,
    ph_quadrature,
)

print("Euclidean case: success region reduces to b(1+3c) < 4c, giving")
print("P = 2 * integral_0^1 (4c/(1+3c) - c) dc = (15 - 16 ln 2)/9")
print()
print(f"  closed form : {pe_quadrature():.12f}")
for n in (10**4, 10**5, 10**6, 10**7):
    est = estimate_pe(n, seed=1)
    sigmas = abs(est.mean - pe_quadrature()) / est.stderr
    print(f"  n={n:>9,}: mean {est.mean:.6f}  stderr {est.stderr:.2e}  ({sigmas:.2f} sigma off)")

print()
print("hyperbolic case: the answer depends on the endpoint ratio a/d")
print()
print(f"  {'ratio':>8}  {'quadrature':>12}  {'Monte Carlo (n=10^6)':>22}")
for ratio in (1.1, 1.5, 2.0, 2.17765045, 5.0, 10.0, 32.0, 100.0):
    setup = HyperProbSetup(ratio)
    quad_value = ph_quadrature(setup)
    est = estimate_ph(10**6, seed=1, setup=setup)
    print(f"  {ratio:>8.4g}  {quad_value:>12.8f}  {est.mean:>14.6f} +- {est.stderr:.1e}")

print()
target = 0.4201514924
print(f"calibration: which ratio reproduces the reference value {target}?")
found = calibrate_ratio(target, bracket=(1.01, 1000.0))
if found is None:
    print("  no ratio in (1.01, 1000) reproduces it")
else:
    print(f"  ratio a/d = {found:.9f}  (note: not 2, and not 32)")
    print(f"  check: quadrature at that ratio = {ph_quadrature(HyperProbSetup(found)):.12f}")
print(f"  formula value (2*sqrt5*ln(2+sqrt5)-5)/(5 ln 2) = {ph_reference_constant():.12f}")
print()
print("the probability is invariant under scaling both endpoints, and tends")
print(f"to the Euclidean value {pe_quadrature():.6f} as the ratio tends to 1:")
for ratio in (1.001, 1.0001):
    print(f"  ratio {ratio}: {ph_quadrature(HyperProbSetup(ratio)):.9f}")

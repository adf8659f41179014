#!/usr/bin/env python3
"""Integer height triples realizing the three boundary curve shapes.

Each boundary regime corresponds to a Diophantine condition, and each
condition has a two-parameter integer family. The script generates
members, verifies the identities in exact arithmetic, and classifies
the normalized triples back through the locus machinery. It exits 1
if an identity fails or a triple lands in the wrong regime.
"""

import sys

from apollonius import (
    FamilyKind,
    LocusClass,
    TripleConfig,
    classify,
    geometric_family,
    normalize_triple,
    pythagorean_family,
    quadratic_form_family,
    verify_identity,
)

checks = []


def check(ok: bool) -> bool:
    checks.append(ok)
    return ok


print("semicircle boundary, b^2 = ac: take a = k p^2, b = k p q, c = k q^2")
for p, q, k in ((2, 1, 1), (3, 1, 5), (7, 4, 2)):
    t = geometric_family(p, q, k)
    print(f"  (p={p}, q={q}, k={k}) -> {t.a}, {t.b}, {t.c}   verified={check(verify_identity(t, FamilyKind.GEOMETRIC_MEAN))}")

print()
print("hyperbola boundary, 2b^2 = a^2 + c^2: Pythagorean parametrization")
for m, n in ((2, 1), (3, 2), (5, 2)):
    t = pythagorean_family(m, n)
    print(f"  (m={m}, n={n}) -> {t.a}, {t.b}, {t.c}   2*{t.b}^2 = {t.a}^2 + {t.c}^2 is {check(verify_identity(t, FamilyKind.QUADRATIC_MEAN))}")

print()
print("lemniscate boundary, 2a^2c^2 = b^2(a^2 + c^2): products of the")
print("quadratic forms u = 46m^2+24mn+n^2, w = 74m^2+10mn+n^2, s = 94m^2+4mn-n^2,")
print("which satisfy 2w^2 = u^2 + s^2 identically:")
for m, n in ((1, 0), (1, 1), (2, -3)):
    u = 46 * m * m + 24 * m * n + n * n
    w = 74 * m * m + 10 * m * n + n * n
    s = 94 * m * m + 4 * m * n - n * n
    t = quadratic_form_family(m, n)
    print(f"  (m={m}, n={n}): u={u}, w={w}, s={s}; 2w^2 - u^2 - s^2 = {2*w*w - u*u - s*s}")
    print(f"      triple {t.a}, {t.b}, {t.c}   verified={check(verify_identity(t, FamilyKind.HARMONIC_QUADRATIC))}")

print()
print("normalized triples classify to the expected boundary regimes:")
cases = [
    (pythagorean_family(2, 1), LocusClass.QUADRATIC_HYPERBOLA),
    (geometric_family(2, 1), LocusClass.GEOMETRIC_CIRCLE),
    (quadratic_form_family(1, 1), LocusClass.HARMONIC_LEMNISCATE),
]
for raw, expected in cases:
    t = normalize_triple(raw)
    got = classify(TripleConfig(t.a, t.b, t.c))
    marker = "ok" if check(got is expected) else "MISMATCH"
    print(f"  ({t.a}, {t.b}, {t.c}) -> {got.value:<22} [{marker}]")

print()
print("identity check over the full grid m, n in [-50, 50]:")
grid_start = len(checks)
for m in range(-50, 51):
    for n in range(-50, 51):
        if (m, n) == (0, 0):
            continue
        check(verify_identity(pythagorean_family(m, n), FamilyKind.QUADRATIC_MEAN))
        check(verify_identity(quadratic_form_family(m, n), FamilyKind.HARMONIC_QUADRATIC))
print(f"  {2 * (101 * 101 - 1)} identities checked, {checks[grid_start:].count(False)} failures")
sys.exit(0 if all(checks) else 1)

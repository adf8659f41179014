"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s, and in the
captured output on failure). Run the whole gate with

    pytest tests/test_acceptance.py -v -s
"""

import functools
import math
import time

from apollonius.diophantine import (
    FamilyKind,
    geometric_family,
    normalize_triple,
    pythagorean_family,
    quadratic_form_family,
    verify_identity,
)
from apollonius.fourpoint import (
    FourConfig,
    Geometry,
    cross_ratio_euclid,
    cross_ratio_hyper,
    exists_euclid,
    exists_hyper,
    find_witness_hyper,
)
from apollonius.halfplane import AxisPoint, GeometryError, HPoint, equal_angle_residual
from apollonius.locus import AxisCircle, LocusClass, TripleConfig, classify, euclidean_locus, sample_curve
from apollonius.probability import (
    HyperProbSetup,
    calibrate_ratio,
    estimate_pe,
    estimate_ph,
    pe_quadrature,
    ph_quadrature,
)
from apollonius.rng import SampleStream

from _scalar_sampler import hyper_indicator_stream, sample_config_hyper, scaled

SEVEN_REGIME_MIDDLES = [30.0, 25.0, 20.0, math.sqrt(175.0), 10.0, 7.0, 6.0]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {description}")
                raise
            print(f"criterion {number} PASS: {description}")

        return wrapper

    return decorate


@criterion(1, "equal-angle oracle holds on 256 samples in all seven regimes")
def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    configs = [TripleConfig(35.0, b, 5.0) for b in SEVEN_REGIME_MIDDLES]
    configs.append(TripleConfig(4.0, 2.0, 1.0))
    for cfg in configs:
        a, b, c = AxisPoint(cfg.a), AxisPoint(cfg.b), AxisPoint(cfg.c)
        curve = sample_curve(cfg, 256)
        assert len(curve), cfg
        for theta, x, y in zip(curve.theta.tolist(), curve.x.tolist(), curve.y.tolist()):
            residual = equal_angle_residual(HPoint(x, y), a, b, c).value
            assert abs(residual) <= 1e-9, (cfg, theta, residual)
    assert time.perf_counter() - started < 5.0


@criterion(2, "boundary regimes satisfy their polar identities")
def test_criterion_2_special_case_identities():
    for cfg in (TripleConfig(35.0, math.sqrt(175.0), 5.0), TripleConfig(4.0, 2.0, 1.0)):
        for r in sample_curve(cfg, 256).r.tolist():
            assert abs(r - cfg.b) <= 1e-12 * cfg.b

    cfg = TripleConfig(35.0, 25.0, 5.0)
    curve = sample_curve(cfg, 256)
    for r, theta in zip(curve.r.tolist(), curve.theta.tolist()):
        assert abs(r**2 * math.cos(2 * theta) + cfg.b**2) <= 1e-9 * r**2

    cfg = TripleConfig(35.0, 7.0, 5.0)
    curve = sample_curve(cfg, 256)
    for r, theta in zip(curve.r.tolist(), curve.theta.tolist()):
        assert abs(r**2 + cfg.b**2 * math.cos(2 * theta)) <= 1e-9 * cfg.b**2


@criterion(3, "Euclidean baseline circle and its 2:1 distance ratio")
def test_criterion_3_euclidean_baseline():
    locus = euclidean_locus(4.0, 2.0, 1.0)
    assert isinstance(locus, AxisCircle)
    assert abs(locus.center_y) <= 1e-12
    assert abs(locus.radius - 2.0) <= 1e-12
    for k in range(64):
        t = 2.0 * math.pi * (k + 0.5) / 64.0
        x = locus.radius * math.cos(t)
        y = locus.center_y + locus.radius * math.sin(t)
        ratio = math.sqrt(x * x + (y - 4.0) ** 2) / math.sqrt(x * x + (y - 1.0) ** 2)
        assert abs(ratio - 2.0) <= 1e-12


@criterion(4, "P_e: quadrature matches closed form; 1e7-sample estimate within 4 sigma")
def test_criterion_4_pe():
    started = time.perf_counter()
    closed = (15.0 - 16.0 * math.log(2.0)) / 9.0
    assert abs(pe_quadrature() - closed) <= 1e-8
    estimate = estimate_pe(10_000_000, seed=1)
    assert abs(estimate.mean - pe_quadrature()) <= 4.0 * estimate.stderr
    assert time.perf_counter() - started < 60.0


@criterion(5, "P_h: scale invariance, estimator agreement, ratio calibration")
def test_criterion_5_ph_calibration():
    # the kernel's indicator stream is the library's existence test on the
    # sampled configs, also under joint scaling of all four heights
    setup = HyperProbSetup(2.0)
    stream = hyper_indicator_stream(200_000, seed=1, ratio=2.0).tolist()
    for i, indicator in enumerate(stream):
        cfg = sample_config_hyper(SampleStream(1, i), setup)
        for scale in (4.0, 0.25, 1024.0):
            assert exists_hyper(scaled(cfg, scale)) == indicator, (i, scale)

    for ratio in (1.5, 2.0, 10.0, 32.0):
        setup = HyperProbSetup(ratio)
        estimate = estimate_ph(1_000_000, seed=1, setup=setup)
        reference = ph_quadrature(setup)
        assert abs(estimate.mean - reference) <= 4.0 * estimate.stderr, (ratio, estimate, reference)

    target = 0.4201514924  # the printed ten-digit constant
    found = calibrate_ratio(target, bracket=(1.01, 1000.0))
    if found is None:
        print("calibration report: no ratio in (1.01, 1000) reproduces "
              f"{target} to 1e-6; the printed constant does not arise from "
              "this sampling model at any tested endpoint ratio")
        raise AssertionError("calibration found no ratio; verdict recorded above")
    achieved = ph_quadrature(HyperProbSetup(found))
    assert abs(achieved - target) <= 1e-6
    print(f"calibration report: endpoint ratio a/d = {found:.9f} reproduces the "
          f"printed constant {target} (quadrature gives {achieved:.12f}); "
          "the commonly guessed ratios 2 and 32 do not")


@criterion(6, "cross-ratio boundary values and strict existence threshold")
def test_criterion_6_cross_ratio_boundaries():
    assert cross_ratio_euclid(FourConfig(3, 2, 1, 0, Geometry.EUCLIDEAN)) == 3.0
    for q in (1.1, 2.0, 5.0):
        cfg = FourConfig(q**3, q**2, q, 1.0, Geometry.HYPERBOLIC)
        expected = q * q + 1.0 + 1.0 / (q * q)
        assert abs(cross_ratio_hyper(cfg) - expected) <= 1e-12 * expected
        assert not exists_hyper(cfg)
    assert not exists_euclid(FourConfig(3, 2, 1, 0, Geometry.EUCLIDEAN))
    assert not exists_euclid(FourConfig(4, 3, 2, 1, Geometry.EUCLIDEAN))  # also exactly 3
    assert not exists_hyper(FourConfig(40, 20, 10, 9, Geometry.HYPERBOLIC))  # above 3


@criterion(7, "witness search: found under CR 2.9, absent above CR 3.1, in time")
def test_criterion_7_witness_search():
    started = time.perf_counter()
    low, high = [], []
    index = 0
    while len(low) < 100 or len(high) < 100:
        stream = SampleStream(424242, index)
        index += 1
        assert index < 100_000
        heights = sorted((math.exp(4.0 * stream.next_float()) for _ in range(4)), reverse=True)
        if len(set(heights)) < 4:
            continue
        cfg = FourConfig(*heights, Geometry.HYPERBOLIC)
        cr = cross_ratio_hyper(cfg)
        if cr < 2.9 and len(low) < 100:
            low.append(cfg)
        elif cr > 3.1 and len(high) < 100:
            high.append(cfg)
    for cfg in low:
        witness = find_witness_hyper(cfg)
        assert witness is not None, cfg
        assert max(abs(r) for r in witness.residuals) <= 1e-8, cfg
    for cfg in high:
        assert find_witness_hyper(cfg) is None, cfg
    assert time.perf_counter() - started < 30.0


@criterion(8, "Diophantine identities exact on [-50,50]^2 and boundary classification")
def test_criterion_8_diophantine():
    for m in range(-50, 51):
        for n in range(-50, 51):
            if (m, n) == (0, 0):
                continue
            assert verify_identity(pythagorean_family(m, n), FamilyKind.QUADRATIC_MEAN)
            assert verify_identity(quadratic_form_family(m, n), FamilyKind.HARMONIC_QUADRATIC)

    checked = 0
    for m in range(-50, 51):
        for n in range(-50, 51):
            if (m, n) == (0, 0):
                continue
            for family, expected in (
                (pythagorean_family, LocusClass.QUADRATIC_HYPERBOLA),
                (quadratic_form_family, LocusClass.HARMONIC_LEMNISCATE),
            ):
                try:
                    t = normalize_triple(family(m, n))
                except GeometryError:
                    continue  # repeated heights: not a valid locus config
                assert classify(TripleConfig(t.a, t.b, t.c)) == expected
                checked += 1
    for p, q, k in ((2, 1, 1), (5, 3, 2), (9, 4, 7)):
        t = normalize_triple(geometric_family(p, q, k))
        assert classify(TripleConfig(t.a, t.b, t.c)) == LocusClass.GEOMETRIC_CIRCLE
        checked += 1
    assert checked > 10_000


@criterion(9, "Monte Carlo JSON byte-identical across runs and thread counts")
def test_criterion_9_determinism(tmp_path):
    from apollonius.cli import run

    outputs = []
    for name, extra in (("a", []), ("b", []), ("t1", ["--threads", "1"]), ("t8", ["--threads", "8"])):
        path = tmp_path / f"pe_{name}.json"
        assert run(["prob", "pe", "-n", "200000", "--seed", "5", *extra, "-o", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert len(set(outputs)) == 1

    outputs = []
    for name, extra in (("t1", ["--threads", "1"]), ("t8", ["--threads", "8"])):
        path = tmp_path / f"ph_{name}.json"
        argv = ["prob", "ph", "-n", "200000", "--seed", "5", "--ratio", "2", *extra]
        assert run(argv + ["-o", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert len(set(outputs)) == 1

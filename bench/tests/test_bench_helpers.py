"""Tests of the benchmark's own helpers (run: python -m pytest bench/tests).

They cover the statistics, the span store and its self-time arithmetic,
the input generators, and the reference computations the workload
checks rely on; none of them imports apollonius.
"""

import cmath
import math
import statistics
import sys
import threading
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402
from spans import ContextExecutor, Spans, Tracer  # noqa: E402
from worker import CAL_REF_S, NoTracer, Phase, calibration_s, run_rounds  # noqa: E402
from workloads import Op, gallery_triples, scipy_import_us, strata, witness_configs  # noqa: E402


# ------------------------------------------------------------------ statistics


def test_quartiles_are_those_of_statistics_quantiles():
    values = [19.0, 10.0, 12.0, 11.0, 14.0, 13.0, 16.0, 15.0, 18.0, 17.0]
    assert ref.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert ref.quartiles(values)[1] == statistics.median(values)


def test_phase_scales_by_calibration_then_takes_medians():
    phase = Phase(3)
    ref_s = CAL_REF_S
    phase.calibrate(ref_s)
    # each group of ops lies between two kernel times, whose mean scales it
    for times, calibration in (((5, 9, 7), ref_s), ((12, 30, 24), 3 * ref_s), ((6, 12, 7), ref_s)):
        for t in times:
            phase.record(t)
        phase.calibrate(calibration)
    assert phase.rounds == 3 and phase.attempted == 9
    assert phase.scaled_ns == pytest.approx([5, 9, 7, 6, 15, 12, 3, 6, 3.5])
    assert phase.per_op_ns() == pytest.approx([5, 9, 7])
    assert phase.op_p50_ms() == pytest.approx(7 / 1e6)
    assert phase.ops_per_s() == pytest.approx(3e9 / 21)
    assert phase.wall_p50_ms() == 9 / 1e6


def test_known_fault_fails_only_the_op_marked_for_it():
    class Fault(Exception):
        pass

    def raise_fault(tracer):
        raise Fault("no witness found")

    workload = types.SimpleNamespace(
        round=[
            Op("fixed", raise_fault, None, known_fault=True),
            Op("below", raise_fault, None),
            Op("log", lambda tracer: 1, lambda out: None),
        ],
        expected_failures=(Fault,),
    )
    phase = run_rounds(workload, NoTracer)
    assert (phase.attempted, phase.failed) == (3, 1)
    assert phase.errors == ["below: Fault('no witness found')"]


def test_calibration_kernel_takes_time():
    assert 0.0 < calibration_s() < 1.0


# ----------------------------------------------------------------------- spans


def _table(rows):
    return Spans(np.array(rows, dtype=np.int64).reshape(-1, 6), ["parent", "child", "grandchild"])


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = _table([
        (0, 0, 0, 100, -1, 0),
        (1, 1, 10, 30, 0, 0),
        (2, 1, 20, 50, 0, 0),  # overlaps the first child (threads)
        (3, 1, 60, 70, 0, 0),
        (4, 2, 61, 69, 3, 0),  # grandchild: not the parent's child
        (5, 0, 200, 210, -1, 0),  # a second parent without children
    ])
    assert spans.total_ns("parent") == 110
    assert spans.self_ns("parent") == 110 - (40 + 10)
    assert spans.self_ns("child") == (20 + 30 + 10) - 8
    assert spans.child_count("parent", "child") == 3
    assert spans.self_ns("missing") == 0 and spans.count("missing") == 0


def test_concat_keeps_parents_apart_and_save_load_round_trips(tmp_path):
    a = _table([(0, 0, 0, 10, -1, 0), (1, 1, 2, 5, 0, 7)])
    b = Spans(np.array([[0, 0, 0, 4, -1, 0], [1, 1, 1, 2, 0, 3]], dtype=np.int64), ["child", "parent"])
    merged = Spans.concat([a, b])
    assert merged.count("child") == 2 and merged.work("child") == 7
    assert merged.child_count("child", "parent") == 1
    assert merged.child_count("parent", "child") == 1
    path = tmp_path / "spans.npz"
    merged.save(path)
    loaded = Spans.load(path)
    assert loaded.names == merged.names
    assert np.array_equal(loaded.table, merged.table)


def test_wrappers_record_nesting_work_and_restore():
    mod = types.ModuleType("fake")
    mod.g = lambda n: list(range(n))
    mod.f = lambda n: len(mod.g(n))
    original_f, original_g = mod.f, mod.g
    tracer = Tracer()
    tracer.wrap(mod, "g", "locus.sample_curve")  # a name whose work is len(result)
    tracer.wrap(mod, "f", "outer")
    assert mod.f(5) == 5
    tracer.restore()
    assert mod.f is original_f and mod.g is original_g
    spans = tracer.spans()
    assert spans.count("outer") == 1 and spans.count("locus.sample_curve") == 1
    assert spans.child_count("outer", "locus.sample_curve") == 1
    assert spans.work("locus.sample_curve") == 5
    assert 0 <= spans.self_ns("outer") <= spans.total_ns("outer")


def test_context_executor_keeps_the_submitting_span_as_parent():
    tracer = Tracer()
    seen = []

    def task(k):
        seen.append(threading.get_ident())
        with tracer.span("shard"):
            return k

    with tracer.span("estimate"):
        with ContextExecutor(max_workers=2) as pool:
            assert sorted(pool.map(task, range(4))) == [0, 1, 2, 3]
    spans = tracer.spans()
    assert spans.child_count("estimate", "shard") == 4
    assert threading.get_ident() not in seen


def test_scipy_import_time_counts_top_level_scipy_entries_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       scipy.linalg",
        "import time:        40 |         45 |     scipy.integrate",
        "import time:         7 |          7 |     numpy",
        "import time:       100 |        182 |   apollonius.probability",
        "import time:         3 |        185 | apollonius",
    ])
    assert scipy_import_us(log) == 30 + 45


# ------------------------------------------------------------------- reference


@pytest.mark.parametrize("ratio", [1.0 + 1e-3, 1.0 + 1e-6, 1.0 + 1e-9])
def test_ph_integral_tends_to_the_euclidean_value(ratio):
    gap = abs(ref.ph_integral(ratio) - ref.PE_EXACT)
    assert gap <= 2.0 * math.log(ratio) + 1e-13


def test_ph_integral_known_values_and_monotone():
    assert ref.ph_integral(2.0) == pytest.approx(0.422994, abs=1e-6)
    assert ref.ph_integral(2.177650452) == pytest.approx(0.4201514924, abs=1e-9)
    values = [ref.ph_integral(r) for r in (1.5, 2.0, 8.0, 1e3, 1e8)]
    assert all(x > y for x, y in zip(values, values[1:]))
    with pytest.raises(ValueError):
        ref.ph_integral(1.0)


@pytest.mark.parametrize("x,y,h1,h2", [(1.0, 1.0, 3.0, 2.0), (0.5, -2.0, 4.0, -1.0), (3.0, 0.1, 1.0, 0.5), (-2.0, 5.0, 9.0, 0.2)])
def test_euclid_angle_matches_plain_atan2(x, y, h1, h2):
    a1 = math.atan2(h1 - y, -x)
    a2 = math.atan2(h2 - y, -x)
    diff = abs(a1 - a2)
    expected = min(diff, 2.0 * math.pi - diff)
    assert ref.euclid_angle(x, y, h1, h2) == pytest.approx(expected, abs=1e-15)


def _center_construction_angle(x, y, h1, h2):
    # the geodesic through (x, y) and (0, h) is centred at (m, 0); its
    # tangent toward the axis point is the radius vector turned a quarter
    def tangent(h):
        m = (x * x + y * y - h * h) / (2.0 * x)
        return complex(-y, x - m)

    return abs(cmath.phase(tangent(h1) / tangent(h2)))


@pytest.mark.parametrize("x,y,h1,h2", [(1.0, 1.0, 3.0, 2.0), (0.3, 2.0, 5.0, 0.1), (4.0, 0.5, 2.0, 1.0), (1e6, 3e6, 7e6, 2e6)])
def test_hyper_angle_matches_the_boundary_centre_construction(x, y, h1, h2):
    assert ref.hyper_angle(x, y, h1, h2) == pytest.approx(_center_construction_angle(x, y, h1, h2), abs=1e-12)


def test_hyper_angle_is_euclidean_in_the_small_and_scale_invariant():
    x, y = 1e-7, 1.0
    h1, h2 = 1.0 + 2e-7, 1.0 - 1e-7
    assert ref.hyper_angle(x, y, h1, h2) == pytest.approx(ref.euclid_angle(x, y, h1, h2), abs=1e-6)
    assert ref.hyper_angle(0.0, 1.0, 2.0, 0.5) == pytest.approx(math.pi)
    base = ref.hyper_angle(0.7, 1.3, 4.0, 0.9)
    assert ref.hyper_angle(0.7e5, 1.3e5, 4.0e5, 0.9e5) == pytest.approx(base, abs=1e-13)


def test_cross_ratio_and_boundary():
    assert ref.cross_ratio_exact(4, 2, 1, 0, squared=False) == 2
    assert ref.cross_ratio_exact(3, 2, 1, 0, squared=False) == 3
    assert ref.cross_ratio_exact(2, 1.5, 1, 0.5, squared=True) == Fraction(25, 7)
    a, c, d = 10.0, 5.0, 1.0
    b = math.sqrt(ref.boundary_b2(a, c, d))
    assert float(ref.cross_ratio_exact(a, b, c, d, squared=True)) == pytest.approx(3.0, rel=1e-14)


def test_quartic_residual_on_and_off_the_geometric_circle():
    a, c = 4.0, 1.0
    b = 2.0  # b^2 = ac: the locus is the semicircle r = b
    t = np.linspace(0.1, 3.0, 50)
    on = ref.quartic_relative_residual(a, b, c, b * np.cos(t), b * np.sin(t))
    off = ref.quartic_relative_residual(a, b, c, 1.1 * b * np.cos(t), 1.1 * b * np.sin(t))
    assert on.max() <= 1e-15
    assert off.min() >= 1e-2


def test_regimes_and_family_identities_in_integers():
    assert ref.regime_exact(35, 25, 5) == "QuadraticHyperbola"
    assert ref.regime_exact(4, 2, 1) == "GeometricCircle"
    assert ref.regime_exact(6956, 4324, 3404) == "HarmonicLemniscate"
    assert ref.regime_exact(10, 9, 1) == "AboveQuadratic"
    assert ref.regime_exact(10, 2, 1) == "BetweenHarmonicAndGeometric"
    assert ref.regime_exact(100, 6, 5) == "BelowHarmonic"
    assert ref.family_identity("QuadraticMean", 7, -5, 1)
    assert ref.family_identity("GeometricMean", 9, 6, 4)
    assert ref.family_identity("HarmonicQuadratic", 6956, 4324, 3404)
    assert not ref.family_identity("GeometricMean", 9, 5, 4)


# ------------------------------------------------------------------ generators


def test_strata_put_one_value_in_each_stratum():
    import random

    values = strata(random.Random(3), 10, 2.0, 4.0)
    assert sorted(int((v - 2.0) / 0.2) for v in values) == list(range(10))


def test_witness_configs_are_seeded_and_lie_in_their_domain():
    configs = witness_configs(5)
    assert configs == witness_configs(5) and configs != witness_configs(6)
    kinds = [k for k, _ in configs]
    assert (kinds.count("log"), kinds.count("below"), kinds.count("above"), kinds.count("fixed")) == (256, 640, 127, 1)
    for kind, h in configs:
        if kind == "fixed":
            continue
        assert min(math.log(h[i] / h[i + 1]) for i in range(3)) >= 0.01
        if kind in ("below", "above"):
            assert (ref.cross_ratio_exact(*h, squared=True) < 3) == (kind == "below")
            distance = abs(h[1] * h[1] / ref.boundary_b2(h[0], h[2], h[3]) - 1.0)
            assert 0.99e-9 <= distance <= 1.01e-2


def test_gallery_triples_follow_the_means():
    for gallery in gallery_triples(11, 4):
        assert [r for r, _ in gallery] == list(ref.REGIMES)
        for regime, (a, b, c) in gallery:
            assert a > b > c > 0
            q2, g2, h2 = 0.5 * (a * a + c * c), a * c, 2 * a * a * c * c / (a * a + c * c)
            b2 = b * b
            expected = {
                "AboveQuadratic": b2 > q2,
                "QuadraticHyperbola": b2 == pytest.approx(q2, rel=1e-14),
                "BetweenGeometricAndQuadratic": g2 < b2 < q2,
                "GeometricCircle": b2 == pytest.approx(g2, rel=1e-14),
                "BetweenHarmonicAndGeometric": h2 < b2 < g2,
                "HarmonicLemniscate": b2 == pytest.approx(h2, rel=1e-14),
                "BelowHarmonic": b2 < h2,
            }
            assert expected[regime]

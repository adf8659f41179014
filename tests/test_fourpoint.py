"""Cross-ratio existence tests and witness search, both geometries."""

import copy
import math
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest

from apollonius.fourpoint import (
    EXISTENCE_THRESHOLD,
    EUCLID_WITNESS_TOL,
    HYPER_WITNESS_TOL,
    FourConfig,
    Geometry,
    Witness,
    WitnessSearchError,
    cross_ratio_euclid,
    cross_ratio_hyper,
    exists_euclid,
    exists_hyper,
    find_witness_euclid,
    find_witness_hyper,
)
import apollonius.fourpoint as fp
from apollonius.halfplane import AxisPoint, GeometryError, HPoint, OrderingError, equal_angle_residual
from apollonius.locus import euclidean_equal_angle_residual
from apollonius.rng import SampleStream

from _exact_residuals import (
    HYPER_CROSS_RATIO_BOUND,
    exact_cross_ratio_euclid,
    exact_cross_ratio_hyper,
    exact_residuals,
    hyper_cross_ratio_error,
)
from _scalar_sampler import scaled, shifted


def euclid(a, b, c, d):
    return FourConfig(a, b, c, d, Geometry.EUCLIDEAN)


def hyper(a, b, c, d):
    return FourConfig(a, b, c, d, Geometry.HYPERBOLIC)


class TestFourConfig:
    def test_ordering_enforced(self):
        with pytest.raises(OrderingError):
            euclid(1, 2, 3, 4)
        with pytest.raises(OrderingError):
            hyper(4, 4, 2, 1)

    def test_hyper_needs_positive_heights(self):
        with pytest.raises(GeometryError):
            hyper(4, 2, 1, 0)
        euclid(4, 2, 1, 0)  # fine with the Euclidean tag
        euclid(1, 0.5, -0.5, -1)

    def test_geometry_tag_checked_by_ops(self):
        # the tag is checked first: also on heights that collapse in the
        # witness search's unit copy (the first SPANNING config)
        ops = (
            (Geometry.EUCLIDEAN, (cross_ratio_euclid, exists_euclid, find_witness_euclid)),
            (Geometry.HYPERBOLIC, (cross_ratio_hyper, exists_hyper, find_witness_hyper)),
        )
        for expected, functions in ops:
            wrong = Geometry.HYPERBOLIC if expected is Geometry.EUCLIDEAN else Geometry.EUCLIDEAN
            for heights in ((4, 3, 2, 1), (2.0**1000, 1.0, 2.0**-1000, 2.0**-1020)):
                cfg = FourConfig(*heights, wrong)
                for function in functions:
                    with pytest.raises(GeometryError) as caught:
                        function(cfg)
                    assert type(caught.value) is GeometryError, function.__name__
                    assert str(caught.value) == f"operation expects a {expected.value}-tagged config"


# heights that collapse in a copy divided by the power of two of the
# largest, where a copy built at construction once raised OrderingError or
# GeometryError naming the copy's values: each config is decided exactly,
# with a cross-ratio within the filter's bound. The witness searches divide
# by the power of two of the middle pair, where both copies hold these
# heights, and the half-plane judge by that of the point
SPANNING = [
    ((2.0**1000, 1.0, 2.0**-1000, 2.0**-1020), Geometry.HYPERBOLIC),
    ((2.0**1000, 1.0, 2.0**-1000, 2.0**-1020), Geometry.EUCLIDEAN),
    ((2.0**1023, 2.0**-30, 2.0**-40, 2.0**-1000), Geometry.HYPERBOLIC),
    ((1.0, 0.5, 0.25, 5e-324), Geometry.HYPERBOLIC),
    # a witness exists: cross-ratios 1.0000000000000002 and 1.6666666666666672
    ((1e300, 3e-300, 2e-300, 1e-300), Geometry.EUCLIDEAN),
    ((1e300, 3e-300, 2e-300, 1e-300), Geometry.HYPERBOLIC),
]


@pytest.mark.parametrize("heights,geometry", SPANNING, ids=[f"{c[0]}-{c[1].value}" for c in SPANNING])
def test_heights_collapsing_in_the_unit_copy_are_decided_exactly(heights, geometry):
    cfg = FourConfig(*heights, geometry)
    if geometry is Geometry.EUCLIDEAN:
        exact, cross_ratio, exists, find = exact_cross_ratio_euclid, cross_ratio_euclid, exists_euclid, find_witness_euclid
    else:
        exact, cross_ratio, exists, find = exact_cross_ratio_hyper, cross_ratio_hyper, exists_hyper, find_witness_hyper
    exact, value = exact(heights), cross_ratio(cfg)
    # inf past the float range, else within the float filter's 16 roundings
    if exact >= 2**1024:
        assert value == math.inf
    else:
        assert abs(Fraction(value) - exact) <= exact * Fraction(16, 2**53)
    assert exists(cfg) == (exact < 3)
    if exact >= 3:
        assert find(cfg) is None
        return
    # each search once named the span of a copy scaled by a, the Euclidean
    # one in its own copy and the hyperbolic one in its judge's
    w = find(cfg)
    if geometry is Geometry.EUCLIDEAN:
        assert max(map(abs, exact_residuals(w.x, w.y, heights, flat=True))) <= EUCLID_WITNESS_TOL
    else:
        assert max(map(abs, exact_residuals(w.x, w.y, heights))) <= HYPER_WITNESS_TOL


def test_heights_whose_squares_underflow_are_decided_without_them():
    # both configs were OrderingErrors naming the squares of a copy scaled by
    # a, (0.25, 0.0, 0.0, 0.0) and (0.5625, 0.25, 0.0, 0.0). Gaps of one
    # subnormal step: the exact cross-ratio is 5/3, and the flat gaps
    # (c-d)(c+d) and (b-c)(b+c), both 0 in that copy, are normal in the copy
    # scaled by b, which a overflows (a ratio of 0). The witness x, scaled
    # back, is the smallest subnormal, which stands for no judged point
    cfg = hyper(0.5, 1.5e-323, 1e-323, 5e-324)
    assert cross_ratio_hyper(cfg) == 5 / 3 and exists_hyper(cfg)
    subnormal = "(cross-ratio 1.66667 < 3) but the witness x = 4.94066e-324 lies in the subnormal range (below 2.22507e-308)"
    with pytest.raises(WitnessSearchError, match=re.escape(subnormal) + "$"):
        find_witness_hyper(cfg)
    # the exact cross-ratio is about 1e645, past the float range
    cfg = hyper(1.5, 1.0, 1.5e-323, 1e-323)
    assert cross_ratio_hyper(cfg) == math.inf and not exists_hyper(cfg)
    assert find_witness_hyper(cfg) is None


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_witness_in_the_subnormals_is_a_search_failure(geometry):
    # (10, 6, 5, 1) times 2^-1070 is exact and lies below 2^-1024, where the
    # factor 2^-k of the unit copy overflowed (a bare OverflowError). The
    # gaps of these heights are exact, so the cross-ratio and the existence
    # test agree with the unscaled config's bit for bit; scaled back, the
    # witness x is a subnormal with a few bits left, which stands for no
    # judged point
    base = FourConfig(10.0, 6.0, 5.0, 1.0, geometry)
    cfg = scaled(base, 2.0**-1070)
    if geometry is Geometry.EUCLIDEAN:
        cross_ratio, exists, find = cross_ratio_euclid, exists_euclid, find_witness_euclid
    else:
        cross_ratio, exists, find = cross_ratio_hyper, exists_hyper, find_witness_hyper
    assert cross_ratio(cfg) == cross_ratio(base)
    assert exists(cfg) and find(base) is not None
    with pytest.raises(WitnessSearchError, match=r"x = \S+ lies in the subnormal range \(below 2\.22507e-308\)$"):
        find(cfg)


def _outcome(cfg):
    """Existence and witness (or the error's type and text) in cfg's geometry, as bits."""
    if cfg.geometry is Geometry.EUCLIDEAN:
        exists, find = exists_euclid, find_witness_euclid
    else:
        exists, find = exists_hyper, find_witness_hyper
    try:
        w = find(cfg)
    except WitnessSearchError as e:
        return exists(cfg), type(e), str(e)
    return exists(cfg), None if w is None else (w.x.hex(), w.y.hex(), w.residuals[0].hex(), w.residuals[1].hex())


class TestConfigCopies:
    # the (10, 6, 5, 1) witness config, a below-threshold Euclidean one and
    # one with no witness, in both geometries
    CONFIGS = [
        FourConfig(*heights, geometry)
        for heights in ((10.0, 6.0, 5.0, 1.0), (7.0, 3.0, 2.5, -4.0), (4.0, 3.0, 2.0, 1.0))
        for geometry in Geometry
        if geometry is Geometry.EUCLIDEAN or heights[3] > 0
    ]

    def test_holds_only_the_fields(self):
        # no unit copy or other derived value is stored
        cfg = hyper(10, 6, 5, 1)
        assert cfg.__dict__ == {"a": 10.0, "b": 6.0, "c": 5.0, "d": 1.0, "geometry": Geometry.HYPERBOLIC}
        assert repr(cfg) == "FourConfig(a=10.0, b=6.0, c=5.0, d=1.0, geometry=<Geometry.HYPERBOLIC: 'hyper'>)"
        assert hash(cfg) == hash((10.0, 6.0, 5.0, 1.0, Geometry.HYPERBOLIC))

    def test_pickles_hold_only_the_fields(self):
        cfg = hyper(10, 6, 5, 1)
        assert cfg.__reduce_ex__(2)[2] == {"a": 10.0, "b": 6.0, "c": 5.0, "d": 1.0, "geometry": Geometry.HYPERBOLIC}

    @pytest.mark.parametrize("cfg", CONFIGS, ids=repr)
    def test_copies_and_pickles_search_like_a_fresh_config(self, cfg):
        fresh = _outcome(FourConfig(cfg.a, cfg.b, cfg.c, cfg.d, cfg.geometry))
        for clone in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert _outcome(clone) == fresh

    @pytest.mark.parametrize("cfg", CONFIGS, ids=repr)
    @pytest.mark.parametrize("factor", [2.0**-600, 0.1, 3.0, 2.0**600])
    def test_scaled_searches_like_a_fresh_config(self, cfg, factor):
        heights = (cfg.a * factor, cfg.b * factor, cfg.c * factor, cfg.d * factor)
        assert _outcome(scaled(cfg, factor)) == _outcome(FourConfig(*heights, cfg.geometry))

    @pytest.mark.parametrize("cfg", [c for c in CONFIGS if c.geometry is Geometry.EUCLIDEAN], ids=repr)
    @pytest.mark.parametrize("offset", [-1e3, -0.1, 2.5, 1e6])
    def test_shifted_searches_like_a_fresh_config(self, cfg, offset):
        heights = (cfg.a + offset, cfg.b + offset, cfg.c + offset, cfg.d + offset)
        assert _outcome(shifted(cfg, offset)) == _outcome(euclid(*heights))


class TestCrossRatioEuclid:
    def test_equally_spaced_is_exactly_three(self):
        assert cross_ratio_euclid(euclid(3, 2, 1, 0)) == 3.0

    def test_4_2_1_0(self):
        assert cross_ratio_euclid(euclid(4, 2, 1, 0)) == 2.0

    def test_quarters(self):
        assert cross_ratio_euclid(euclid(1, 0.75, 0.25, 0)) == 8.0

    def test_translation_invariance(self):
        cfg = euclid(4, 2, 1, 0)
        base = cross_ratio_euclid(cfg)
        for t in (-3.0, 0.5, 10.0):
            assert cross_ratio_euclid(shifted(cfg, t)) == pytest.approx(base, rel=1e-12)

    def test_heights_whose_gaps_overflow(self):
        # a - d overflows: the cross-ratio and the witness are taken on the
        # heights divided by a power of two, so they scale exactly
        cfg = euclid(1.7e308, 1e307, -1e307, -1.7e308)
        small = scaled(cfg, 2.0**-4)
        assert cross_ratio_euclid(cfg) == cross_ratio_euclid(small) == 0.265625
        w, base = find_witness_euclid(cfg), find_witness_euclid(small)
        assert (w.x, w.y) == (math.ldexp(base.x, 4), math.ldexp(base.y, 4))


class TestCrossRatioHyper:
    @pytest.mark.parametrize("q", [1.1, 2.0, 5.0])
    def test_geometric_progression_formula(self, q):
        cfg = hyper(q**3, q**2, q, 1.0)
        expected = q * q + 1.0 + 1.0 / (q * q)
        assert cross_ratio_hyper(cfg) == pytest.approx(expected, rel=1e-12)
        assert expected > EXISTENCE_THRESHOLD  # equal hyperbolic spacing never admits a witness

    def test_near_squeeze(self):
        cfg = hyper(4, 2, 1, 0.9)
        expected = (4 - 1) * (16 - 0.81) / ((16 - 4) * (1 - 0.81))
        assert cross_ratio_hyper(cfg) == pytest.approx(expected, rel=1e-12)
        assert not exists_hyper(cfg)

    def test_within_its_rounding_bound_of_the_exact_value(self):
        for heights in ((10, 6, 5, 1), (7.3, 2.2, 1.9, 0.4), (100, 99, 98, 97)):
            error = hyper_cross_ratio_error(cross_ratio_hyper(hyper(*heights)), heights)
            assert error <= HYPER_CROSS_RATIO_BOUND, heights
        assert cross_ratio_hyper(hyper(10, 6, 5, 1)) == 1089 / 1536  # exactly

    def test_scale_invariance(self):
        cfg = hyper(10, 6, 5, 1)
        base = cross_ratio_hyper(cfg)
        for lam in (0.25, 3.0, 1e3):
            assert cross_ratio_hyper(scaled(cfg, lam)) == pytest.approx(base, rel=1e-12)
        # powers of two scale every height exactly, also where squaring the
        # scaled heights would overflow or underflow
        for k in (2, 500, 1000, -500, -1000):
            assert cross_ratio_hyper(scaled(cfg, 2.0**k)) == base

    def test_heights_whose_squares_overflow(self):
        cfg = hyper(1e160, 1e159, 1e158, 1e157)
        assert cross_ratio_hyper(cfg) == pytest.approx(100 + 1 + 1 / 100, rel=1e-12)
        assert not exists_hyper(cfg)
        assert exists_hyper(hyper(10e160, 6e160, 5e160, 1e160))


class TestExistence:
    def test_euclid_boundary_excluded(self):
        assert not exists_euclid(euclid(3, 2, 1, 0))

    def test_euclid_examples(self):
        assert exists_euclid(euclid(4, 2, 1, 0))
        assert exists_euclid(euclid(1, 0.6, 0.4, 0))

    def test_hyper_examples(self):
        assert not exists_hyper(hyper(1.1**3, 1.1**2, 1.1, 1.0))
        assert not exists_hyper(hyper(10, 9.99, 2, 1))
        assert exists_hyper(hyper(10, 6, 5, 1))


class TestFindWitnessEuclid:
    def test_4_2_1_0_intersection(self):
        w = find_witness_euclid(euclid(4, 2, 1, 0))
        assert w is not None
        assert w.x == pytest.approx(math.sqrt(3), rel=1e-14, abs=0.0)
        assert w.y == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert max(abs(r) for r in w.residuals) <= EUCLID_WITNESS_TOL

    def test_equally_spaced_none(self):
        assert find_witness_euclid(euclid(3, 2, 1, 0)) is None

    def test_generic_config(self):
        w = find_witness_euclid(euclid(1, 0.6, 0.4, 0))
        assert w is not None
        assert max(abs(r) for r in w.residuals) <= EUCLID_WITNESS_TOL
        # all three angles really are equal at the witness
        r1 = euclidean_equal_angle_residual((w.x, w.y), 1, 0.6, 0.4)
        r2 = euclidean_equal_angle_residual((w.x, w.y), 0.6, 0.4, 0)
        assert abs(r1) <= EUCLID_WITNESS_TOL and abs(r2) <= EUCLID_WITNESS_TOL

    def test_symmetric_config_witness_on_boundary_height(self):
        # heights symmetric about zero put the witness at y = 0 exactly
        w = find_witness_euclid(euclid(1, 0.1, -0.1, -1))
        assert w is not None
        assert w.y == pytest.approx(0.0, abs=1e-14)

    def test_nearly_equal_middle_heights(self):
        # the middle gap is 7e-5 of the heights; the closed form takes it
        # and the outer gaps as plain differences, so no precision is lost
        cfg = euclid(97.69371832121351, 13.90997359821749, 13.909904708056459, -41.78246606246812)
        w = find_witness_euclid(cfg)
        assert w is not None
        assert max(abs(r) for r in w.residuals) <= EUCLID_WITNESS_TOL

    def test_unresolvable_middle_pair_is_a_search_failure(self):
        # b - c = 1e-10: the loci meet where the float residuals are 7.7e-6,
        # over the Witness bound, so this is a search failure, not bad input
        cfg = euclid(20.0, 10.0000000001, 10.0, 0.0)
        assert exists_euclid(cfg)
        with pytest.raises(WitnessSearchError, match=r"cross-ratio 2e-11 < 3.*residual 7\.692e-06"):
            find_witness_euclid(cfg)

    def test_tangent_loci_below_three_get_a_witness(self):
        # the exact cross-ratio is 3 - 4.2e-16, where float circle loci met
        # at x^2 = 0, on the axis; the closed form's x is positive below 3
        heights = (1.0, 0.18352734933459244, 0.05320530938513346, 0.0)
        a, b, c, d = map(Fraction, heights)
        assert (b - c) * (a - d) < 3 * (a - b) * (c - d)
        cfg = euclid(*heights)
        assert exists_euclid(cfg)
        w = find_witness_euclid(cfg)
        assert w.x > 0
        assert max(abs(r) for r in w.residuals) <= EUCLID_WITNESS_TOL

    def test_float_yes_exact_no_has_no_witness(self):
        # nearly equal gaps: the float cross-ratio reads below 3 while the
        # exact one is above it; this exited 3 with "existence holds
        # (cross-ratio 3 < 3) but the divisor ... rounds to 0"
        heights = (0.75, 0.24999999999999806, -0.25000000000000194, -0.75)
        cfg = euclid(*heights)
        assert ((heights[1] - heights[2]) / (heights[0] - heights[1])) / ((heights[2] - heights[3]) / 1.5) < 3
        assert exact_cross_ratio_euclid(heights) > 3
        assert cross_ratio_euclid(cfg) == 3.0 and not exists_euclid(cfg)
        assert find_witness_euclid(cfg) is None

    @pytest.mark.parametrize(
        "heights, margin, point",
        [
            # p = q = 1 in floats: the divisor 2(1 - pq) read 0, and is the
            # margin itself, so the witness lies far out, at 2 / sqrt(m)
            ((3.0, 2.0, 1.0, -5e-324), "9.9e-324", (6.362424904190393e161, 2.0)),
            # p = 2, q = 1/3: the divisor is 2/3, and the witness is
            # (6 sqrt(m), 12), next to the axis
            ((9.0, 8.0, 6.0, -5e-324), "4.9e-324", (1.3336552496910463e-161, 12.0)),
        ],
        ids=["far", "near-axis"],
    )
    def test_margin_below_the_floats_gives_a_witness(self, heights, margin, point):
        # the exact cross-ratio is 3 - m with m subnormal (it rounds to 3):
        # this named "the margin 3 - cr leaves the closed form's product
        # below the normal floats", after a rescaling that once recursed
        # without end. m folds its exponent into the square root
        cfg = euclid(*heights)
        assert 0 < 3 - exact_cross_ratio_euclid(heights) < Fraction(sys.float_info.min)
        assert cross_ratio_euclid(cfg) == 3.0 and exists_euclid(cfg)
        w = find_witness_euclid(cfg)
        assert (w.x, w.y) == point
        assert exact_residuals(w.x, w.y, heights, flat=True) == w.residuals == (0.0, 0.0)
        # a failure there names the margin, not "cross-ratio 3 < 3"
        error = fp._search_error(fp._ratio_euclid(cfg), "cause")
        assert str(error) == f"existence holds (cross-ratio 3 - {margin} < 3) but cause"

    def test_divisor_below_zero_is_a_search_failure(self):
        # e = m - (p-1)(q-1) = 2(1 - pq) is positive for the exact ratios of
        # a config with m > 0; ratios that contradict m leave it below 0
        cause = "(cross-ratio 2.25 < 3) but the divisor m - (p-1)(q-1) rounds to 0 or below"
        with pytest.raises(WitnessSearchError, match=re.escape(cause) + "$"):
            fp._flat_witness(0.0, 1.0, 0.5, 0.5, (2.25, 0.1))

    def test_witness_far_below_one_is_found(self):
        # the product of gaps under the square root, about 4e-400, underflowed
        # to 0; the closed form scales the gaps first and finds the witness
        # (1e-200, 1e-200). Angles from products of coordinate differences
        # near 1e-200 underflowed there: the residual check read 7.854e-01
        # and failed. The judge now takes differences of ray directions
        heights = (1.0, 2e-200, 1e-200, 0.0)
        w = find_witness_euclid(euclid(*heights))
        assert (w.x, w.y) == pytest.approx((1e-200, 1e-200), rel=1e-15, abs=0.0)
        exact = exact_residuals(w.x, w.y, heights, flat=True)
        assert max(map(abs, exact)) <= 1e-15
        assert w.residuals == pytest.approx(exact, abs=1e-15)

    def test_gaps_of_a_subnormal_step_are_a_search_failure(self):
        # gaps of one subnormal step: the closed-form point (5e-324, 1e-323)
        # meets the loci exactly, and the judge, from differences of ray
        # directions, reads the exact residuals (0, 0) there; products of
        # coordinates read 7.854e-01 and named a miss. The search fails
        # because that x is a subnormal, which stands for no judged point
        cfg = euclid(0.5, 1.5e-323, 1e-323, 5e-324)
        assert exists_euclid(cfg)
        assert exact_residuals(5e-324, 1e-323, (0.5, 1.5e-323, 1e-323, 5e-324), flat=True) == (0.0, 0.0)
        assert euclidean_equal_angle_residual((5e-324, 1e-323), 0.5, 1.5e-323, 1e-323) == 0.0
        assert euclidean_equal_angle_residual((5e-324, 1e-323), 1.5e-323, 1e-323, 5e-324) == 0.0
        with pytest.raises(WitnessSearchError, match=r"x = 4\.94066e-324 lies in the subnormal range \(below 2\.22507e-308\)$"):
            find_witness_euclid(cfg)

    def test_witness_past_the_float_range_is_a_search_failure(self):
        # the witness of the unit copy, times 2^1024, overflows: this raised a
        # bare OverflowError from math.ldexp (exit 1 at the CLI)
        cfg = euclid(1.7649241525847572e308, 1.3295112602789705e308, 7.698612121399148e307, 0.0)
        assert exists_euclid(cfg)
        with pytest.raises(WitnessSearchError, match=r"\(cross-ratio 2\.94665 < 3\) but the witness scaled by 2\^1024 lies past the float range$"):
            find_witness_euclid(cfg)

    def test_witness_over_the_euclidean_contract_is_a_search_failure(self):
        # the closed form's point has residual 1.98e-10: inside the shared
        # 1e-8 bound that Witness checks, outside the Euclidean contract
        cfg = euclid(62.18405961560278, 24.55849812734293, 24.558498082097245, -36.229585738926005)
        assert exists_euclid(cfg)
        with pytest.raises(WitnessSearchError, match=r"residual 1\.984e-10 > 1e-10$"):
            find_witness_euclid(cfg)

    def test_power_of_two_scaling_scales_the_witness_exactly(self):
        # heights past ~1e154 once overflowed the loci's products of gaps;
        # the closed form works on heights scaled into [-1, 1)
        base = find_witness_euclid(euclid(4, 2, 1, 0))
        for k in (512, 600, -600):
            w = find_witness_euclid(scaled(euclid(4, 2, 1, 0), 2.0**k))
            assert (w.x, w.y) == (math.ldexp(base.x, k), math.ldexp(base.y, k))
            assert w.residuals == base.residuals

    def test_random_sweep_residuals_meet_contract(self):
        worst = 0.0
        for index in range(800):
            stream = SampleStream(99, index)
            hs = sorted((200.0 * stream.next_float() - 100.0 for _ in range(4)), reverse=True)
            if len(set(hs)) < 4:
                continue
            cfg = euclid(*hs)
            w = find_witness_euclid(cfg)
            assert (w is not None) == exists_euclid(cfg) or abs(cross_ratio_euclid(cfg) - 3) < 1e-9
            if w is not None:
                worst = max(worst, max(abs(r) for r in w.residuals))
        assert worst <= EUCLID_WITNESS_TOL


class TestFindWitnessHyper:
    def test_10_6_5_1(self):
        w = find_witness_hyper(hyper(10, 6, 5, 1))
        assert w is not None
        assert w.x > 0
        assert max(abs(r) for r in w.residuals) <= HYPER_WITNESS_TOL

    def test_progression_none(self):
        assert find_witness_hyper(hyper(8, 4, 2, 1)) is None

    def test_witness_verified_by_oracle(self):
        cfg = hyper(10, 6, 5, 1)
        w = find_witness_hyper(cfg)
        p = HPoint(w.x, w.y)
        upper = equal_angle_residual(p, AxisPoint(cfg.a), AxisPoint(cfg.b), AxisPoint(cfg.c))
        lower = equal_angle_residual(p, AxisPoint(cfg.b), AxisPoint(cfg.c), AxisPoint(cfg.d))
        assert abs(upper.value) <= HYPER_WITNESS_TOL
        assert abs(lower.value) <= HYPER_WITNESS_TOL

    def test_consistency_with_existence_on_random_configs(self):
        # seeded random draws; skip configs too close to the boundary
        found = missing = 0
        for index in range(200):
            stream = SampleStream(20250809, index)
            heights = sorted((math.exp(4.0 * stream.next_float()) for _ in range(4)), reverse=True)
            if len(set(heights)) < 4:
                continue
            cfg = hyper(*heights)
            cr = cross_ratio_hyper(cfg)
            if abs(cr - EXISTENCE_THRESHOLD) <= 1e-6:
                continue
            w = find_witness_hyper(cfg)
            if cr < EXISTENCE_THRESHOLD:
                assert w is not None, (cfg, cr)
                found += 1
            else:
                assert w is None, (cfg, cr)
                missing += 1
        assert found >= 20 and missing >= 20

    def test_witness_type_enforces_residual_bound(self):
        with pytest.raises(GeometryError):
            Witness(1.0, 1.0, (1e-3, 0.0))
        with pytest.raises(GeometryError):
            Witness(1.0, 1.0, (float("nan"), 0.0))
        # either residual, either sign; the bound itself passes
        for residuals in [(0.0, float("nan")), (0.0, -1e-3), (-2e-8, 0.0), (0.0, math.inf)]:
            with pytest.raises(GeometryError):
                Witness(1.0, 1.0, residuals)
        bound = fp.HYPER_WITNESS_TOL
        assert Witness(1.0, 1.0, (bound, -bound)).residuals == (bound, -bound)

    def test_library_witnesses_carry_residuals_within_their_contracts(self):
        # each search's residuals meet its own tolerance, at most Witness's
        # bound, so the bound never rejects a witness a search has accepted
        assert EUCLID_WITNESS_TOL <= HYPER_WITNESS_TOL
        rng = random.Random(18)
        found = 0
        for _ in range(300):
            a, b, c, d = sorted((rng.uniform(0.01, 10.0) for _ in range(4)), reverse=True)
            for find, cfg, tol in [
                (find_witness_euclid, euclid(a, b, c, d), EUCLID_WITNESS_TOL),
                (find_witness_hyper, hyper(a, b, c, d), HYPER_WITNESS_TOL),
            ]:
                w = find(cfg)
                if w is None:
                    continue
                found += 1
                assert type(w) is Witness
                assert max(abs(w.residuals[0]), abs(w.residuals[1])) <= tol, (cfg, w)
                assert Witness(w.x, w.y, w.residuals) == w
        assert found >= 100

    def test_failed_flat_witness_is_named_in_hyperbolic_terms(self, monkeypatch):
        def failing(b, ab, bc, cd, ratio):
            raise fp._search_error(ratio, "flat cause")

        monkeypatch.setattr(fp, "_flat_witness", failing)
        cross_ratio = cross_ratio_hyper(hyper(10, 6, 5, 1))
        with pytest.raises(WitnessSearchError) as info:
            find_witness_hyper(hyper(10, 6, 5, 1))
        assert str(info.value) == f"existence holds (cross-ratio {cross_ratio:.6g} < 3) but flat cause"

    def test_flat_point_off_the_locus_is_rejected_by_the_oracle(self, monkeypatch):
        # the hyperbolic path judges the mapped point with the half-plane
        # oracle alone: a flat point off both loci must not pass
        monkeypatch.setattr(fp, "_flat_witness", lambda b, ab, bc, cd, ratio: (1.0, b))
        with pytest.raises(WitnessSearchError, match=r"cross-ratio 0\.708984 < 3\) but the mapped witness has residuals"):
            find_witness_hyper(hyper(10, 6, 5, 1))

    @pytest.mark.parametrize(
        "heights",
        [
            # cross-ratio 2.07e-5, heights spanning 1e9
            (7561250845457.369, 26337281.46913603, 26337009.31360804, 6202.018550019891),
            # log(b/c) = 3e-4, b^2 placed 1e-8 below the boundary
            (1.2339707537668945, 0.6359836122736069, 0.635791331155316, 0.6357272047696744),
            # the witness sits 1e-13 of a from the line, below halfplane's absolute
            # vertical-geodesic floor unless the oracle is run at the witness's scale
            (36084826298.39752, 0.08318553155074583, 0.07584993393935308, 0.00608080723222641),
        ],
        ids=["tiny-cross-ratio", "near-coincident-middle-pair", "witness-far-below-a"],
    )
    def test_hard_configs_get_oracle_verified_witness(self, heights):
        cfg = hyper(*heights)
        assert exists_hyper(cfg)
        w = find_witness_hyper(cfg)
        assert w is not None and w.x > 0 and w.y > 0
        p = HPoint(w.x, w.y)
        a, b, c, d = (AxisPoint(h) for h in heights)
        assert abs(equal_angle_residual(p, a, b, c).value) <= HYPER_WITNESS_TOL
        assert abs(equal_angle_residual(p, b, c, d).value) <= HYPER_WITNESS_TOL

    def test_close_middle_heights_are_judged_exactly(self):
        # log(b/c) = 5.6e-10 puts the mapped point 4.8e-5 off the axis at
        # height 99284, where the center formula (x^2 + y^2 - h^2)/(2x)
        # cancels: it read residuals (7.6e-9, -7.4e-9) and passed the point,
        # whose residuals are 1.145e-7
        cfg = hyper(539558.9429617529, 99284.14192626122, 99284.14187113171, 12484.186985605676)
        assert exists_hyper(cfg)
        with pytest.raises(WitnessSearchError, match=r"residuals \(1\.145e-07, 1\.145e-07\)$"):
            find_witness_hyper(cfg)

    def test_close_middle_heights_meet_the_contract_exactly(self):
        # seeded log(b/c) in [1e-10, 1e-8): every witness returned is within
        # the contract by the exact rational residuals
        rng = random.Random(10)
        returned = 0
        for _ in range(200):
            d = math.exp(rng.uniform(-10.0, 10.0))
            c = d * math.exp(rng.uniform(0.1, 3.0))
            b = c * math.exp(10.0 ** rng.uniform(-10.0, -8.0))
            heights = (b * math.exp(rng.uniform(0.1, 3.0)), b, c, d)
            try:
                w = find_witness_hyper(hyper(*heights))
            except WitnessSearchError:
                continue
            returned += 1
            assert max(map(abs, exact_residuals(w.x, w.y, heights))) <= HYPER_WITNESS_TOL, heights
        assert returned >= 50

    @pytest.mark.parametrize("k", [80, 100, 150])
    def test_squared_gaps_beyond_one_float_scale(self, k):
        # the flat gaps (a-b)(a+b) and (c-d)(c+d) are ~10^(2k) apart, so
        # their product under the closed form's square root underflowed:
        # residual 2.9e-2 at k = 80, "x underflows to 0" beyond
        heights = (1.0, 1.2 * 10.0**-k, 10.0**-k, 10.0 ** -(k + 1))
        w = find_witness_hyper(hyper(*heights))
        assert max(map(abs, exact_residuals(w.x, w.y, heights))) <= 1e-15

    def test_unreachable_witness_is_a_search_failure(self):
        # b, c, d within 1e-10: the exact witness sits 3e-11 off their line,
        # and no float point near it has oracle residuals below 1.3e-7
        with pytest.raises(WitnessSearchError, match="cross-ratio"):
            find_witness_hyper(hyper(1.2840254166877414, 1.000000000095, 1.000000000025, 1.0))

    def test_power_of_two_scaling_scales_the_witness_exactly(self):
        base = find_witness_hyper(hyper(10, 6, 5, 1))
        for k in (-600, 530):
            # heights near 1e160 square past the float range; near 1e-180 to zero
            w = find_witness_hyper(scaled(hyper(10, 6, 5, 1), 2.0**k))
            assert (w.x, w.y) == (math.ldexp(base.x, k), math.ldexp(base.y, k))
            assert w.residuals == base.residuals

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
    def test_near_boundary_witness_approaches_axis(self, delta):
        # as the cross-ratio creeps up to 3 the witness escapes toward the
        # boundary axis
        R, c = 4.0, 2.0
        S, C = R * R, c * c
        b_hi = ((4 * S - 1) * C - 3 * S) / (S + 3 * C - 4)
        lo, hi = C * (1 + 1e-12), b_hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            cr = (mid - C) * (S - 1) / ((S - mid) * (C - 1))
            if cr <= 3 - delta:
                lo = mid
            else:
                hi = mid
        cfg = hyper(R, math.sqrt(0.5 * (lo + hi)), c, 1.0)
        assert 3 - 2 * delta < cross_ratio_hyper(cfg) < 3
        w = find_witness_hyper(cfg)
        assert w is not None
        assert max(abs(r) for r in w.residuals) <= HYPER_WITNESS_TOL
        assert w.y < 0.5  # low over the axis, hyperbolically far from the points

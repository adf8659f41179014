"""Property-based invariants across the geometry stack."""

import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import apollonius.fourpoint as fp
from apollonius._base import _flat_residuals, _unit_exponent
from apollonius.fourpoint import (
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
from apollonius.halfplane import (
    AngleResidual,
    AxisPoint,
    GeometryError,
    HPoint,
    OrderingError,
    equal_angle_residual,
)
from apollonius.locus import (
    LocusClass,
    TripleConfig,
    classify,
    coefficients,
    euclidean_equal_angle_residual,
    euclidean_locus,
    eval_quartic,
    sample_curve,
    samples_to_csv,
    solve_r2,
)
from apollonius.svg import _split_on_jumps, render_svg

import _object_path as object_path
import _witness_path as witness_path
from _exact_residuals import (
    HYPER_CROSS_RATIO_BOUND,
    exact_cross_ratio_euclid,
    exact_cross_ratio_hyper,
    exact_residuals,
    hyper_cross_ratio_error,
)
from _geodesics import Arc, VerticalRay, geodesic_through, hyp_distance, tangent_direction
from _scalar_sampler import scaled, shifted

finite_coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
height = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
_LARGEST = sys.float_info.max


@st.composite
def hpoints(draw):
    return HPoint(draw(finite_coord), draw(height))


@st.composite
def distinct_hpoint_pairs(draw):
    p = draw(hpoints())
    q = draw(hpoints())
    if math.hypot(p.x - q.x, p.y - q.y) < 1e-6:
        q = HPoint(q.x + 1.0, q.y)
    return p, q


@st.composite
def triples(draw):
    # multiplicative gaps keep the heights separated in relative terms;
    # nearly equal heights cancel catastrophically inside the quartic
    # coefficients themselves, which is a property of the formulas, not
    # of any particular evaluation (a dedicated test pins that regime)
    c = draw(st.floats(min_value=0.05, max_value=10.0))
    b = c * (1.0 + draw(st.floats(min_value=0.1, max_value=2.0)))
    a = b * (1.0 + draw(st.floats(min_value=0.1, max_value=2.0)))
    return TripleConfig(a, b, c)


@st.composite
def regime_triples(draw):
    # b in any of the seven regimes of (a, c): an open interval between
    # two means, or a mean itself
    c = draw(st.floats(min_value=0.05, max_value=10.0))
    a = c * math.exp(draw(st.floats(min_value=1e-3, max_value=4.0)))
    q = math.sqrt(0.5 * (a * a + c * c))
    g = math.sqrt(a * c)
    h = a * c * math.sqrt(2.0 / (a * a + c * c))
    f = draw(st.floats(min_value=0.01, max_value=0.99))
    middles = (q + (a - q) * f, q, g + (q - g) * f, g, h + (g - h) * f, h, c + (h - c) * f)
    b = middles[draw(st.integers(min_value=0, max_value=6))]
    assume(a > b > c)
    return a, b, c


@st.composite
def near_coincident_triples(draw):
    c = draw(st.floats(min_value=0.05, max_value=10.0))
    b = c * (1.0 + draw(st.floats(min_value=1e-9, max_value=1e-3)))
    a = b * (1.0 + draw(st.floats(min_value=1e-9, max_value=1e-3)))
    assume(a > b > c)
    return a, b, c


@st.composite
def curve_triples(draw):
    # scaling by a power of two is exact, so it moves only the exponents
    heights = draw(st.one_of(regime_triples(), near_coincident_triples()))
    scale = 2.0 ** draw(st.integers(min_value=-40, max_value=40))
    return TripleConfig(*(scale * h for h in heights))


@st.composite
def four_heights(draw):
    d = draw(st.floats(min_value=0.05, max_value=5.0))
    gaps = [draw(st.floats(min_value=0.05, max_value=5.0)) for _ in range(3)]
    c = d + gaps[0]
    b = c + gaps[1]
    a = b + gaps[2]
    return a, b, c, d


@st.composite
def log_uniform_heights(draw):
    # log(a/d) up to 30, the interior heights log-uniform in between
    log_d = draw(st.floats(min_value=-10.0, max_value=10.0))
    spread = draw(st.floats(min_value=0.1, max_value=30.0))
    u, v = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))), reverse=True)
    return tuple(math.exp(log_d + spread * t) for t in (1.0, u, v, 0.0))


@st.composite
def near_boundary_heights(draw, lowest=-12.0, highest=-9.0, squared=True, log_d=(-10.0, 10.0)):
    # b^2 placed 10^lowest to 10^highest (relative) below the squared-height
    # boundary B*, where (B - C)(A - D) = 3 (A - B)(C - D), so a witness
    # exists; with squared=False, b itself below the height boundary
    log_d = draw(st.floats(min_value=log_d[0], max_value=log_d[1]))
    spread = draw(st.floats(min_value=0.1, max_value=30.0))
    position = draw(st.floats(min_value=0.0, max_value=1.0))
    gap = 10.0 ** draw(st.floats(min_value=lowest, max_value=highest))
    a, c, d = (math.exp(log_d + spread * t) for t in (1.0, position, 0.0))
    A, C, D = (a * a, c * c, d * d) if squared else (a, c, d)
    boundary = (3.0 * A * (C - D) + C * (A - D)) / ((A - D) + 3.0 * (C - D))
    b = boundary * (1.0 - gap)
    return a, math.sqrt(b) if squared else b, c, d


@st.composite
def middle_pair_heights(draw):
    # log(b/c) from 1e-6 to 1e-2: the middle pair nearly coincides
    log_d = draw(st.floats(min_value=-10.0, max_value=10.0))
    spread = draw(st.floats(min_value=0.1, max_value=30.0))
    position = draw(st.floats(min_value=0.0, max_value=1.0))
    a, c, d = (math.exp(log_d + spread * t) for t in (1.0, position, 0.0))
    b = c * math.exp(10.0 ** draw(st.floats(min_value=-6.0, max_value=-2.0)))
    assume(a > b > c > d)
    return a, b, c, d


@st.composite
def witness_heights(draw):
    heights = draw(st.one_of(log_uniform_heights(), near_boundary_heights(-12.0, -2.0), middle_pair_heights()))
    scale = 2.0 ** draw(st.integers(min_value=-500, max_value=500))
    a, b, c, d = (scale * h for h in heights)
    assume(a > b > c > d)
    return a, b, c, d


class TestGeodesicProperties:
    @given(distinct_hpoint_pairs())
    # abscissas a subnormal apart: the arc center overflows
    @example((HPoint(0.0, 1.0), HPoint(2.225073858507203e-309, 2.0)))
    def test_endpoints_on_curve(self, pair):
        p, q = pair
        g = geodesic_through(p, q)
        for point in (p, q):
            if isinstance(g, VerticalRay):
                residual = abs(point.x - g.x0)
            else:
                residual = abs(math.hypot(point.x - g.center, point.y) - g.radius)
            assert residual <= 1e-12 * max(1.0, abs(point.x), point.y, getattr(g, "radius", 1.0))

    @given(distinct_hpoint_pairs())
    def test_symmetric_in_arguments(self, pair):
        p, q = pair
        g1, g2 = geodesic_through(p, q), geodesic_through(q, p)
        if isinstance(g1, Arc) and isinstance(g2, Arc):
            assert g1.center == pytest.approx(g2.center, rel=1e-9, abs=1e-9)
        else:
            assert type(g1) is type(g2)

    @given(distinct_hpoint_pairs())
    def test_distance_symmetry_and_positivity(self, pair):
        p, q = pair
        d = hyp_distance(p, q)
        assert d > 0
        assert hyp_distance(q, p) == d


class TestIsometryInvariance:
    @given(distinct_hpoint_pairs(), st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=60)
    def test_distance_under_scaling(self, pair, lam):
        p, q = pair
        base = hyp_distance(p, q)
        scaled = hyp_distance(HPoint(lam * p.x, lam * p.y), HPoint(lam * q.x, lam * q.y))
        assert scaled == pytest.approx(base, rel=1e-10, abs=1e-12)


    @given(triples(), st.floats(min_value=0.1, max_value=40.0), height, st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=60)
    def test_residual_under_scaling(self, cfg, x, y, lam):
        heights = (cfg.a, cfg.b, cfg.c)
        base = equal_angle_residual(HPoint(x, y), *map(AxisPoint, heights)).value
        scaled = equal_angle_residual(HPoint(lam * x, lam * y), *(AxisPoint(lam * h) for h in heights)).value
        assert scaled == pytest.approx(base, rel=1e-10, abs=1e-10)


class TestResidualProperties:
    @given(triples(), st.floats(min_value=0.1, max_value=40.0), height)
    @settings(max_examples=80)
    def test_mirror_symmetry_bitwise(self, cfg, x, y):
        a, b, c = AxisPoint(cfg.a), AxisPoint(cfg.b), AxisPoint(cfg.c)
        assert (
            equal_angle_residual(HPoint(-x, y), a, b, c).value
            == equal_angle_residual(HPoint(x, y), a, b, c).value
        )

    @given(
        st.lists(st.floats(min_value=0.05, max_value=100.0), min_size=4, max_size=4, unique=True),
        st.floats(min_value=-40.0, max_value=40.0),
        height,
    )
    @settings(max_examples=100)
    def test_angles_add_through_a_middle_height(self, heights, x, y):
        # each residual is angle(i p j) - angle(j p k); angles that add
        # through a middle height make r(abd) + r(acd) = 2 (r(abc) + r(bcd))
        assume(x != 0.0)
        p = HPoint(x, y)
        a, b, c, d = map(AxisPoint, sorted(heights, reverse=True))

        def r(*points):
            return equal_angle_residual(p, *points).value

        assert r(a, b, d) + r(a, c, d) == pytest.approx(2.0 * (r(a, b, c) + r(b, c, d)), abs=1e-13)

    @given(triples())
    @settings(max_examples=40)
    def test_samples_satisfy_oracle(self, cfg):
        a, b, c = AxisPoint(cfg.a), AxisPoint(cfg.b), AxisPoint(cfg.c)
        curve = sample_curve(cfg, 24)
        for x, y in zip(curve.x.tolist(), curve.y.tolist()):
            assert abs(equal_angle_residual(HPoint(x, y), a, b, c).value) <= 1e-9

    @pytest.mark.parametrize("heights", [(1.02, 1.01, 1.0), (1.0002, 1.0001, 1.0)])
    def test_oracle_survives_nearly_equal_heights(self, heights):
        # coefficient cancellation moves the sampled radii, but it moves
        # them along directions the angle predicate barely sees; the
        # oracle equivalence stays far inside 1e-9 even here
        cfg = TripleConfig(*heights)
        a, b, c = AxisPoint(cfg.a), AxisPoint(cfg.b), AxisPoint(cfg.c)
        curve = sample_curve(cfg, 64)
        assert len(curve)
        for x, y in zip(curve.x.tolist(), curve.y.tolist()):
            assert abs(equal_angle_residual(HPoint(x, y), a, b, c).value) <= 1e-11


class TestQuarticProperties:
    @given(triples(), st.floats(min_value=0.02, max_value=math.pi - 0.02))
    @settings(max_examples=100)
    def test_roots_satisfy_quartic(self, cfg, theta):
        q = coefficients(cfg)
        for s in solve_r2(cfg, theta):
            bound = 1e-9 * max(abs(q.alpha) * s * s, abs(q.gamma), 1.0)
            assert abs(eval_quartic(cfg, math.sqrt(s), theta)) <= bound

    @given(triples(), st.floats(min_value=0.02, max_value=math.pi - 0.02),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100)
    def test_homogeneity(self, cfg, theta, lam):
        base = solve_r2(cfg, theta)
        rescaled = solve_r2(scaled(cfg, lam), theta)
        assert len(base) == len(rescaled)
        for s, t in zip(base, rescaled):
            assert t == pytest.approx(lam * lam * s, rel=1e-11)

    @given(triples())
    @settings(max_examples=100)
    def test_b_is_always_on_the_locus(self, cfg):
        residual = eval_quartic(cfg, cfg.b, math.pi / 2)
        # error scales with the monomials that cancel, not with gamma
        a2, b2, c2 = cfg.a**2, cfg.b**2, cfg.c**2
        scale = 2 * b2**3 + 2 * b2 * a2 * c2 + b2 * b2 * (a2 + c2)
        assert abs(residual) <= 1e-14 * max(scale, 1.0)


def _reference_class(a, b, c, eps):
    """classify's rule in fractions.Fraction: boundaries from Q down, then the open regimes."""
    if all(h.is_integer() for h in (a, b, c)):
        eps = 0.0  # integral heights ignore eps
    a, b, c, eps = map(Fraction, (a, b, c, eps))
    b2 = b * b
    squared_means = ((a * a + c * c) / 2, a * c, 2 * a * a * c * c / (a * a + c * c))
    boundaries = (LocusClass.QUADRATIC_HYPERBOLA, LocusClass.GEOMETRIC_CIRCLE, LocusClass.HARMONIC_LEMNISCATE)
    for m2, boundary in zip(squared_means, boundaries):
        if abs(b2 - m2) <= eps * m2:
            return boundary
    above = (LocusClass.ABOVE_QUADRATIC, LocusClass.BETWEEN_GEOMETRIC_AND_QUADRATIC, LocusClass.BETWEEN_HARMONIC_AND_GEOMETRIC)
    for m2, regime in zip(squared_means, above):
        if b2 > m2:
            return regime
    return LocusClass.BELOW_HARMONIC


def _sqrt_to_float(x):
    """A positive Fraction's square root, within an ulp."""
    # x * 4^shift has about 128 bits before the point, so its integer
    # square root carries 64
    shift = (128 - x.numerator.bit_length() + x.denominator.bit_length()) // 2
    return math.ldexp(float(math.isqrt(math.floor(x * Fraction(4) ** shift))), -shift)


def _boundary_family(m, n):
    # integer triples on each boundary for m > n > 0, ordered and positive:
    # (A, B, C) with 2B^2 = A^2 + C^2 on Q, (AB, AC, BC) on H, since then
    # 2/(AC)^2 = 1/(AB)^2 + 1/(BC)^2, and (m^2, mn, n^2) on G
    A, B, C = m * m + 2 * m * n - n * n, m * m + n * n, abs(m * m - 2 * m * n - n * n)
    return ((A, B, C), (A * B, A * C, B * C), (m * m, m * n, n * n))


@st.composite
def classify_cases(draw):
    """Heights log-uniform over e^-700 ... e^700, b free, within 3 ulps of a mean, or on a boundary."""
    kind = draw(st.sampled_from(("free", "mean", "boundary")))
    if kind == "boundary":
        n = draw(st.integers(1, 200))
        heights = draw(st.sampled_from(_boundary_family(n + draw(st.integers(1, 200)), n)))
        # integers below 2^36, times a power of two that keeps them normal floats
        scale = 2.0 ** draw(st.integers(-1000, 980))
        a, b, c = (h * scale for h in heights)
    else:
        log_c = draw(st.floats(-700.0, 699.0))
        log_a = draw(st.floats(log_c + 1e-9, 700.0))
        a, c = math.exp(log_a), math.exp(log_c)
        if kind == "free":
            b = math.exp(draw(st.floats(log_c, log_a, exclude_min=True, exclude_max=True)))
        else:
            A, C = Fraction(a) ** 2, Fraction(c) ** 2
            b = _sqrt_to_float(draw(st.sampled_from(((A + C) / 2, Fraction(a) * Fraction(c), 2 * A * C / (A + C)))))
    steps = draw(st.integers(-3, 3)) if kind != "free" else 0
    for _ in range(abs(steps)):
        b = math.nextafter(b, math.copysign(math.inf, steps))
    assume(a > b > c > 0.0)
    return (a, b, c), draw(st.sampled_from((0.0, 1e-12, 1e-6)))


def _integral(cfg):
    return cfg.a.is_integer() and cfg.b.is_integer() and cfg.c.is_integer()


class TestClassifyProperties:
    @given(classify_cases())
    @settings(max_examples=600, deadline=None)
    def test_matches_the_rational_reference(self, case):
        heights, eps = case
        assert classify(TripleConfig(*heights), eps) == _reference_class(*heights, eps)

    @given(classify_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_power_of_two_scaling_keeps_the_class(self, case, data):
        # at eps = 0 the class never depends on the scale; at eps > 0 it
        # does not either where the triple stays integral, or not integral
        heights, eps = case
        cfg = TripleConfig(*heights)
        # keep every height a normal float, so that the scaling is exact
        lowest = max(-1022, -1021 - math.frexp(cfg.c)[1])
        highest = min(1023, 1024 - math.frexp(cfg.a)[1])
        rescaled = scaled(cfg, 2.0 ** data.draw(st.integers(lowest, highest)))
        assert classify(rescaled, 0.0) == classify(cfg, 0.0)
        if _integral(rescaled) == _integral(cfg):
            assert classify(rescaled, eps) == classify(cfg, eps)


class TestCurveColumns:
    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @given(curve_triples(), st.integers(min_value=1, max_value=200))
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_object_path(self, parity, cfg, half):
        n = 2 * half + parity
        samples, curve = object_path.sample_curve(cfg, n), sample_curve(cfg, n)
        assert len(curve) == len(samples)
        assert samples_to_csv(curve) == object_path.samples_to_csv(samples)
        if samples:
            assert render_svg(curve) == object_path.render_svg(samples)


def _frozen_pieces(xs, ys):
    """[start, stop) ranges of _object_path's split: math.hypot gaps, the upper middle one as the median."""
    branch = [SimpleNamespace(point=SimpleNamespace(x=x, y=y)) for x, y in zip(xs, ys)]
    bounds = [0]
    for piece in object_path._split_on_jumps(branch):
        bounds.append(bounds[-1] + len(piece))
    return list(zip(bounds, bounds[1:]))


def _hypot_one_ulp_off(select, toward):
    """np.hypot moved one ulp toward `toward` on the gaps that `select` picks."""
    hypot = np.hypot

    def off(dx, dy):
        gaps = hypot(dx, dy)
        return np.where(select(gaps), np.nextafter(gaps, toward), gaps)

    return off


class TestJumpSplit:
    """The split cuts where the frozen math.hypot rule cuts, whatever np.hypot rounds to."""

    @pytest.mark.parametrize(
        "select,toward,jump,pieces",
        [
            # the jump one ulp over the cutoff 10, which np.hypot rounds to 10
            (lambda gaps: gaps > 5.0, 0.0, np.nextafter(10.0, 11.0), [(0, 17), (17, 18)]),
            # the jump at the cutoff 10, which np.hypot rounds one ulp over it
            (lambda gaps: gaps > 5.0, math.inf, 10.0, [(0, 18)]),
            # the jump at the cutoff 10, but np.hypot rounds the median 1 one
            # ulp low, so ten times it lies below 10
            (lambda gaps: gaps < 5.0, 0.0, 10.0, [(0, 18)]),
        ],
        ids=["jump-rounded-down", "jump-rounded-up", "median-rounded-down"],
    )
    def test_gap_at_the_cutoff_where_the_hypots_round_apart(self, monkeypatch, select, toward, jump, pieces):
        # sixteen gaps of 1, the median, and the jump, each exact in math.hypot
        xs, ys = np.array([0.0, 1.0] * 8 + [0.0, jump]), np.zeros(18)
        off = _hypot_one_ulp_off(select, toward)
        gaps = off(np.diff(xs), np.diff(ys))
        # ten times np.hypot's median would decide this jump the other way
        assert (gaps[-1] > 10.0 * np.partition(gaps, 8)[8]) != (pieces != [(0, 18)])
        monkeypatch.setattr(np, "hypot", off)
        assert _split_on_jumps(xs, ys) == _frozen_pieces(xs.tolist(), ys.tolist()) == pieces

    @pytest.mark.parametrize(
        "xs,pieces",
        [
            # gaps 1, 1, 3, 25: the upper middle gap 3 is the median, where
            # np.median's 2 would cut the 25
            ([0.0, 1.0, 2.0, 5.0, 30.0], [(0, 5)]),
            # gaps 0, 0, 0, 5: no cut at a median of 0
            ([0.0, 0.0, 0.0, 0.0, 5.0], [(0, 5)]),
            # an infinite gap between two near 1.5e308, each cut
            ([0.0, 1.0, 2.0, 3.0, -1.5e308, 1.5e308, 4.0, 5.0], [(0, 4), (4, 5), (5, 6), (6, 8)]),
            # infinite gaps make the median: no cut
            ([-1.5e308, 1.5e308, -1.5e308, 1.5e308, 0.0], [(0, 5)]),
            ([1.0], [(0, 1)]),
        ],
        ids=["even-count", "zero-median", "infinite-gap", "infinite-median", "one-point"],
    )
    def test_edge_cases(self, xs, pieces):
        ys = [0.0] * len(xs)
        assert _split_on_jumps(np.array(xs), np.array(ys)) == _frozen_pieces(xs, ys) == pieces

    @pytest.mark.parametrize(
        "cfg,n",
        [
            (TripleConfig(4.0, 2.0, 1.0), 1024),  # r = b: nearly equal gaps
            (scaled(TripleConfig(35.0, 30.0, 5.0), 1e-300), 64),
            (scaled(TripleConfig(35.0, 30.0, 5.0), 1e300), 64),
            (scaled(TripleConfig(4.0, 2.0, 1.0), 1e-300), 65),
        ],
        ids=["circle", "oval-1e-300", "oval-1e300", "circle-1e-300"],
    )
    def test_curve_branches(self, cfg, n):
        curve = sample_curve(cfg, n)
        for rank in (0, 1):
            xs, ys = curve.x[curve.rank == rank], curve.y[curve.rank == rank]
            assert _split_on_jumps(xs, ys) == _frozen_pieces(xs.tolist(), ys.tolist())

    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, 1.0, 1e-300, 3e300])),
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_frozen_rule(self, points):
        xs, ys = [x for x, _ in points], [y for _, y in points]
        assert _split_on_jumps(np.array(xs, float), np.array(ys, float)) == _frozen_pieces(xs, ys)


@st.composite
def flat_triples(draw):
    # a > b > c with magnitudes in [2^-20, 2^20] (or 0), nonpositive heights
    # included, so that scaling by up to 2^+-1000 is exact; b within 3e-12
    # (relative) of the midline half the time, around the line test
    def height():
        return draw(st.sampled_from([-1.0, 0.0, 1.0])) * math.exp(draw(st.floats(-13.8, 13.8)))

    a, b, c = sorted((height(), height(), height()), reverse=True)
    if draw(st.booleans()):
        b = 0.5 * (a + c) * (1.0 + draw(st.floats(-3e-12, 3e-12)))
    assume(a > b > c and all(h == 0.0 or 2.0**-20 <= abs(h) <= 2.0**20 for h in (a, b, c)))
    return a, b, c


def _locus_bits(locus):
    return type(locus).__name__, tuple(getattr(locus, name).hex() for name in locus._fields)


class TestEuclideanLocusProperties:
    @given(flat_triples(), st.sampled_from([-1000, -600, -200, 200, 600, 1000]))
    @example((4.0, 2.0, 1.0), 1000)
    @example((9.0, 4.0, 1.0), -1000)
    @settings(max_examples=300, deadline=None)
    def test_scaled_triple_has_the_scaled_locus(self, heights, j):
        scaled = tuple(math.ldexp(h, j) for h in heights)
        locus = euclidean_locus(*heights)
        try:
            expected = type(locus)(*(math.ldexp(getattr(locus, name), j) for name in locus._fields))
        except OverflowError:
            # a circle near the midline, scaled past the float range
            with pytest.raises(GeometryError, match="does not fit in float64"):
                euclidean_locus(*scaled)
            return
        assert _locus_bits(euclidean_locus(*scaled)) == _locus_bits(expected)


class TestCrossRatioProperties:
    @given(four_heights())
    @settings(max_examples=100)
    def test_hyper_within_its_rounding_bound_of_the_exact_value(self, heights):
        value = cross_ratio_hyper(FourConfig(*heights, Geometry.HYPERBOLIC))
        assert hyper_cross_ratio_error(value, heights) <= HYPER_CROSS_RATIO_BOUND

    @given(four_heights(), st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=100)
    def test_scale_invariance(self, heights, lam):
        cfg = FourConfig(*heights, Geometry.HYPERBOLIC)
        assert cross_ratio_hyper(scaled(cfg, lam)) == pytest.approx(
            cross_ratio_hyper(cfg), rel=1e-12
        )

    @given(four_heights(), st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=100)
    def test_translation_invariance(self, heights, shift):
        cfg = FourConfig(*heights, Geometry.EUCLIDEAN)
        assert cross_ratio_euclid(shifted(cfg, shift)) == pytest.approx(
            cross_ratio_euclid(cfg), rel=1e-9
        )

    @given(four_heights())
    @settings(max_examples=100)
    def test_cross_ratio_positive(self, heights):
        cfg = FourConfig(*heights, Geometry.EUCLIDEAN)
        assert cross_ratio_euclid(cfg) > 0


# nan, the infinities, signed zeros, subnormals and the ends of the float
# range, beside hypothesis's own floats, which reach all of them too
edge_float = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-320, sys.float_info.min, 1.0, -1.0, sys.float_info.max]
    ),
    st.floats(),
)


@st.composite
def adversarial_heights(draw):
    # as drawn (mostly unordered), sorted, or sorted with two neighbours equal
    heights = draw(st.lists(edge_float, min_size=4, max_size=4))
    shape = draw(st.sampled_from(("as drawn", "sorted", "tied")))
    if shape != "as drawn":
        heights.sort(reverse=True)
    if shape == "tied":
        i = draw(st.integers(0, 2))
        heights[i + 1] = heights[i]
    return tuple(heights)


@st.composite
def collapsing_heights(draw):
    # valid configs whose unit copy can collapse: the top height anywhere in
    # the float range, the others a few subnormal steps apart or far below it
    top = draw(st.floats(min_value=5e-324, max_value=sys.float_info.max))
    lower = st.one_of(st.integers(-4, 64).map(lambda n: n * 5e-324), st.floats(min_value=5e-324, max_value=top))
    rest = sorted(draw(st.lists(lower, min_size=3, max_size=3, unique=True)), reverse=True)
    assume(top > rest[0])
    return (top, *rest)


def _config_error(heights, hyperbolic):
    """The (class, message) FourConfig raises: finite, then ordered, then positive; None if valid."""
    a, b, c, d = heights
    if not all(math.isfinite(h) for h in heights):
        return GeometryError, f"heights must be finite, got {heights}"
    if not a > b > c > d:
        return OrderingError, f"heights must satisfy a > b > c > d, got {heights}"
    if hyperbolic and d <= 0:
        return GeometryError, f"hyperbolic heights must be positive, got d={d!r}"
    return None


def _exists_exactly(heights, hyperbolic):
    """Whether the exact cross-ratio of the float heights is below 3."""
    return (exact_cross_ratio_hyper if hyperbolic else exact_cross_ratio_euclid)(heights) < 3


class TestValidationParity:
    """Each config is checked by one comparison, and the named checks run only on a failure.

    Their errors must still follow the documented order on construction.
    A valid config is decided exactly at any spread: its cross-ratio and
    existence test raise nothing, and its witness search raises at most a
    named search failure.
    """

    @given(st.one_of(adversarial_heights(), collapsing_heights()), st.sampled_from(list(Geometry)))
    # every height below 2^-1024: the unit copy once raised OverflowError
    @example((4e-320, 2e-320, 1e-320, 0.0), Geometry.EUCLIDEAN)
    # the witness scaled back past the float range once raised OverflowError
    @example((1.7649241525847572e308, 1.3295112602789705e308, 7.698612121399148e307, 0.0), Geometry.EUCLIDEAN)
    # the copy holds and its squares collapse, which once raised
    @example((1.5, 1.0, 1.5e-323, 1e-323), Geometry.HYPERBOLIC)
    @example((0.5, 1.5e-323, 1e-323, 5e-324), Geometry.HYPERBOLIC)
    @settings(max_examples=500, deadline=None)
    def test_errors_follow_the_reference_chain(self, heights, geometry):
        hyperbolic = geometry is Geometry.HYPERBOLIC
        expected = _config_error(heights, hyperbolic)
        if expected is not None:
            with pytest.raises(GeometryError) as caught:
                FourConfig(*heights, geometry)
            assert (type(caught.value), str(caught.value)) == expected
            return
        cfg = FourConfig(*heights, geometry)
        if hyperbolic:
            cross_ratio, exists, find = cross_ratio_hyper, exists_hyper, find_witness_hyper
        else:
            cross_ratio, exists, find = cross_ratio_euclid, exists_euclid, find_witness_euclid
        assert cross_ratio(cfg) >= 0  # 0 where the correctly rounded value underflows
        assert exists(cfg) == _exists_exactly(heights, hyperbolic)
        try:
            witness = find(cfg)
        except WitnessSearchError:
            assert exists(cfg)
        else:
            assert (witness is not None) == exists(cfg)


def _fraction_sqrt(value):
    """A float within an ulp or two of the square root of a positive Fraction, at any scale."""
    e = (value.numerator.bit_length() - value.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(value / Fraction(4) ** e), e)


@st.composite
def near_threshold_heights(draw, hyperbolic):
    # a > b > d, and c within 12 ulps of the c* where the exact cross-ratio
    # is 3: of the heights, or (hyperbolic) of their squares, solved for
    # c*^2. The heights lie near one scale, or span up to 2^+-1000
    if draw(st.booleans()):
        logs = sorted((draw(st.floats(min_value=-10.0, max_value=10.0)) for _ in range(3)), reverse=True)
        a, b, d = (math.exp(v) for v in logs)
    else:
        exponents = sorted((draw(st.integers(-1000, 1000)) for _ in range(3)), reverse=True)
        a, b, d = (math.ldexp(draw(st.floats(min_value=0.5, max_value=1.0)), e) for e in exponents)
    if not hyperbolic and draw(st.booleans()):
        d = -d
    A, B, D = (Fraction(h) ** 2 if hyperbolic else Fraction(h) for h in (a, b, d))
    assume(A > B > D)
    threshold = (B * (A - D) + 3 * (A - B) * D) / ((A - D) + 3 * (A - B))
    c = _fraction_sqrt(threshold) if hyperbolic else float(threshold)
    steps = draw(st.integers(-12, 12))
    for _ in range(abs(steps)):
        c = math.nextafter(c, math.inf if steps > 0 else -math.inf)
    assume(a > b > c > d > (0.0 if hyperbolic else -math.inf))
    return a, b, c, d


class TestExactExistence:
    """Near the threshold every function reads the exact decision, and the witness search keeps its contract."""

    @staticmethod
    def _check(heights, geometry):
        hyperbolic = geometry is Geometry.HYPERBOLIC
        cfg = FourConfig(*heights, geometry)
        if hyperbolic:
            cross_ratio, exists, find, tol = cross_ratio_hyper, exists_hyper, find_witness_hyper, HYPER_WITNESS_TOL
        else:
            cross_ratio, exists, find, tol = cross_ratio_euclid, exists_euclid, find_witness_euclid, EUCLID_WITNESS_TOL
        expected = _exists_exactly(heights, hyperbolic)
        assert exists(cfg) == expected
        assert fp.fourpoint_report(cfg, None)["exists"] == expected
        value = cross_ratio(cfg)
        if fp._BAND_LO <= value <= fp._BAND_HI:
            # decided in integers: correctly rounded
            exact = (exact_cross_ratio_hyper if hyperbolic else exact_cross_ratio_euclid)(heights)
            assert value == float(exact)
        # a witness within its contract, None exactly where none exists, or
        # a named search failure; a negative margin under math.sqrt would
        # raise ValueError
        try:
            witness = find(cfg)
        except WitnessSearchError as exc:
            assert expected and "(cross-ratio 3 < 3)" not in str(exc), str(exc)
            return
        assert (witness is not None) == expected
        if witness is not None:
            assert max(map(abs, witness.residuals)) <= tol

    @given(near_threshold_heights(hyperbolic=False))
    # the float cross-ratio reads below 3, the exact one is above it
    @example((0.75, 0.24999999999999806, -0.25000000000000194, -0.75))
    # 1e-300 .. 1e300: a copy divided by the largest height collapses
    @example((1e300, 3e-300, 2e-300, 1e-300))
    @settings(max_examples=300, deadline=None)
    def test_euclid(self, heights):
        self._check(heights, Geometry.EUCLIDEAN)

    @given(near_threshold_heights(hyperbolic=True))
    # the float cross-ratio reads 3.0, the exact one is below 3
    @example((4.0, 3.1835132202904335, 2.2811530619349782, 1.0))
    @example((1e300, 3e-300, 2e-300, 1e-300))
    @settings(max_examples=300, deadline=None)
    def test_hyper(self, heights):
        self._check(heights, Geometry.HYPERBOLIC)


def _min_gap(heights):
    # the smallest gap between neighbours relative to the larger magnitude,
    # below the log gap for positive heights
    return min((x - y) / max(abs(x), abs(y)) for x, y in zip(heights, heights[1:]))


class TestWitnessProperties:
    @given(st.one_of(log_uniform_heights(), near_boundary_heights()))
    @settings(max_examples=100, deadline=None)
    def test_witness_returned_exactly_when_it_exists(self, heights):
        a, b, c, d = heights
        # heights closer than this put the witness about as close to them,
        # where one float step of the point already moves the angles by
        # ~eps/gap: at log gaps of 1e-10 no float point is within 1e-8
        assume(min(math.log(x / y) for x, y in zip(heights, heights[1:])) >= 1e-6)
        cfg = FourConfig(a, b, c, d, Geometry.HYPERBOLIC)
        witness = find_witness_hyper(cfg)
        assert (witness is not None) == exists_hyper(cfg)
        if witness is not None:
            p = HPoint(witness.x, witness.y)
            upper = equal_angle_residual(p, AxisPoint(a), AxisPoint(b), AxisPoint(c)).value
            lower = equal_angle_residual(p, AxisPoint(b), AxisPoint(c), AxisPoint(d)).value
            assert max(abs(upper), abs(lower)) <= HYPER_WITNESS_TOL

    @given(near_boundary_heights(-16.0, -14.0))
    @settings(max_examples=200, deadline=None)
    def test_hyper_witness_just_below_the_threshold(self, heights):
        a, b, c, d = heights
        assume(a > b > c > d and _min_gap(heights) >= 1e-6)
        cfg = FourConfig(a, b, c, d, Geometry.HYPERBOLIC)
        assume(exists_hyper(cfg))
        witness = find_witness_hyper(cfg)
        p = HPoint(witness.x, witness.y)
        upper = equal_angle_residual(p, AxisPoint(a), AxisPoint(b), AxisPoint(c)).value
        lower = equal_angle_residual(p, AxisPoint(b), AxisPoint(c), AxisPoint(d)).value
        assert max(abs(upper), abs(lower)) <= HYPER_WITNESS_TOL

    @given(near_boundary_heights(-16.0, -14.0, squared=False))
    # nearly equally spaced, 3.3e-16 below the threshold: the divisor is
    # -1.4e-17 as (b-c)^2 - (a-b)(c-d) but rounds to 0 in the equal form
    # (b-c)(a-c) - (a-b)(b-d)
    @example((1.0, 0.6666666666666669, 0.33333333333333354, 0.0))
    @settings(max_examples=200, deadline=None)
    def test_euclid_witness_just_below_the_threshold(self, heights):
        a, b, c, d = heights
        assume(a > b > c > d and _min_gap(heights) >= 1e-6)
        cfg = FourConfig(a, b, c, d, Geometry.EUCLIDEAN)
        assume(exists_euclid(cfg))
        witness = find_witness_euclid(cfg)
        upper = euclidean_equal_angle_residual((witness.x, witness.y), a, b, c)
        lower = euclidean_equal_angle_residual((witness.x, witness.y), b, c, d)
        assert max(abs(upper), abs(lower)) <= EUCLID_WITNESS_TOL


def _run(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # both paths must raise alike, whatever the error
        return exc


def _bits(result):
    if isinstance(result, Exception):
        return type(result), str(result)
    if isinstance(result, Witness):
        return tuple(v.hex() for v in (result.x, result.y, *result.residuals))
    if isinstance(result, AngleResidual):
        return result.value.hex()
    return result


class TestWitnessBitIdentity:
    """The float witness path against the object path it replaced.

    tests/_witness_path.py keeps that path, whose Euclidean witness was a
    float intersection of two locus objects polished by Newton steps. The
    Euclidean cross-ratio and existence test return its bits. Its
    hyperbolic cross-ratio came from squared heights, up to 4.6e-13 off,
    so the distance form is held to its rounding bound of the exact value
    instead, and existence to the old path's wherever the exact value
    lies outside that bound of 3. The closed-form
    witness returns other bits, so the witness tests require that no
    witness is lost: on heights whose neighbours differ by 1e-6 or more
    relative to the larger, wherever the old path returned a witness
    within the contract, the new one returns a witness too. Closer
    heights sit at the limit of what a float point resolves, where either
    path may win. The oracle raises only errors the old path raised too:
    that path divided by the largest magnitude, where y or a height could
    round to 0 or two heights merge, and the oracle, which divides by the
    point's own, holds those. Its values are held to an exact rational
    evaluation instead, since the old path's center formula is off by up
    to 1e-7 next to the axis.
    """

    @given(witness_heights())
    # the float circle loci met on the axis at cross-ratio 3 - 4.2e-16
    @example((1.0, 0.18352734933459244, 0.05320530938513346, 0.0))
    # the closed form's point has residual 1.98e-10, between the two bounds
    @example((62.18405961560278, 24.55849812734293, 24.558498082097245, -36.229585738926005))
    # the float cross-ratio reads below 3, the exact one is above it
    @example((0.75, 0.24999999999999806, -0.25000000000000194, -0.75))
    @settings(max_examples=400, deadline=None)
    def test_euclid_matches_object_path(self, heights):
        cfg = FourConfig(*heights, Geometry.EUCLIDEAN)
        old_ratio = witness_path.cross_ratio_euclid(cfg)
        old = _run(witness_path.find_witness_euclid, cfg)
        new = _run(find_witness_euclid, cfg)
        if fp._BAND_LO <= old_ratio <= fp._BAND_HI:
            # inside the float filter's band existence is exact, where the
            # old path's float test could read either side
            assert exists_euclid(cfg) == _exists_exactly(heights, False)
            if exists_euclid(cfg):
                assert isinstance(new, (Witness, WitnessSearchError)), new
            else:
                assert new is None
            return
        assert _bits(_run(cross_ratio_euclid, cfg)) == _bits(old_ratio)
        assert _run(exists_euclid, cfg) == _run(witness_path.exists_euclid, cfg)
        if not exists_euclid(cfg):
            assert old is None and new is None
            return
        assert isinstance(new, (Witness, WitnessSearchError)), new
        if isinstance(new, Witness):
            assert max(abs(r) for r in new.residuals) <= EUCLID_WITNESS_TOL
        if _min_gap(heights) >= 1e-6 and isinstance(old, Witness):
            if max(abs(r) for r in old.residuals) <= EUCLID_WITNESS_TOL:
                assert isinstance(new, Witness), (old, new)

    @given(witness_heights())
    @settings(max_examples=400, deadline=None)
    def test_hyper_matches_object_path(self, heights):
        cfg = FourConfig(*heights, Geometry.HYPERBOLIC)
        assert hyper_cross_ratio_error(cross_ratio_hyper(cfg), heights) <= HYPER_CROSS_RATIO_BOUND
        exact = exact_cross_ratio_hyper(heights)
        clear = abs(exact - 3) > Fraction(HYPER_CROSS_RATIO_BOUND, 2**53) * exact
        if clear:
            assert exists_hyper(cfg) == witness_path.exists_hyper(cfg)
        old = _run(witness_path.find_witness_hyper, cfg)
        new = _run(find_witness_hyper, cfg)
        if not exists_hyper(cfg):
            assert new is None and (old is None or not clear)
            return
        assert isinstance(new, (Witness, WitnessSearchError)), new
        if _min_gap(heights) >= 1e-6 and isinstance(old, Witness):
            assert isinstance(new, Witness), (old, new)

    @given(
        st.one_of(witness_heights(), st.lists(st.floats(min_value=5e-324, max_value=1e300), min_size=3, max_size=3)),
        st.floats(min_value=-1e300, max_value=1e300),
        st.floats(min_value=5e-324, max_value=1e300),
    )
    # the old path's witness for heights 5.6e-10 apart in log, 4.8e-5 off
    # the axis: its center formula read 7.6e-9 where the residual is 1.1e-7
    @example((539558.9429617529, 99284.14192626122, 99284.14187113171), 4.774355516968702e-05, 99284.14189869647)
    # spread past the exponent range of one scale: the old path was off by
    # 4.7 here, and tangents scaled by the largest height underflowed
    @example((1.2691695568921196e-18, 2.6281143244337026e-228, 3.7240567531170605e-308), 1.057e-321, 2.648614995205153e-282)
    @settings(max_examples=400, deadline=None)
    def test_oracle_matches_object_path(self, heights, x, y):
        # where the oracle raises, the old path raised the same error; where
        # only the old path raised, its scale lost a height or y, and the
        # oracle's value is held to the exact one like any other
        a, b, c = (AxisPoint(h) for h in sorted(heights, reverse=True)[:3])
        p = HPoint(x, y)
        new = _run(equal_angle_residual, p, a, b, c)
        if isinstance(new, Exception):
            assert _bits(new) == _bits(_run(witness_path.equal_angle_residual, p, a, b, c))
            return
        (exact,) = exact_residuals(x, y, (a.h, b.h, c.h))
        assert abs(new.value - exact) <= 1e-15, (new.value, exact)


@st.composite
def distant_heights(draw):
    # four heights log-uniform over e^-340 .. e^340: in the unit copy the
    # lowest reach 2^-981, where their squares underflow
    logs = sorted((draw(st.floats(min_value=-340.0, max_value=340.0)) for _ in range(4)), reverse=True)
    heights = tuple(math.exp(v) for v in logs)
    assume(heights[0] > heights[1] > heights[2] > heights[3])
    return heights


class TestHyperbolicDistances:
    """Existence is decided from distances, so no valid config fails on its squares."""

    @given(distant_heights())
    # the squares of these once read (0.25, 0.0, 0.0, 0.0) in an OrderingError
    @example((1.0, 4e-200, 2e-200, 1e-200))
    # the squares once read the cross-ratio as 0.750329
    @example((1.0, 2.5e-160, 2e-160, 1e-160))
    @settings(max_examples=300, deadline=None)
    def test_decided_and_searched_at_any_spread(self, heights):
        # any error but a named search failure fails the test
        cfg = FourConfig(*heights, Geometry.HYPERBOLIC)
        cross_ratio = cross_ratio_hyper(cfg)
        assert hyper_cross_ratio_error(cross_ratio, heights) <= HYPER_CROSS_RATIO_BOUND
        try:
            witness = find_witness_hyper(cfg)
        except WitnessSearchError as exc:
            assert exists_hyper(cfg)
            # where the cross-ratio prints as 3, the margin gives the digits
            text = f"{cross_ratio:.6g}"
            assert str(exc).startswith(f"existence holds (cross-ratio {text if text != '3' else '3 - '}")
            return
        assert (witness is not None) == exists_hyper(cfg)
        if witness is not None:
            assert max(map(abs, exact_residuals(witness.x, witness.y, heights))) <= HYPER_WITNESS_TOL


@st.composite
def hyper_spread_heights(draw):
    # c at any scale, b within (c, 2c) (where b >= 2c no witness exists),
    # a and d log-uniform up to 2^1000 above and below it
    c = math.ldexp(draw(st.floats(min_value=0.5, max_value=1.0, exclude_max=True)), draw(st.integers(-40, 20)))
    b = c * 2.0 ** draw(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
    a = b * 2.0 ** draw(st.floats(min_value=1e-6, max_value=1000.0))
    d = c * 2.0 ** -draw(st.floats(min_value=1e-6, max_value=1000.0))
    assume(a > b > c > d > 0.0)
    return a, b, c, d


@st.composite
def euclid_spread_heights(draw):
    # the middle pair anywhere about 0, one outer gap within a few times the
    # middle one, the other up to 2^1000 times it, on either side
    v = math.ldexp(1.0, draw(st.integers(-40, 20)))
    b = v * draw(st.floats(min_value=-4.0, max_value=4.0))
    near = v * 2.0 ** draw(st.floats(min_value=-1.5, max_value=2.0))
    far = v * 2.0 ** draw(st.floats(min_value=0.0, max_value=1000.0))
    upper, lower = (far, near) if draw(st.booleans()) else (near, far)
    heights = (b + upper, b, b - v, b - v - lower)
    assume(heights[0] > heights[1] > heights[2] > heights[3])
    return heights


class TestMiddlePairCopy:
    """The witness searches divide by the power of two of the middle pair, so an outer height any distance out is a ratio.

    Every witness that exists is returned within its contract, by the exact
    rational residuals: in the flat plane at any spread of one outer gap,
    in the half-plane at any spread of both outer heights, since the
    half-plane judge divides by the power of two of the point, not of a.
    """

    @given(hyper_spread_heights())
    # the squared gap (a-b)(a+b) overflows: this exited 3 from a = 1e159
    @example((1e159, 3.0, 2.0, 1.0))
    @example((1.0, 2.5e-300, 2e-300, 1e-300))
    # d divided by the power of two of a rounded to 0 in a judge that
    # scaled by the largest height, and the search named the span
    @example((2.0**1000, 3.0, 2.0, 2.0**-1000))
    @example((1e300, 3e-300, 2e-300, 1e-300))
    @settings(max_examples=300, deadline=None)
    def test_hyper(self, heights):
        # any error, a WitnessSearchError too, fails the test
        cfg = FourConfig(*heights, Geometry.HYPERBOLIC)
        witness = find_witness_hyper(cfg)
        assert (witness is not None) == exists_hyper(cfg)
        if witness is not None:
            assert max(map(abs, exact_residuals(witness.x, witness.y, heights))) <= HYPER_WITNESS_TOL

    @given(euclid_spread_heights())
    @example((1e300, 3e-300, 2e-300, 1e-300))
    @example((3e-300, 2e-300, 1e-300, -1e300))
    # both outer gaps past the float range of the copy
    @example((1e300, 1e-300, 0.0, -1e300))
    # c - d overflows, and is 1.85 times b - c
    @example((1.75e308, 0.9e308, 0.1e308, -1.75e308))
    @settings(max_examples=300, deadline=None)
    def test_euclid(self, heights):
        cfg = FourConfig(*heights, Geometry.EUCLIDEAN)
        witness = find_witness_euclid(cfg)
        assert (witness is not None) == exists_euclid(cfg)
        if witness is not None:
            assert max(map(abs, exact_residuals(witness.x, witness.y, heights, flat=True))) <= EUCLID_WITNESS_TOL

    def test_outer_height_past_the_squares_gives_one_witness(self):
        # (a-b)(a+b) overflows the copy, a ratio q of 0, and the margin
        # m = 3 - 5/3 is the same float for each a: one witness, bit for bit
        configs = [FourConfig(a, 3.0, 2.0, 1.0, Geometry.HYPERBOLIC) for a in (1e160, 1e200, 1e300, 1.7e308)]
        witnesses = {(w.x.hex(), w.y.hex()) for w in map(find_witness_hyper, configs)}
        assert len(witnesses) == 1


@st.composite
def wide_heights(draw):
    # four heights within e^-30 and e^30, neighbours at least 1e-3 apart in
    # log; few of these have a witness, every near_boundary_heights one has
    logs = [draw(st.floats(min_value=-30.0, max_value=0.0))]
    for _ in range(3):
        logs.append(logs[-1] + draw(st.floats(min_value=1e-3, max_value=10.0)))
    return tuple(math.exp(v) for v in reversed(logs))


def _sinh_error_bound(d):
    # relative error of sinh(hyp_distance) for two points on the y-axis at
    # distance d, to first order in u = 2^-53. hyp_distance forms
    # x = (p - q)^2 / (2pq) = cosh d - 1 within 6u (the difference, doubled
    # by the square, the square, the product and the quotient, with slack
    # for pow), and 1 + x with one more rounding, so 1 + x is off by at most
    # u (6x + 1) = u (6 cosh d - 5). acosh divides that by sinh d, and sinh
    # multiplies the error of d by coth d, so it reaches sinh(d) as
    # u cosh d (6 cosh d - 5) / sinh^2 d, about u / d^2 for small d: this
    # is why the log gaps stay at least 1e-3, where it is about 1e-10. libm's
    # acosh and sinh add at most 2 ulp (4u relative) each, the first as
    # 4u d in d and so as 4u d coth d in sinh(d).
    u = 2.0**-53
    return u * math.cosh(d) * (6.0 * math.cosh(d) - 5.0) / math.sinh(d) ** 2 + 4.0 * u * d / math.tanh(d) + 4.0 * u


class TestCrossRatioDefinition:
    @given(wide_heights())
    @settings(max_examples=300, deadline=None)
    def test_hyper_is_its_sinh_of_distances_definition(self, heights):
        # cross_ratio_hyper against sinh(d_bc) sinh(d_ad) / (sinh(d_ab) sinh(d_cd)),
        # the d from the test reference's hyp_distance: the four factors'
        # errors, 3 roundings of the reference's products and quotient, and
        # the 15 roundings of cross_ratio_hyper's docstring
        a, b, c, d = (HPoint(0.0, h) for h in heights)
        distances = [hyp_distance(p, q) for p, q in ((b, c), (a, d), (a, b), (c, d))]
        sinh_bc, sinh_ad, sinh_ab, sinh_cd = map(math.sinh, distances)
        reference = sinh_bc * sinh_ad / (sinh_ab * sinh_cd)
        bound = sum(map(_sinh_error_bound, distances)) + 18 * 2.0**-53
        value = cross_ratio_hyper(FourConfig(*heights, Geometry.HYPERBOLIC))
        assert abs(value - reference) <= bound * reference, (value, reference, bound)


class TestOneJudge:
    """The witness search and the oracle share one judge, whose angles are those between the geodesics' tangents."""

    @given(st.one_of(wide_heights(), near_boundary_heights(-12.0, -1.0, log_d=(-30.0, 0.0))))
    @settings(max_examples=200, deadline=None)
    def test_witness_residuals_are_two_oracle_calls(self, heights):
        assume(heights[0] > heights[1] > heights[2] > heights[3])
        cfg = FourConfig(*heights, Geometry.HYPERBOLIC)
        try:
            witness = find_witness_hyper(cfg)
        except WitnessSearchError:
            return
        if witness is None:
            return
        p = HPoint(witness.x, witness.y)
        a, b, c, d = (AxisPoint(h) for h in heights)
        upper = equal_angle_residual(p, a, b, c).value
        lower = equal_angle_residual(p, b, c, d).value
        assert _bits(witness)[2:] == (upper.hex(), lower.hex())

    @given(
        st.floats(min_value=0.5, max_value=4.0),
        st.booleans(),
        st.floats(min_value=0.5, max_value=4.0),
        st.lists(st.floats(min_value=0.5, max_value=4.0), min_size=3, max_size=3, unique=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_judge_matches_geodesic_tangents(self, x, mirrored, y, heights):
        # at least 0.5 across from the axis: there geodesic_through's center
        # is good to ~1e-14, and each angle between its tangents to 1e-13
        p = HPoint(-x if mirrored else x, y)
        a, b, c = sorted(heights, reverse=True)

        def toward(h):
            tx, ty = tangent_direction(geodesic_through(p, HPoint(0.0, h)), p)
            if tx * -p.x + ty * (h - p.y) < 0.0:
                tx, ty = -tx, -ty
            return tx, ty

        def angle(h1, h2):
            (ux, uy), (vx, vy) = toward(h1), toward(h2)
            return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)

        residual = equal_angle_residual(p, AxisPoint(a), AxisPoint(b), AxisPoint(c)).value
        assert abs(residual - (angle(a, b) - angle(b, c))) <= 2e-13


class TestScalingAndFlatResiduals:
    """The one exponent rule of the unit copies, and the two flat residuals from four ray directions."""

    @given(finite, finite)
    @example(_LARGEST, -_LARGEST)
    @example(_LARGEST, _LARGEST / 2.0)
    @example(-_LARGEST / 2.0, -_LARGEST)
    @example(5e-324, 0.0)
    @example(0.0, -5e-324)
    @example(2.2250738585072014e-308, 2.225073858507201e-308)
    @settings(max_examples=500)
    def test_exponent_puts_the_largest_magnitude_in_half_to_one(self, first, last):
        first, last = max(first, last), min(first, last)
        largest = max(abs(first), abs(last))
        assume(first > last and largest > 0.0)
        k = _unit_exponent(first, last)
        unit = math.ldexp(largest, -k)
        assert 0.5 <= unit < 1.0
        # exact: a power of two moves only the exponent
        assert math.ldexp(unit, k) == largest

    @given(finite, finite, st.lists(finite, min_size=4, max_size=4, unique=True))
    @example(1e-300, 0.5, [4.0, 3.0, 2.0, 1.0])
    @example(-1.0, _LARGEST, [_LARGEST, 1.0, -1.0, -_LARGEST])
    @example(5e-324, 0.0, [2e-323, 1.5e-323, 1e-323, 5e-324])
    @settings(max_examples=500)
    def test_residuals_are_two_flat_residuals_bit_for_bit(self, x, y, heights):
        # the public predicate refuses points on the y-axis
        assume(x != 0.0)
        a, b, c, d = sorted(heights, reverse=True)
        expected = (euclidean_equal_angle_residual((x, y), a, b, c), euclidean_equal_angle_residual((x, y), b, c, d))
        assert [r.hex() for r in _flat_residuals(x, y, a, b, c, d)] == [r.hex() for r in expected]

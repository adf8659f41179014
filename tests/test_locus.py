"""Quartic locus: coefficients, classification, solving, sampling, Euclid case."""

import math
import tracemalloc

import numpy as np
import pytest

from apollonius.halfplane import AxisPoint, GeometryError, HPoint, OnAxisError, OrderingError, equal_angle_residual
from apollonius.locus import (
    AxisCircle,
    Curve,
    HorizontalLine,
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
    theta_grid,
)
from apollonius.svg import render_svg

from _exact_residuals import exact_residuals
from _scalar_sampler import scaled

# the seven regimes at a=35, c=5, keyed by the middle height
REGIME_CASES = [
    (30.0, LocusClass.ABOVE_QUADRATIC),
    (25.0, LocusClass.QUADRATIC_HYPERBOLA),
    (20.0, LocusClass.BETWEEN_GEOMETRIC_AND_QUADRATIC),
    (math.sqrt(175.0), LocusClass.GEOMETRIC_CIRCLE),
    (10.0, LocusClass.BETWEEN_HARMONIC_AND_GEOMETRIC),
    (7.0, LocusClass.HARMONIC_LEMNISCATE),
    (6.0, LocusClass.BELOW_HARMONIC),
]


class TestConfigAndCoefficients:
    def test_ordering_enforced(self):
        with pytest.raises(OrderingError):
            TripleConfig(1, 2, 3)
        with pytest.raises(OrderingError):
            TripleConfig(3, 2, 0)

    def test_4_2_1(self):
        q = coefficients(TripleConfig(4, 2, 1))
        assert (q.alpha, q.beta, q.gamma) == (-9.0, 0.0, -144.0)

    def test_quadratic_boundary_alpha_vanishes(self):
        assert coefficients(TripleConfig(35, 25, 5)).alpha == 0.0

    def test_harmonic_boundary_gamma_vanishes(self):
        assert coefficients(TripleConfig(35, 7, 5)).gamma == 0.0

    def test_symbolic_b_membership_identity(self):
        # the point (0, b) satisfies the quartic identically
        import sympy as sp

        a, b, c = sp.symbols("a b c", positive=True)
        alpha = 2 * b**2 - a**2 - c**2
        beta = a**2 * c**2 - b**4
        gamma = b**2 * (2 * a**2 * c**2 - a**2 * b**2 - c**2 * b**2)
        expr = b**4 * alpha + 2 * b**2 * beta - gamma
        assert sp.expand(expr) == 0

    def test_b_membership_in_floats(self):
        for cfg in (TripleConfig(4, 2, 1), TripleConfig(35, 25, 5), TripleConfig(35, 7, 5)):
            assert eval_quartic(cfg, cfg.b, math.pi / 2) == 0.0
        cfg = TripleConfig(3.7, 1.9, 0.23)
        scale = abs(coefficients(cfg).gamma)
        assert abs(eval_quartic(cfg, cfg.b, math.pi / 2)) <= 1e-14 * scale

    @pytest.mark.parametrize(
        "heights,named",
        [
            ((6e51, 4e51, 2e51), "gamma = -inf"),
            ((1e200, 1e199, 1e198), "alpha = nan, beta = nan, gamma = nan"),
        ],
    )
    def test_overflowing_coefficients_are_named(self, heights, named):
        # eval_quartic takes the coefficients of the heights as given, so it
        # raises where coefficients() does; solve_r2 solves on the unit copy
        cfg = TripleConfig(*heights)
        for compute in (lambda: coefficients(cfg), lambda: eval_quartic(cfg, 1.0, 1.0)):
            with pytest.raises(GeometryError, match="^quartic coefficients overflow float64 at heights ") as caught:
                compute()
            assert str(caught.value).endswith(named)


class TestEvalQuartic:
    def test_circle_zero_for_any_theta(self):
        cfg = TripleConfig(4, 2, 1)
        for theta in (0.3, 1.0, 2.5):
            assert eval_quartic(cfg, 2.0, theta) == pytest.approx(0.0, abs=1e-12)

    def test_hyperbola_relation(self):
        cfg = TripleConfig(35, 25, 5)
        for theta in (1.0, 1.4, 2.0):
            r = math.sqrt(625.0 / -math.cos(2 * theta))
            scale = abs(2 * r * r * coefficients(cfg).beta)
            assert abs(eval_quartic(cfg, r, theta)) <= 1e-14 * scale

    def test_mirror_symmetry(self):
        cfg = TripleConfig(9, 4, 1.5)
        for r, theta in ((2.0, 0.7), (11.0, 1.2), (0.3, 2.8)):
            left = eval_quartic(cfg, r, theta)
            right = eval_quartic(cfg, r, math.pi - theta)
            scale = max(abs(left), abs(right), 1.0)
            assert abs(left - right) <= 1e-12 * scale


class TestClassify:
    @pytest.mark.parametrize("b,expected", REGIME_CASES)
    def test_seven_regimes(self, b, expected):
        assert classify(TripleConfig(35.0, b, 5.0)) == expected

    def test_geometric_circle_example(self):
        assert classify(TripleConfig(4, 2, 1)) == LocusClass.GEOMETRIC_CIRCLE

    def test_exact_mode_on_integers(self):
        assert classify(TripleConfig(35, 25, 5)) == LocusClass.QUADRATIC_HYPERBOLA
        assert classify(TripleConfig(35, 7, 5)) == LocusClass.HARMONIC_LEMNISCATE

    def test_integral_heights_ignore_eps(self):
        # b^2 = 10^6 lies 2 below 2Q^2 - b^2 = 1000002 and 1 above ac = 999999:
        # inside eps = 1e-5 of both means, on neither
        cfg = TripleConfig(1001, 1000, 999)
        assert classify(cfg, eps=1e-5) == LocusClass.BETWEEN_GEOMETRIC_AND_QUADRATIC
        assert classify(scaled(cfg, 0.5), eps=1e-5) == LocusClass.QUADRATIC_HYPERBOLA
        assert classify(scaled(cfg, 0.5), eps=0.0) == LocusClass.BETWEEN_GEOMETRIC_AND_QUADRATIC

    @pytest.mark.parametrize(
        "heights,expected",
        [
            # truncated to (2, 2, 1), the heights would read AboveQuadratic
            ((2.9, 2.0, 1.0), LocusClass.BETWEEN_GEOMETRIC_AND_QUADRATIC),
            # the float means once read BetweenHarmonicAndGeometric here
            ((4e-100, 1.1e-100, 1e-100), LocusClass.BELOW_HARMONIC),
            # a^2 + c^2 underflowed to 0, and H^2 divided by it
            ((4e-200, 2e-200, 1e-200), LocusClass.GEOMETRIC_CIRCLE),
            ((4e100, 1.1e100, 1e100), LocusClass.BELOW_HARMONIC),
            ((4e300, 2e300, 1e300), LocusClass.GEOMETRIC_CIRCLE),
            ((1.5e300, 1e-300, 5e-301), LocusClass.BETWEEN_HARMONIC_AND_GEOMETRIC),
        ],
    )
    def test_decided_exactly(self, heights, expected):
        assert classify(TripleConfig(*heights)) == expected

    def test_eps_widens_boundary(self):
        near = TripleConfig(35.0, 25.0 * (1 + 1e-8), 5.0)
        assert classify(near, eps=1e-12) == LocusClass.ABOVE_QUADRATIC
        assert classify(near, eps=1e-6) == LocusClass.QUADRATIC_HYPERBOLA

    def test_negative_eps_rejected(self):
        with pytest.raises(GeometryError, match=r"^eps must be finite and nonnegative, got -1\.0$"):
            classify(TripleConfig(4, 2, 1), eps=-1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_eps_rejected(self, eps):
        # inf once made every triple a QuadraticHyperbola, and nan a strict test
        with pytest.raises(GeometryError, match=f"^eps must be finite and nonnegative, got {eps!r}$"):
            classify(TripleConfig(4, 1.1, 1), eps=eps)

    def test_means_strictly_ordered(self):
        for a, c in ((35.0, 5.0), (2.0, 1.0), (1000.0, 999.0)):
            h2 = 2 * a * a * c * c / (a * a + c * c)
            g2 = a * c
            q2 = (a * a + c * c) / 2
            assert h2 < g2 < q2


class TestSolveR2:
    def test_circle_single_root(self):
        assert solve_r2(TripleConfig(4, 2, 1), 1.0) == [4.0]

    def test_hyperbola_at_right_angle(self):
        roots = solve_r2(TripleConfig(35, 25, 5), math.pi / 2)
        assert roots == [625.0]

    def test_hyperbola_outside_window_empty(self):
        assert solve_r2(TripleConfig(35, 25, 5), math.pi / 8) == []

    def test_lemniscate(self):
        cfg = TripleConfig(35, 7, 5)
        assert solve_r2(cfg, math.pi / 4) == []
        assert solve_r2(cfg, math.pi / 2) == [49.0]

    def test_theta_domain_validated(self):
        with pytest.raises(GeometryError):
            solve_r2(TripleConfig(4, 2, 1), 0.0)
        with pytest.raises(GeometryError):
            solve_r2(TripleConfig(4, 2, 1), math.pi)

    def test_residual_contract(self):
        for b, _ in REGIME_CASES:
            cfg = TripleConfig(35.0, b, 5.0)
            q = coefficients(cfg)
            for theta in np.linspace(0.05, math.pi - 0.05, 37):
                for s in solve_r2(cfg, float(theta)):
                    bound = 1e-9 * max(abs(q.alpha) * s * s, abs(q.gamma), 1.0)
                    assert abs(eval_quartic(cfg, math.sqrt(s), float(theta))) <= bound

    def test_two_roots_in_oval_regimes(self):
        cfg = TripleConfig(35, 30, 5)  # above the quadratic mean: closed oval
        roots = solve_r2(cfg, math.pi / 2)
        assert len(roots) == 2
        assert roots[0] < roots[1]

    def test_homogeneity(self):
        cfg = TripleConfig(9, 4, 1.5)
        lam = 3.7
        for theta in (0.6, 1.1, 2.4):
            base = solve_r2(cfg, theta)
            rescaled = solve_r2(scaled(cfg, lam), theta)
            assert len(base) == len(rescaled)
            for s, t in zip(base, rescaled):
                assert t == pytest.approx(lam * lam * s, rel=1e-12)

    @pytest.mark.parametrize("power", [-500, -130, 130, 500])
    def test_power_of_two_scalings_are_exact(self, power):
        # the solve runs on the unit copy, so a scaled triple's roots are
        # the roots scaled, bit for bit; on the raw heights B^2 - 4AC
        # overflowed or underflowed at most of these scales
        for b in (30.0, 25.0, 7.0, 6.0):
            cfg = TripleConfig(35.0, b, 5.0)
            for theta in (0.3, 1.0, 1.5, 2.2):
                rescaled = solve_r2(scaled(cfg, 2.0**power), theta)
                assert rescaled == [math.ldexp(s, 2 * power) for s in solve_r2(cfg, theta)]

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_roots_outside_the_normal_floats_are_named(self, power):
        for b in (30.0, 25.0, 7.0, 6.0):
            cfg = TripleConfig(35.0, b, 5.0)
            for theta in (0.3, 1.0, 1.5, 2.2):
                if solve_r2(cfg, theta):
                    with pytest.raises(GeometryError, match=r"^roots r\^2 of TripleConfig\(.* leave the normal floats$"):
                        solve_r2(scaled(cfg, 2.0**power), theta)

    @pytest.mark.parametrize(
        "heights,theta,scale", [((35, 30, 5), 1.5, 1e40), ((35, 30, 5), 1.5, 1e-50), ((4, 2, 1), 1.0, 1e40)]
    )
    def test_roots_at_extreme_scales(self, heights, theta, scale):
        # the raw heights gave [] for (35, 30, 5) and [inf] for (4, 2, 1) at
        # 1e40, where B^2 - 4AC overflowed, and roots off by a quarter at
        # 1e-50, where B^2 underflowed
        base = solve_r2(TripleConfig(*heights), theta)
        scaled = solve_r2(TripleConfig(*(h * scale for h in heights)), theta)
        assert 0 < len(base) == len(scaled)
        for s, t in zip(base, scaled):
            assert t == pytest.approx(s * scale * scale, rel=1e-12, abs=0.0)


# ovals narrower than the grid spacing around pi/2: AboveQuadratic with
# b near a (0.00305 rad wide against pi/1024), BelowHarmonic with b near c
NARROW_OVALS = [
    (TripleConfig(289.5518751638477, 289.1118833932628, 63.65994921183639), 1024),
    (TripleConfig(0.4809855699200027, 0.16079956758193592, 0.15958737703644485), 64),
]


class TestSampleCurve:
    def test_circle_sample_count_and_radius(self):
        curve = sample_curve(TripleConfig(4, 2, 1), 100)
        assert len(curve) == 100
        assert all(r == pytest.approx(2.0, abs=1e-13) for r in curve.r.tolist())

    def test_hyperbola_window(self):
        curve = sample_curve(TripleConfig(35, 25, 5), 100)
        assert len(curve)
        assert all(math.pi / 4 < t < 3 * math.pi / 4 for t in curve.theta.tolist())

    def test_sorted_by_theta_then_r(self):
        curve = sample_curve(TripleConfig(35, 30, 5), 64)
        keys = list(zip(curve.theta.tolist(), curve.r.tolist()))
        assert keys == sorted(keys)

    def test_rank_is_position_at_its_angle(self):
        curve = sample_curve(TripleConfig(35, 30, 5), 64)
        theta, rank = curve.theta.tolist(), curve.rank.tolist()
        for i, (t, k) in enumerate(zip(theta, rank)):
            assert k == (1 if i > 0 and theta[i - 1] == t else 0)
        assert set(rank) == {0, 1}

    def test_scaling_moves_r_only(self):
        lam = 2.5
        base = sample_curve(TripleConfig(9, 4, 1.5), 50)
        rescaled = sample_curve(scaled(TripleConfig(9, 4, 1.5), lam), 50)
        assert len(base) == len(rescaled)
        assert np.array_equal(rescaled.theta, base.theta)
        for s, t in zip(base.r.tolist(), rescaled.r.tolist()):
            assert t == pytest.approx(lam * s, rel=1e-12)

    @pytest.mark.parametrize("power", [-900, -200, -120, -1, 1, 120, 200, 900])
    def test_power_of_two_scalings_are_exact(self, power):
        # the solve runs at one scale, so a scaled triple's points are the
        # points scaled, bit for bit, as long as they stay normal floats
        for b in (30.0, 25.0, 7.0, 6.0):
            cfg = TripleConfig(35.0, b, 5.0)
            base, rescaled = sample_curve(cfg, 65), sample_curve(scaled(cfg, 2.0**power), 65)
            assert np.array_equal(rescaled.theta, base.theta) and np.array_equal(rescaled.rank, base.rank)
            for column in ("r", "x", "y"):
                assert np.array_equal(getattr(rescaled, column), np.ldexp(getattr(base, column), power)), column

    def test_extreme_height_span_is_named(self):
        with pytest.raises(GeometryError, match=r"heights \(1e\+300, 1.0, 1e-300\) span more than float64"):
            sample_curve(TripleConfig(1e300, 1.0, 1e-300), 9)

    def test_grid_margins(self):
        grid = theta_grid(8)
        assert grid[0] == pytest.approx(math.pi / 32, rel=1e-15, abs=0.0)
        assert grid[-1] == pytest.approx(math.pi - math.pi / 32, rel=1e-15, abs=0.0)
        with pytest.raises(GeometryError):
            theta_grid(1)

    def test_points_satisfy_angle_oracle(self):
        cfg = TripleConfig(35, 10, 5)
        a, b, c = AxisPoint(35), AxisPoint(10), AxisPoint(5)
        curve = sample_curve(cfg, 64)
        for x, y in zip(curve.x.tolist(), curve.y.tolist()):
            assert abs(equal_angle_residual(HPoint(x, y), a, b, c).value) <= 1e-9

    def test_off_curve_points_fail_oracle(self):
        cfg = TripleConfig(35, 10, 5)
        a, b, c = AxisPoint(35), AxisPoint(10), AxisPoint(5)
        curve = sample_curve(cfg, 16)
        for x, y in zip(curve.x.tolist(), curve.y.tolist()):
            for factor in (0.95, 1.05):
                bumped = HPoint(x * factor, y * factor)
                assert abs(equal_angle_residual(bumped, a, b, c).value) > 1e-9

    def test_csv_serialization(self):
        curve = sample_curve(TripleConfig(4, 2, 1), 4)
        text = samples_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,r,x,y"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(2.0, abs=1e-13)

    def test_csv_traced_peak_at_most_a_whole_curve_template(self):
        # samples_to_csv formats in blocks, so its traced peak stays at or
        # below that of one "%.17g" template over the whole 2^18-row curve,
        # which holds 2^20 float objects at once
        n = 2**18
        rng = np.random.default_rng(3)
        theta, r = np.sort(rng.uniform(0.1, 3.0, n)), rng.uniform(0.5, 2.0, n)
        curve = Curve(theta, r, r * np.cos(theta), r * np.sin(theta), np.zeros(n, np.intp))

        def template(curve):
            table = np.column_stack((curve.theta, curve.r, curve.x, curve.y))
            return "theta,r,x,y\n" + ("%.17g,%.17g,%.17g,%.17g\n" * len(curve)) % tuple(table.ravel().tolist())

        texts, peaks = [], []
        for write in (samples_to_csv, template):
            tracemalloc.start()
            try:
                texts.append(write(curve))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert texts[0] == texts[1]
        assert peaks[0] <= peaks[1]

    @pytest.mark.parametrize("b", [30.0, 25.0, 20.0, 7.0])
    def test_samples_meet_eval_invariant(self, b):
        cfg = TripleConfig(35.0, b, 5.0)
        q = coefficients(cfg)
        curve = sample_curve(cfg, 128)
        for r, theta, y in zip(curve.r.tolist(), curve.theta.tolist(), curve.y.tolist()):
            bound = 1e-9 * max(abs(q.alpha) * r**4, abs(q.gamma), 1.0)
            assert abs(eval_quartic(cfg, r, theta)) <= bound
            assert y > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_radius_past_the_float_range_is_named(self):
        # the largest radius of the unit copy, scaled back by 2^1024,
        # overflowed in numpy's ldexp, with its warning
        with pytest.raises(GeometryError, match=r"^radius r of TripleConfig\(.* \* 2\*\*1024, lies past the float range$"):
            sample_curve(TripleConfig(1.7e308, 1.2e308, 1e307), 65)

    def test_svg_frame_past_the_float_range_is_named(self):
        curve = sample_curve(TripleConfig(1.5e308, 1e308, 5e307), 65)
        with pytest.raises(GeometryError, match=r"^the SVG frame of the curve does not fit in float64: .* span inf by "):
            render_svg(curve)

    @pytest.mark.parametrize("cfg,n", NARROW_OVALS, ids=["above-quadratic", "below-harmonic"])
    def test_narrow_oval_missed_by_even_grid(self, cfg, n):
        # both grid angles nearest pi/2 fall outside the oval; an odd grid
        # samples pi/2 itself, where r = b lies on every locus
        empty = sample_curve(cfg, n)
        assert len(empty) == 0
        assert samples_to_csv(empty) == "theta,r,x,y\n"
        with pytest.raises(GeometryError):
            render_svg(empty)
        for odd in (n - 1, n + 1):
            curve = sample_curve(cfg, odd)
            assert len(curve) == 2
            assert curve.theta[0] == curve.theta[1] == pytest.approx(math.pi / 2, rel=1e-15, abs=0.0)
            assert any(r == pytest.approx(cfg.b, rel=1e-12) for r in curve.r.tolist())

    @pytest.mark.parametrize(
        "x,y",
        [([1.0, math.inf], [1.0, 1.0]), ([1.0, 1.0], [1.0, math.nan]), ([1.0, 1.0], [1.0, 0.0]), ([1.0], [-2.0])],
    )
    def test_curve_rejects_points_off_the_half_plane(self, x, y):
        # the checks HPoint makes per point, over the columns
        n = len(x)
        with pytest.raises(GeometryError):
            Curve(np.ones(n), np.ones(n), np.array(x), np.array(y), np.zeros(n, dtype=np.intp))

    def test_curve_names_mismatched_column_lengths(self):
        four, two = np.linspace(0.5, 2.5, 4), np.ones(2)
        with pytest.raises(GeometryError, match="theta 4, r 2, x 4, y 4, rank 4"):
            Curve(four, two, four, four, np.zeros(4, np.intp))
        with pytest.raises(GeometryError, match="rank 3"):
            Curve(four, four, four, four, np.zeros(3, np.intp))

    @pytest.mark.parametrize(
        "theta",
        [theta_grid(64), theta_grid(1024), np.random.default_rng(11).uniform(0.0, math.pi, 2**16)],
        ids=["grid64", "grid1024", "random"],
    )
    def test_numpy_trigonometry_equals_libm(self, theta):
        # sample_curve takes x and y from np.cos and np.sin; the curve bytes
        # and goldens hold wherever these equal math.cos and math.sin
        angles = theta.tolist()
        assert np.cos(theta).tolist() == [math.cos(t) for t in angles]
        assert np.sin(theta).tolist() == [math.sin(t) for t in angles]


RESIDUAL = euclidean_equal_angle_residual


class TestEuclideanLocus:
    def test_circle_4_2_1(self):
        locus = euclidean_locus(4, 2, 1)
        assert isinstance(locus, AxisCircle)
        assert locus.center_y == pytest.approx(0.0, abs=1e-14)
        assert locus.radius == pytest.approx(2.0, rel=1e-14, abs=0.0)

    def test_line_when_b_is_midpoint(self):
        assert euclidean_locus(5, 3, 1) == HorizontalLine(height=3.0)

    def test_9_4_1(self):
        # y_d = (18 - 4 - 36)/(10 - 8) = -11
        locus = euclidean_locus(9, 4, 1)
        assert isinstance(locus, AxisCircle)
        assert locus.center_y == pytest.approx(-3.5, rel=1e-14, abs=0.0)
        assert locus.radius == pytest.approx(7.5, rel=1e-14, abs=0.0)

    def test_9_4_1_distance_ratio(self):
        # Apollonius property: PA/PC = AB/BC = 5/3 on the whole circle
        locus = euclidean_locus(9, 4, 1)
        for t in np.linspace(0.1, 2 * math.pi, 17):
            x = locus.radius * math.cos(t)
            y = locus.center_y + locus.radius * math.sin(t)
            pa = math.hypot(x, y - 9.0)
            pc = math.hypot(x, y - 1.0)
            assert pa / pc == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_ordering_only_no_positivity(self):
        # the flat-plane locus is defined for nonpositive heights too
        assert isinstance(euclidean_locus(2, 1, 0), HorizontalLine)

    def test_residual_zero_on_circle(self):
        assert euclidean_equal_angle_residual((2.0, 0.0), 4, 2, 1) == pytest.approx(0.0, abs=1e-15)

    def test_residual_zero_on_line(self):
        assert euclidean_equal_angle_residual((7.0, 3.0), 5, 3, 1) == pytest.approx(0.0, abs=1e-15)

    def test_residual_nonzero_off_circle(self):
        assert abs(euclidean_equal_angle_residual((3.0, 0.0), 4, 2, 1)) > 1e-3

    @pytest.mark.parametrize("k", [-600, -900, -1000])
    def test_residual_of_short_vectors(self, k):
        # products of components near 2^k underflow: the angles once read
        # atan2(0, 0) = 0, and the residual 0 off the locus
        s = 2.0**k
        point, heights = (3.0 * s, 0.5 * s), (4.0 * s, 2.0 * s, 1.0 * s)
        residual = euclidean_equal_angle_residual(point, *heights)
        assert residual == pytest.approx(euclidean_equal_angle_residual((3.0, 0.5), 4, 2, 1), abs=1e-15)
        assert residual == pytest.approx(exact_residuals(*point, heights, flat=True)[0], abs=1e-15)
        assert abs(residual) > 1e-3

    def test_residual_requires_descending_heights(self):
        with pytest.raises(OrderingError, match=r"a > b > c"):
            euclidean_equal_angle_residual((1.0, 1.0), 1, 2, 3)

    def test_residual_on_axis_rejected(self):
        with pytest.raises(OnAxisError):
            euclidean_equal_angle_residual((0.0, 5.0), 4, 2, 1)

    @pytest.mark.parametrize(
        "function,args,message",
        [
            # the limit as a grows is the circle of center 1 and radius 1,
            # not the line at height inf
            pytest.param(euclidean_locus, (math.inf, 2, 1), "a must be finite, got inf", id="locus-a-inf"),
            pytest.param(euclidean_locus, (3, math.nan, 1), "b must be finite, got nan", id="locus-b-nan"),
            pytest.param(euclidean_locus, (3, 2, -math.inf), "c must be finite, got -inf", id="locus-c-neg-inf"),
            # the residual read 0.0 at each infinite coordinate, a point on the locus
            pytest.param(RESIDUAL, ((math.inf, 1.0), 3, 2, 1), "x must be finite, got inf", id="residual-x-inf"),
            pytest.param(RESIDUAL, ((1.0, math.inf), 3, 2, 1), "y must be finite, got inf", id="residual-y-inf"),
            pytest.param(RESIDUAL, ((1.0, -math.inf), 3, 2, 1), "y must be finite, got -inf", id="residual-y-neg-inf"),
            pytest.param(RESIDUAL, ((math.nan, 1.0), 3, 2, 1), "x must be finite, got nan", id="residual-x-nan"),
            pytest.param(RESIDUAL, ((1.0, 1.0), math.inf, 2, 1), "a must be finite, got inf", id="residual-a-inf"),
        ],
    )
    def test_rejects_nonfinite_input(self, function, args, message):
        with pytest.raises(GeometryError) as caught:
            function(*args)
        assert type(caught.value) is GeometryError
        assert str(caught.value) == message

"""Half-plane primitives: angles and the judge, and the test reference's geodesics, tangents and distance."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from apollonius.halfplane import (
    AxisPoint,
    DegenerateInputError,
    GeometryError,
    HPoint,
    OnAxisError,
    OrderingError,
    equal_angle_residual,
    hyp_angle,
    _axis_residuals,
)

from _exact_residuals import exact_angle, exact_residuals
from _geodesics import Arc, VerticalRay, axis_center, geodesic_through, hyp_distance, tangent_direction

LN4 = 1.3862943611198906

# positive floats of every binary exponent from -1074 to 1023, subnormals
# included: against the point's own scale, heights overflow to inf or
# vanish, and either coordinate can round to 0
magnitude = st.builds(math.ldexp, st.floats(min_value=1.0, max_value=2.0, exclude_max=True), st.integers(-1074, 1023))


class TestPointTypes:
    def test_rejects_nonpositive_height(self):
        with pytest.raises(GeometryError):
            HPoint(1.0, 0.0)
        with pytest.raises(GeometryError):
            HPoint(1.0, -2.0)
        with pytest.raises(GeometryError):
            AxisPoint(0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(GeometryError):
            HPoint(math.inf, 1.0)
        with pytest.raises(GeometryError):
            AxisPoint(math.nan)

    def test_arc_radius_positive(self):
        # the test reference's arc; the frozen witness path raises this where its arc degenerates
        with pytest.raises(GeometryError):
            Arc(center=0.0, radius=0.0)


class TestGeodesicThrough:
    def test_point_to_axis_center_formula(self):
        # P=(1,2) to A=(0,4): center (1+4-16)/2 = -5.5
        g = geodesic_through(HPoint(1, 2), HPoint(0, 4))
        assert isinstance(g, Arc)
        assert g.center == -5.5
        assert g.radius == pytest.approx(math.sqrt(6.5**2 + 2**2), rel=1e-15, abs=0.0)

    def test_equal_abscissas_give_vertical_ray(self):
        g = geodesic_through(HPoint(0.5, 1), HPoint(0.5, 3))
        assert g == VerticalRay(x0=0.5)

    def test_both_abscissas_zero_give_vertical_ray(self):
        assert geodesic_through(HPoint(0.0, 1.0), HPoint(0.0, 3.0)) == VerticalRay(x0=0.0)

    def test_vertical_test_is_relative(self):
        # abscissas 2^-45 apart are an arc at every scale, as at scale 1
        for k in (-45, 0, 45):
            s = math.ldexp(1.0, k)
            g = geodesic_through(HPoint(3 * s, s), HPoint(4 * s, 2 * s))
            assert g == Arc(center=5.0 * s, radius=math.hypot(2.0, 1.0) * s)

    def test_symmetric_pair(self):
        g = geodesic_through(HPoint(-1, 1), HPoint(1, 1))
        assert isinstance(g, Arc)
        assert g.center == 0.0
        assert g.radius == pytest.approx(math.sqrt(2), rel=1e-15, abs=0.0)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            geodesic_through(HPoint(1, 2), HPoint(1, 2))

    @pytest.mark.parametrize(
        "p,q",
        [
            (HPoint(1, 2), HPoint(0.25, 4)),
            (HPoint(-3, 0.5), HPoint(7, 0.01)),
            (HPoint(2, 1), HPoint(2 + 1e-13, 5)),
            (HPoint(1e6, 2e-3), HPoint(-1e6, 345.0)),
        ],
    )
    def test_both_endpoints_on_curve(self, p, q):
        g = geodesic_through(p, q)
        for point in (p, q):
            if isinstance(g, VerticalRay):
                residual = abs(point.x - g.x0)
            else:
                residual = abs(math.hypot(point.x - g.center, point.y) - g.radius)
            scale = max(1.0, abs(point.x), point.y)
            assert residual <= 1e-12 * scale


class TestTangentDirection:
    def test_top_of_circle_is_horizontal(self):
        t = tangent_direction(Arc(center=0.0, radius=2.0), HPoint(0, 2))
        assert abs(t[0]) == pytest.approx(1.0, abs=1e-15)
        assert t[1] == pytest.approx(0.0, abs=1e-15)

    def test_vertical_ray(self):
        assert tangent_direction(VerticalRay(x0=1.0), HPoint(1, 5)) == (0.0, 1.0)

    def test_perpendicular_to_radius(self):
        # Arc{center 1, radius sqrt2} at (0,1): direction along (-1,-1)
        g = Arc(center=1.0, radius=math.sqrt(2))
        p = HPoint(0, 1)
        t = tangent_direction(g, p)
        radial = (p.x - g.center, p.y)
        assert t[0] * radial[0] + t[1] * radial[1] == pytest.approx(0.0, abs=1e-15)
        assert t[0] == pytest.approx(t[1], rel=1e-15, abs=0.0)  # collinear with (-1,-1)
        assert math.hypot(*t) == pytest.approx(1.0, rel=1e-15, abs=0.0)


class TestHypAngle:
    def test_opposite_directions_along_vertical(self):
        angle = hyp_angle(HPoint(0, 2), HPoint(0, 4), HPoint(0, 1))
        assert angle == pytest.approx(math.pi, abs=1e-15)

    def test_same_direction_zero(self):
        angle = hyp_angle(HPoint(0, 2), HPoint(0, 4), HPoint(0, 8))
        assert angle == 0.0

    def test_coincident_targets_rejected(self):
        with pytest.raises(DegenerateInputError):
            hyp_angle(HPoint(2, 2), HPoint(0, 1), HPoint(0, 1))

    def test_vertex_equal_target_rejected(self):
        with pytest.raises(DegenerateInputError):
            hyp_angle(HPoint(2, 2), HPoint(2, 2), HPoint(0, 1))

    def test_matches_center_construction(self):
        # angle at P=(sqrt3,1) between geodesics to (0,4) and (0,1) equals the
        # Euclidean angle between the radius vectors from the arc centers
        p = HPoint(math.sqrt(3), 1)
        expected = 0.6669463445036642  # frozen from the center-formula oracle
        for h1, h2 in ((4.0, 1.0),):
            m1 = axis_center(p.x, p.y, h1)
            m2 = axis_center(p.x, p.y, h2)
            v1 = (p.x - m1, p.y)
            v2 = (p.x - m2, p.y)
            cross = v1[0] * v2[1] - v1[1] * v2[0]
            dot = v1[0] * v2[0] + v1[1] * v2[1]
            oracle = math.atan2(abs(cross), dot)
            assert oracle == pytest.approx(expected, abs=1e-15)
        got = hyp_angle(p, HPoint(0, 4), HPoint(0, 1))
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_scale_invariant_at_extreme_scales(self, k):
        # the tangents square coordinate differences, which leave the float
        # range at 2^±600 unless the coordinates are first divided by a
        # power of two
        s = math.ldexp(1.0, k)
        p, q1, q2 = (1.5, 0.8), (0.0, 5.0), (-2.0, 0.5)
        scaled = hyp_angle(*(HPoint(x * s, y * s) for x, y in (p, q1, q2)))
        assert scaled == hyp_angle(*(HPoint(x, y) for x, y in (p, q1, q2)))

    def test_short_tangents_keep_their_angle(self):
        # the tangents are about 2^-1200 long: scaled by one power of two for
        # the pair, their products underflowed and the angle read 0.0
        p, q1, q2 = (2.0**-600, 2.0**-600), (0.0, 1.0), (0.0, 2.0**-599)
        angle = hyp_angle(HPoint(*p), HPoint(*q1), HPoint(*q2))
        assert angle == exact_angle(*p, q1[1], q2[1])
        assert angle == pytest.approx(0.4636476090008061, abs=1e-15)

    def test_additivity_through_middle_point(self):
        # orientation convention makes angle(a,c) = angle(a,b) + angle(b,c)
        p = HPoint(1.5, 0.8)
        a, b, c = HPoint(0, 5), HPoint(0, 2), HPoint(0, 0.5)
        total = hyp_angle(p, a, c)
        parts = hyp_angle(p, a, b) + hyp_angle(p, b, c)
        assert total == pytest.approx(parts, abs=1e-12)


class TestEqualAngleResidual:
    def test_zero_on_geometric_circle(self):
        # b^2 = ac makes the locus the semicircle r = b
        for theta in (0.2, 0.9, 1.4, 2.1, 2.9):
            p = HPoint(2 * math.cos(theta), 2 * math.sin(theta))
            res = equal_angle_residual(p, AxisPoint(4), AxisPoint(2), AxisPoint(1))
            assert abs(res.value) <= 1e-12

    def test_zero_on_quadratic_hyperbola(self):
        # 2b^2 = a^2 + c^2 makes the locus r^2 cos 2theta = -b^2
        for theta in (0.9, 1.2, 2.0):
            r = math.sqrt(-625.0 / math.cos(2 * theta))
            p = HPoint(r * math.cos(theta), r * math.sin(theta))
            res = equal_angle_residual(p, AxisPoint(35), AxisPoint(25), AxisPoint(5))
            assert abs(res.value) <= 1e-12

    def test_nonzero_off_curve(self):
        res = equal_angle_residual(HPoint(3, 1), AxisPoint(4), AxisPoint(2), AxisPoint(1))
        assert abs(res.value) > 1e-3

    def test_on_axis_rejected(self):
        with pytest.raises(OnAxisError):
            equal_angle_residual(HPoint(0, 3), AxisPoint(4), AxisPoint(2), AxisPoint(1))

    def test_bad_ordering_rejected(self):
        with pytest.raises(OrderingError):
            equal_angle_residual(HPoint(1, 1), AxisPoint(2), AxisPoint(4), AxisPoint(1))

    def test_mirror_symmetry_is_exact(self):
        a, b, c = AxisPoint(9), AxisPoint(4), AxisPoint(1)
        for x, y in ((0.7, 1.3), (2.0, 0.01), (31.0, 17.0)):
            left = equal_angle_residual(HPoint(-x, y), a, b, c).value
            right = equal_angle_residual(HPoint(x, y), a, b, c).value
            assert left == right  # bitwise: mirroring negates centers exactly

    def test_scale_invariant_at_the_hyperbolic_witness(self):
        # the (10, 6, 5, 1) witness; an absolute floor in the oracle's
        # vertical test read (-pi, pi) here at 2^-40
        x, y = 1.0792433161247985, 5.4730721524183039
        readings = set()
        for k in (-40, 0, 40):
            s = math.ldexp(1.0, k)
            p = HPoint(x * s, y * s)
            a, b, c, d = (AxisPoint(h * s) for h in (10.0, 6.0, 5.0, 1.0))
            readings.add((equal_angle_residual(p, a, b, c).value, equal_angle_residual(p, b, c, d).value))
        assert len(readings) == 1
        assert max(map(abs, readings.pop())) <= 1e-15

    @pytest.mark.parametrize("k", [-1020, -1000, -600, 600, 1000, 1020])
    def test_scale_invariant_at_extreme_scales(self, k):
        # squared coordinates over- or underflow at these scales; 2^600
        # raised "Arc radius must be positive, got nan", 2^-600 read (0, 0).
        # The judge divides by the power of two of the point itself, so the
        # readings are the same bits at every scale
        x, y = 1.0792433161247985, 5.4730721524183039

        def readings(s):
            p = HPoint(x * s, y * s)
            a, b, c, d = (AxisPoint(h * s) for h in (10.0, 6.0, 5.0, 1.0))
            return equal_angle_residual(p, a, b, c).value, equal_angle_residual(p, b, c, d).value

        assert readings(math.ldexp(1.0, k)) == readings(1.0)

    def test_center_order_reversal(self):
        # heights a > b > c map to centers a' < b' < c' for x > 0
        x, y = 1.7, 2.3
        a_c = axis_center(x, y, 9.0)
        b_c = axis_center(x, y, 4.0)
        c_c = axis_center(x, y, 1.0)
        assert a_c < b_c < c_c
        assert axis_center(-x, y, 9.0) > axis_center(-x, y, 4.0) > axis_center(-x, y, 1.0)


class TestAxisResiduals:
    @given(
        heights=st.lists(magnitude, min_size=4, max_size=4)
        .map(lambda h: tuple(sorted(h, reverse=True)))
        .filter(lambda h: h[0] > h[1] > h[2] > h[3]),
        x=st.builds(lambda sign, v: sign * v, st.sampled_from((1.0, -1.0)), magnitude),
        y=magnitude,
    )
    # x lies more than 2^1074 below y and scales to 0: the directions to
    # the heights above and below y are +-pi/2, so the first angle is pi; a
    # judge that read the sign of a cross product instead of its absolute
    # value gave -pi here
    @example(heights=(2.719426523221848e185, 2.0, 1.0), x=1.2089454884261312e-138, y=2.7194265232218475e185)
    # every value a normal float, the point 2^600 below the largest height:
    # scaled by that height, the tangents were about 2^-1200 long, and
    # products of two of them underflowed
    @example(heights=(1.0, 2.0**-599, 2.0**-601, 2.0**-620), x=2.0**-600, y=2.0**-600)
    # heights whose quotients by the point's scale overflow: their
    # directions are exactly pi/2
    @example(heights=(1e308, 1e300, 2.0**-999, 2.0**-1001), x=2.0**-1000, y=2.0**-1000)
    # heights that vanish below the point's scale: their directions are
    # the limit at h = 0
    @example(heights=(2.0**1001, 2.0**999, 2.0**-1000, 2.0**-1070), x=2.0**1000, y=0.75 * 2.0**1000)
    # y more than 2^1074 below |x| scales to 0: every direction is pi/2
    @example(heights=(2e300, 1e300, 1.0, 1e-300), x=-1e300, y=1e-300)
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_residuals(self, heights, x, y):
        residuals = _axis_residuals(x, y, heights)
        for got, exact in zip(residuals, exact_residuals(x, y, heights), strict=True):
            assert abs(got - exact) <= 1e-15, (residuals, exact)


class TestHypDistance:
    def test_vertical_log_ratio(self):
        assert hyp_distance(HPoint(0, 1), HPoint(0, math.e)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_iff_equal(self):
        p = HPoint(3, 4)
        assert hyp_distance(p, p) == 0.0

    def test_one_to_four(self):
        # arccosh(1 + 9/8) = ln 4
        d = hyp_distance(HPoint(0, 1), HPoint(0, 4))
        assert d == pytest.approx(LN4, rel=1e-12)

    def test_symmetry(self):
        p, q = HPoint(1, 2), HPoint(-3, 0.5)
        assert hyp_distance(p, q) == hyp_distance(q, p)

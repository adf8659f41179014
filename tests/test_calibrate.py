"""P_h in closed form and the calibration root solve, held to the independent reference in _dilog."""

import math
from fractions import Fraction

import pytest

import _dilog
from apollonius import probability
from apollonius.probability import HyperProbSetup, calibrate_ratio, pe_quadrature, ph_quadrature, ph_reference_constant

RATIOS = [1 + 2.0**-50, 1 + 2.0**-10, 1.01, 2.0, 2.1776504042297176, 1000.0, 1e150, 1e160, 1.7e308]

# the ratio in tests/golden/prob_ph_calibrate_reference.json
GOLDEN_RATIO = 2.1776504042297176


def closed_form(ratio: float) -> Fraction:
    fx = probability._fixed_for(ratio)
    return Fraction(probability._ph(ratio, fx), 1 << fx.bits)


def assert_correctly_rounded(value: float, exact: Fraction) -> None:
    assert abs(Fraction(value) - exact) <= Fraction(math.ulp(value)) / 2, (value, float(exact))


@pytest.mark.parametrize("ratio", RATIOS)
def test_closed_form_matches_the_reference(ratio):
    assert abs(closed_form(ratio) - _dilog.ph(ratio)) <= Fraction(1, 1 << 120)


@pytest.mark.parametrize("ratio", RATIOS)
def test_ph_quadrature_is_the_reference_correctly_rounded(ratio):
    assert_correctly_rounded(ph_quadrature(HyperProbSetup(ratio)), _dilog.ph(ratio))


def test_pe_quadrature_is_the_reference_correctly_rounded():
    exact = Fraction((15 << _dilog.BITS) - 16 * _dilog.ln2(), 9 << _dilog.BITS)
    assert_correctly_rounded(pe_quadrature(), exact)


@pytest.mark.parametrize(
    "x", [Fraction(-7), Fraction(-3, 2), Fraction(-1), Fraction(-3, 4), Fraction(-1, 5), Fraction(0),
          Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(10**6 - 1, 10**6)],
)
def test_dilogarithm_on_every_branch(x):
    # inversion, Landen, the series and reflection, against the Bernoulli series
    fx = probability._Fixed(200)
    lib = Fraction(fx.li2(x.numerator, x.denominator), 1 << fx.bits)
    assert abs(lib - Fraction(_dilog.li2(x), 1 << _dilog.BITS)) <= Fraction(1, 1 << 190)


def test_reference_dilogarithm_values():
    # Li2(1/2) = pi^2/12 - ln^2(2)/2 and Li2(-1) = -pi^2/12 (Lewin 1981)
    half, ln2, zeta2 = _dilog.li2(Fraction(1, 2)), _dilog.ln2(), _dilog.zeta2()
    assert abs(2 * half - (zeta2 - (ln2 * ln2 >> _dilog.BITS))) <= 2**20
    assert abs(2 * _dilog.li2(Fraction(-1)) + zeta2) <= 2**20
    assert abs(zeta2 / (1 << _dilog.BITS) - math.pi**2 / 6) <= 1e-15


def assert_root_between_neighbours(found: float, target: float) -> None:
    """P_h - target changes sign between found and one of its neighbouring doubles."""
    ratios = (math.nextafter(found, 0.0), found, math.nextafter(found, math.inf))
    signs = [_dilog.ph(r) - Fraction(target) for r in ratios]
    assert signs[0] * signs[1] <= 0 or signs[1] * signs[2] <= 0, [float(s) for s in signs]


def test_golden_ratio_is_the_root_to_the_last_bit():
    target = ph_reference_constant()
    assert target == 0.4201514931601543
    assert calibrate_ratio(target, (1.01, 1000.0)) == GOLDEN_RATIO
    assert_root_between_neighbours(GOLDEN_RATIO, target)


@pytest.mark.parametrize(
    "ratio, bracket",
    [(1 + 2.0**-10, (1 + 2.0**-12, 1.01)), (1.5, (1.01, 1000.0)), (1e150, (1000.0, 1e300))],
)
def test_calibration_finds_the_root_at_any_scale(ratio, bracket):
    # near 1 the guard bits carry the L^2 cancellation through the solve
    target = float(_dilog.ph(ratio))
    found = calibrate_ratio(target, bracket)
    assert_root_between_neighbours(found, target)


def test_bracket_may_start_at_the_first_double_above_one():
    # P_h there is P_e; the guard bits carry the L^2 cancellation at L ~ 2^-52
    found = calibrate_ratio(0.43, (1.0000000000000002, 2.0))
    assert round(ph_quadrature(HyperProbSetup(found)), 2) == 0.43
    assert_root_between_neighbours(found, 0.43)


@pytest.mark.parametrize(
    "bracket", [(GOLDEN_RATIO, 4.0), (1.5, GOLDEN_RATIO), (1.5, 4.0)], ids=["root-at-lo", "root-at-hi", "root-inside"]
)
def test_an_exact_root_is_returned_as_is(bracket, monkeypatch):
    # P_h replaced by an integer-valued line through (GOLDEN_RATIO, 1/2):
    # f vanishes exactly at a bracket end, or, inside, at the first secant
    # point, which for a line is the root itself rounded once
    def line(ratio, fx):
        return (1 << fx.bits - 1) - int((Fraction(ratio) - Fraction(GOLDEN_RATIO)) * 2**60)

    monkeypatch.setattr(probability, "_ph", line)
    assert calibrate_ratio(0.5, bracket) == GOLDEN_RATIO

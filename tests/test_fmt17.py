"""The bulk formatter against CPython's "%.17g", the independent judge."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apollonius import _fmt17
from apollonius._fmt17 import fmt17_rows


def dtoa_rows(values) -> str:
    return "".join("%.17g\n" % v for v in values)


def assert_prints_as_dtoa(values):
    values = [float(v) for v in values]
    got, want = fmt17_rows([np.array(values)], ["\n"]), dtoa_rows(values)
    if got != want:
        pairs = zip(values, got.splitlines(), want.splitlines())
        wrong = [(v, g, w) for v, g, w in pairs if g != w]
        pytest.fail(f"{len(wrong)} values print differently, e.g. (value, kernel, dtoa) {wrong[:3]}")


def ulp_steps(x: float, steps: int) -> list[float]:
    out, up, down = [], x, x
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


bit_patterns = st.integers(min_value=0, max_value=2**64 - 1).map(lambda i: struct.unpack("<d", struct.pack("<Q", i))[0])
log_uniform = st.builds(
    lambda sign, log10: sign * 10.0**log10,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=-240.0, max_value=240.0),
)


@given(st.lists(bit_patterns, min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_raw_bit_patterns(values):
    assert_prints_as_dtoa(values)


@given(st.lists(log_uniform, min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_log_uniform_magnitudes(values):
    assert_prints_as_dtoa(values)


def test_powers_of_ten_and_their_neighbours():
    # the decade boundaries: 10^k itself and 1-2 ulp on either side, where
    # log10 and the rounding of the scaled value can both cross a decade
    values = []
    for k in range(-110, 111):
        p = float(f"1e{k}")
        values += [p, -p, *ulp_steps(p, 2)]
    values += [9.9999999999999999e-96, 9.99999999999999999e16, 1e16 - 1.0, 1e17 - 8.0]
    assert_prints_as_dtoa(values)


def test_halfway_ties():
    # values with 18 significant digits ending in 5 lie halfway between two
    # 17-digit decimals; dtoa rounds them half to even, the kernel half up,
    # so it must hand them to dtoa. Below 2^-23 the power of ten that
    # scales them is inexact as well
    ties = [i + f for i in range(10**15, 10**15 + 20) for f in (0.25, 0.75)]
    ties += [m * 2.0**-24 for m in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25]
    assert_prints_as_dtoa(ties + [-t for t in ties])


def test_signed_zeros_subnormals_and_exponent_width():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
    values += [1e99, 1e-99, 1e100, 1e-100, -1e99, -1e100, 9.999999999999999e99, 1.0000000000000001e-99]
    values += [1.7976931348623157e308, math.inf, -math.inf, math.nan]
    assert_prints_as_dtoa(values)


def test_fixed_and_scientific_notation_edges():
    # %.17g prints fixed notation for decades -4 ... 16 and drops trailing zeros
    values = [1e-5, 1.5e-5, 1e-4, 1.5e-4, 0.001, 0.5, 1.0, 1.5, 10.0, 100.5, 123456.0]
    values += [1e15, 1.5e15, 1e16, 1.5e16, 12345678901234567.0, 1e17, 1.5e17, 2.0**60, 0.1, 0.2, 0.3]
    assert_prints_as_dtoa(values + [-v for v in values])


def test_columns_rows_and_separators():
    a, b = np.array([1.5, -2.0, 1e-300]), np.array([3e-7, 7.0, math.nan])
    want = "".join(f"{x:.17g},{y:.17g} |" for x, y in zip(a.tolist(), b.tolist()))
    assert fmt17_rows([a, b], [",", " |"]) == want
    assert fmt17_rows([a.tolist(), b.tolist()], [",", " |"]) == want
    assert fmt17_rows([np.array([])], ["\n"]) == ""
    with pytest.raises(ValueError, match="at most 4"):
        fmt17_rows([a], [", and "])


def test_unequal_column_lengths_rejected():
    with pytest.raises(ValueError, match=r"equal lengths, got \[4, 2\]"):
        fmt17_rows(([1.0, 2.0, 3.0, 4.0], [5.0, 6.0]), (",", "\n"))


@pytest.mark.parametrize("seps", [(",",), (",", ";", "\n"), ()])
def test_separator_count_must_match_columns(seps):
    with pytest.raises(ValueError, match="one separator per column"):
        fmt17_rows(([1.5], [2.5]) if seps else (), seps)


@pytest.mark.parametrize("sep", ["\0", ",\0"])
def test_nul_separators_rejected(sep):
    # a NUL would be dropped with the empty byte slots, so "1.5" and "2.5"
    # would run together
    with pytest.raises(ValueError, match="characters other than NUL"):
        fmt17_rows(([1.5], [2.5]), (sep, "\n"))


@pytest.mark.parametrize("sep", ["\u00e9", "\u2009"])
def test_non_ascii_separators_rejected(sep):
    with pytest.raises(ValueError):
        fmt17_rows(([1.5], [2.5]), (sep, "\n"))


def test_blocks_join_seamlessly(monkeypatch):
    monkeypatch.setattr(_fmt17, "_BLOCK", 7)
    rng = np.random.default_rng(5)
    columns = [rng.uniform(-3.0, 3.0, 50) * 10.0 ** rng.integers(-30, 30, 50) for _ in range(3)]
    want = "".join("%.17g;%.17g;%.17g\n" % row for row in zip(*(c.tolist() for c in columns)))
    assert fmt17_rows(columns, [";", ";", "\n"]) == want


def test_power_table_is_the_rounded_exact_powers():
    powers = _fmt17._build_tables()[0]
    for row, k in enumerate(range(-_fmt17._K_MAX, _fmt17._K_MAX + 1)):
        exact = Fraction(10) ** (16 - k)
        hi, lo, head, tail = powers[:, row].tolist()
        assert hi == float(exact) and lo == float(exact - Fraction(hi)), k
        # halves narrow enough that Dekker's partial products are exact
        assert head + tail == hi and significant_bits(head) <= 26 and significant_bits(tail) <= 26, k


def significant_bits(x: float) -> int:
    n = abs(x.as_integer_ratio()[0])
    return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0

"""Counter-based generator: purity, scalar/vector agreement, distribution."""

import numpy as np
import pytest

from apollonius._base import GeometryError
from apollonius.probability import _CHUNK
from apollonius.rng import PairBuffers, SampleStream, _pair_integers, sample_uniform


def _pair(seed, lo, hi, buffers=None):
    """Draws 0 and 1 of samples lo..hi-1 as variates, rows 0 and 1; fresh buffers unless given."""
    return _pair_integers(seed, lo, hi, PairBuffers(hi - lo) if buffers is None else buffers) * 2.0**-53


def test_pure_function_of_key():
    assert sample_uniform(0, 0, 0) == sample_uniform(0, 0, 0)
    # frozen regression values pin the bit stream across refactors
    assert sample_uniform(0, 0, 0) == pytest.approx(0.6524484863740322, abs=0.0)
    assert sample_uniform(0, 0, 1) == pytest.approx(0.7012121095215252, abs=0.0)
    assert sample_uniform(12345, 999, 0) == pytest.approx(0.9738356278937252, abs=0.0)


@pytest.mark.parametrize("seed", [2**64, -1])
def test_seeds_outside_64_bits_rejected(seed):
    # reduced modulo 2^64, each ran another seed's stream: 2^64 that of 0
    with pytest.raises(GeometryError, match=r"seed must lie in \[0, 2\^64\), got "):
        sample_uniform(seed, 5, 0)


def test_largest_seed_keeps_its_bits():
    # the check passes 2^64 - 1 through: its variate is the one it had
    # before seeds were checked, which seed -1 used to reach too
    assert sample_uniform(2**64 - 1, 5, 0) == 0.005278265288656048
    assert SampleStream(2**64 - 1, 5).next_float() == 0.005278265288656048


def test_distinct_keys_decorrelate():
    values = {
        sample_uniform(0, 0, 0),
        sample_uniform(0, 0, 1),
        sample_uniform(0, 1, 0),
        sample_uniform(1, 0, 0),
    }
    assert len(values) == 4


def _pair_matches_scalar(seed, lo, hi):
    first, second = _pair(seed, lo, hi)
    assert first.dtype == second.dtype == np.float64
    assert (first == np.array([sample_uniform(seed, i, 0) for i in range(lo, hi)])).all()
    assert (second == np.array([sample_uniform(seed, i, 1) for i in range(lo, hi)])).all()


def test_vector_matches_scalar_bitwise():
    _pair_matches_scalar(7, 100, 105)


def test_pair_matches_scalar_across_a_chunk_boundary():
    _pair_matches_scalar(7, _CHUNK - 5, _CHUNK + 5)


def test_pair_matches_scalar_at_the_largest_seed():
    _pair_matches_scalar(2**64 - 1, 0, 6)


def test_huge_seed_and_index():
    _pair_matches_scalar(2**64 - 1, 10**7, 10**7 + 3)


def test_pair_matches_scalar_at_a_large_index():
    _pair_matches_scalar(3, 10**12, 10**12 + 6)


def test_pair_splits_cleanly():
    lo, mid, hi = 1000, 1000 + 4099, 1000 + 9000
    whole = _pair(11, lo, hi)
    halves = _pair(11, lo, mid), _pair(11, mid, hi)
    for draw in (0, 1):
        assert (whole[draw] == np.concatenate([h[draw] for h in halves])).all()


def test_pair_in_reused_buffers_matches_fresh():
    buffers = PairBuffers(4096)
    for lo, hi in ((0, 4096), (10**9, 10**9 + 37), (77, 4000)):
        assert (_pair(5, lo, hi, buffers) == _pair(5, lo, hi)).all()


def test_stream_advances_draws():
    stream = SampleStream(42, 5)
    first, second = stream.next_float(), stream.next_float()
    assert first == sample_uniform(42, 5, 0)
    assert second == sample_uniform(42, 5, 1)
    assert first != second


def test_range_and_moments():
    for block in _pair(2024, 0, 200_000):
        assert (block >= 0.0).all() and (block < 1.0).all()
        assert block.mean() == pytest.approx(0.5, abs=0.005)
        assert block.var() == pytest.approx(1.0 / 12.0, abs=0.002)

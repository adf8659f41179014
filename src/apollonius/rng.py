"""Counter-based uniform variates for reproducible Monte Carlo.

Every variate is a pure function of (seed, sample index, draw number)
through two chained SplitMix64 steps: the sample index keys a per-sample
state, the draw number advances within the sample. Sharding work across
threads or processes therefore cannot change a single bit of any
estimate, and rejected draws inside one sample never shift the variates
of another.

A scalar path (Python integers) and a vectorized path (uint64 arrays)
implement the identical mixing function; tests assert they agree bit for
bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_uniform", "uniform_block", "uniform_pair", "PairBuffers", "SampleStream"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _sample_key(seed: int, index: int) -> int:
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK)


def sample_uniform(seed: int, index: int, draw: int) -> float:
    """Uniform variate in [0, 1) for the given (seed, sample, draw) triple."""
    word = _mix((_sample_key(seed, index) + (draw + 1) * _GOLDEN) & _MASK)
    return (word >> 11) * _INV_2_53


def uniform_block(seed: int, lo: int, hi: int, draw: int) -> np.ndarray:
    """Vectorized sample_uniform over sample indices lo..hi-1."""
    key = _key_offsets(hi - lo)
    tmp = np.empty_like(key)
    _key_block(seed, lo, key, key, tmp)  # the offsets turn into the keys in place
    return _draw_block(key, draw, key, tmp, np.empty(hi - lo))


def uniform_pair(
    seed: int, lo: int, hi: int, buffers: PairBuffers | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draws 0 and 1 of sample indices lo..hi-1: uniform_block(seed, lo, hi, 0) and (.., 1).

    The per-sample key is derived once for both draws, and every step
    runs in place. Given PairBuffers of at least hi - lo samples, the
    draws are computed in them and returned as views that the next call
    with the same buffers overwrites; a loop over many blocks then
    allocates nothing per block. Without, fresh buffers are used.
    """
    n = hi - lo
    b = PairBuffers(n) if buffers is None else buffers
    key, word, tmp = b.key[:n], b.word[:n], b.tmp[:n]
    _key_block(seed, lo, b.offsets[:n], key, tmp)
    u = _draw_block(key, 0, word, tmp, b.out[0, :n])
    v = _draw_block(key, 1, word, tmp, b.out[1, :n])
    return u, v


class PairBuffers:
    """Working memory of uniform_pair for blocks of up to `size` samples."""

    def __init__(self, size: int):
        self.offsets = _key_offsets(size)
        self.key = np.empty(size, dtype=np.uint64)
        self.word = np.empty(size, dtype=np.uint64)
        self.tmp = np.empty(size, dtype=np.uint64)
        self.out = np.empty((2, size))


def _key_offsets(n: int) -> np.ndarray:
    """i * golden for i < n: index lo + i adds this to the key of index lo."""
    offsets = np.arange(n, dtype=np.uint64)
    offsets *= np.uint64(_GOLDEN)
    return offsets


def _key_block(seed: int, lo: int, offsets: np.ndarray, key: np.ndarray, tmp: np.ndarray) -> None:
    """_sample_key of indices lo..lo+len(key)-1 into key, from _key_offsets; tmp is scratch."""
    np.add(offsets, np.uint64(((int(lo) + 1) * _GOLDEN + int(seed)) & _MASK), out=key)
    _mix_inplace(key, tmp)


def _draw_block(
    key: np.ndarray, draw: int, word: np.ndarray, tmp: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Uniforms of one draw from a key block, into out; word (may be key) and tmp are scratch."""
    np.add(key, np.uint64(((draw + 1) * _GOLDEN) & _MASK), out=word)
    _mix_inplace(word, tmp)
    word >>= np.uint64(11)
    np.copyto(out, word, casting="unsafe")  # exact: word < 2^53
    out *= _INV_2_53
    return out


def _mix_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """_mix over a uint64 array, in place; tmp is scratch of z's shape."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


class SampleStream:
    """Sequential draws for one sample index.

    next_float() yields draw 0, 1, 2, ... of the sample, so rejection
    loops can take as many variates as they need while staying a pure
    function of (seed, index).
    """

    def __init__(self, seed: int, index: int):
        self.seed = seed
        self.index = index
        self._draw = 0

    def next_float(self) -> float:
        value = sample_uniform(self.seed, self.index, self._draw)
        self._draw += 1
        return value

"""Counter-based uniform variates for reproducible Monte Carlo.

Every variate is a pure function of (seed, sample index, draw number)
through two chained SplitMix64 steps: the sample index keys a per-sample
state, the draw number advances within the sample. Sharding work across
threads or processes therefore cannot change a single bit of any
estimate, and rejected draws inside one sample never shift the variates
of another.

A scalar path (Python integers) and a vectorized path (uint64 arrays)
implement the identical mixing function; tests assert they agree bit for
bit. A variate is a 53-bit integer times 2^-53. The vectorized path
computes k draws of a block of samples as one (k, n) array, keys derived
once and every step in place, and leaves the draws as those integers,
exact as float64; uniform_block and uniform_pair scale them to [0, 1),
while the Monte Carlo kernels fold 2^-53 into their own constants.
uniform_pair computes in a PairBuffers that a loop over many blocks
reuses.
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
    n = _count(lo, hi)
    word, out = np.empty((1, n), dtype=np.uint64), np.empty((1, n))
    _uniforms(seed, lo, (draw,), _key_offsets(n), word, out)
    out *= _INV_2_53
    return out[0]


def uniform_pair(
    seed: int, lo: int, hi: int, buffers: PairBuffers | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draws 0 and 1 of sample indices lo..hi-1: uniform_block(seed, lo, hi, 0) and (.., 1).

    The per-sample key is derived once for both draws, and both draws are
    mixed in one pass over a (2, n) array. Given PairBuffers, the draws
    are computed in them and returned as views of rows 0 and 1 of
    buffers.out, which the next call with the same buffers overwrites; a
    loop over many blocks then allocates nothing per block. Without,
    fresh buffers are used. ValueError if hi < lo or if the buffers hold
    fewer than hi - lo samples.
    """
    draws = _pair_integers(seed, lo, hi, PairBuffers(_count(lo, hi)) if buffers is None else buffers)
    draws *= _INV_2_53
    return draws[0], draws[1]


def _pair_integers(seed: int, lo: int, hi: int, buffers: PairBuffers) -> np.ndarray:
    """Draws 0 and 1 of sample indices lo..hi-1 times 2^53, as rows 0 and 1 of buffers.out.

    Each value is the variate's 53-bit integer, exact as a float64.
    """
    n = _count(lo, hi)
    size = len(buffers.offsets)
    if n > size:
        raise ValueError(f"{n} samples do not fit in PairBuffers of {size}")
    return _uniforms(seed, lo, (0, 1), buffers.offsets[:n], buffers.word[:, :n], buffers.out[:2, :n])


class PairBuffers:
    """Working memory of one block of up to `size` samples, 49 bytes per sample.

    offsets holds i * golden for i < size. word is (2, size) uint64, in
    which uniform_pair mixes its two draws. out is (3, size) float64:
    uniform_pair uses rows 0 and 1 as the mix's scratch and then writes
    draws 0 and 1 there; row 2 is free for the caller, as is flag, a
    bool row of `size`.
    """

    def __init__(self, size: int):
        self.offsets = _key_offsets(size)
        self.word = np.empty((2, size), dtype=np.uint64)
        self.out = np.empty((3, size))
        self.flag = np.empty(size, dtype=np.bool_)


def _count(lo: int, hi: int) -> int:
    if hi < lo:
        raise ValueError(f"sample range ends before it starts: lo={lo}, hi={hi}")
    return hi - lo


def _key_offsets(n: int) -> np.ndarray:
    """i * golden for i < n: index lo + i adds this to the key of index lo."""
    offsets = np.arange(n, dtype=np.uint64)
    offsets *= np.uint64(_GOLDEN)
    return offsets


def _uniforms(
    seed: int,
    lo: int,
    draws: tuple[int, ...],
    offsets: np.ndarray,
    word: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Draws `draws` of sample indices lo..lo+n-1 times 2^53 into the rows of out, from _key_offsets.

    word and out are (len(draws), n); word is scratch, and so is out,
    viewed as uint64, until the draws overwrite it. The sample keys are
    built in word[0] and turned into every row's state from the last row
    back, so row 0 consumes them last.
    """
    tmp = out.view(np.uint64)
    key = word[0]
    np.add(offsets, np.uint64(((int(lo) + 1) * _GOLDEN + int(seed)) & _MASK), out=key)
    _mix_inplace(key, tmp[0])
    for row in range(len(draws) - 1, -1, -1):
        np.add(key, np.uint64(((draws[row] + 1) * _GOLDEN) & _MASK), out=word[row])
    _mix_inplace(word, tmp)
    word >>= np.uint64(11)
    # exact: word < 2^53; the cast from int64 is cheaper than from uint64
    np.copyto(out, word.view(np.int64))
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

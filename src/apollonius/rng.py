"""Counter-based uniform variates for reproducible Monte Carlo.

Every variate is a pure function of (seed, sample index, draw number)
through two chained SplitMix64 steps: the sample index keys a per-sample
state, the draw number advances within the sample. Sharding work across
threads or processes therefore cannot change a single bit of any
estimate, and rejected draws inside one sample never shift the variates
of another.

A scalar path (Python integers) and a vectorized path (uint64 arrays)
implement the identical mixing function; tests assert they agree bit for
bit. A variate is a 53-bit integer times 2^-53. The vectorized path,
_pair_integers, computes draws 0 and 1 of a block of samples as one
(2, n) array in a PairBuffers that a loop over many blocks reuses, the
keys derived once and every step in place, and leaves the draws as those
integers, exact as float64; the Monte Carlo kernels fold 2^-53 into
their own constants.
"""

from __future__ import annotations

import numpy as np

from ._base import GeometryError

__all__ = ["sample_uniform", "PairBuffers", "SampleStream"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def _check_seed(seed: int) -> None:
    # the generator reduces a seed modulo 2^64, which would run another
    # seed's stream
    if not 0 <= seed < 1 << 64:
        raise GeometryError(f"seed must lie in [0, 2^64), got {seed!r}")


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _sample_key(seed: int, index: int) -> int:
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK)


def sample_uniform(seed: int, index: int, draw: int) -> float:
    """Uniform variate in [0, 1) for the given (seed, sample, draw) triple."""
    _check_seed(seed)
    word = _mix((_sample_key(seed, index) + (draw + 1) * _GOLDEN) & _MASK)
    return (word >> 11) * _INV_2_53


def _pair_integers(seed: int, lo: int, hi: int, buffers: PairBuffers) -> np.ndarray:
    """Draws 0 and 1 of sample indices lo..hi-1 times 2^53, as rows 0 and 1 of buffers.out.

    Each value is the variate's 53-bit integer, exact as a float64. The
    caller sizes the buffers to hold hi - lo samples; nothing checks it.
    The sample keys are built in word[0]; draw d's state is the key plus
    (d + 1) * golden, as in sample_uniform, formed for row 1 first since
    row 0 overwrites the keys. out, viewed as uint64, is the mix's
    scratch until the draws overwrite it.
    """
    n = hi - lo
    word, out = buffers.word[:, :n], buffers.out[:2, :n]
    tmp = out.view(np.uint64)
    key = word[0]
    np.add(buffers.offsets[:n], np.uint64(((int(lo) + 1) * _GOLDEN + int(seed)) & _MASK), out=key)
    _mix_inplace(key, tmp[0])
    np.add(key, np.uint64((2 * _GOLDEN) & _MASK), out=word[1])
    np.add(key, np.uint64(_GOLDEN), out=key)
    _mix_inplace(word, tmp)
    word >>= np.uint64(11)
    # exact: word < 2^53; the cast from int64 is cheaper than from uint64
    np.copyto(out, word.view(np.int64))
    return out


class PairBuffers:
    """Working memory of one block of up to `size` samples, 49 bytes per sample.

    offsets holds i * golden for i < size, which index lo + i adds to the
    key of index lo. word is (2, size) uint64, in which _pair_integers
    mixes its two draws. out is (3, size) float64: _pair_integers uses
    rows 0 and 1 as the mix's scratch and then writes draws 0 and 1
    there; row 2 is free for the caller, as is flag, a bool row of `size`.
    """

    def __init__(self, size: int):
        self.offsets = np.arange(size, dtype=np.uint64)
        self.offsets *= np.uint64(_GOLDEN)
        self.word = np.empty((2, size), dtype=np.uint64)
        self.out = np.empty((3, size))
        self.flag = np.empty(size, dtype=np.bool_)


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
        _check_seed(seed)
        self.seed = seed
        self.index = index
        self._draw = 0

    def next_float(self) -> float:
        value = sample_uniform(self.seed, self.index, self._draw)
        self._draw += 1
        return value

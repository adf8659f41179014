"""Bulk "%.17g" for float columns, byte for byte CPython's.

fmt17_rows prints each value's 17 significant digits from a 17-digit
integer D: the value scaled by a power of ten so that D lies in
[10^16, 10^17), formed as a double-double with Dekker's exact product
(Dekker, Numer. Math. 18, 1971) and rounded. Where D cannot be trusted
(the scaled value within 1e-6 of a half, a decade outside the table, a
rounding up to 10^17, a zero or a non-finite value) the value is printed
with "%.17g" instead, in the manner of Grisu's fast path with an exact
fallback (Loitsch, PLDI 2010).

This module imports numpy inside its functions and builds its tables on
the first call. It is kept apart from serialize, which every CLI
subcommand imports, so that the subcommands writing only JSON do not
compile it at start-up.
"""

from __future__ import annotations

import math

# decades 10^k, |k| <= _K_MAX, printed here (so exponents have two digits)
_K_MAX = 99
# 2^27 + 1, which splits a double into two 26-bit halves
_SPLIT = 134217729.0
# a scaled value whose fraction lies within 1e-6 of a half may be a tie
_TIE = 0.5 - 1e-6
# layout codes: sign (2) x shape (21) x digits up to the last nonzero one (18)
_SHAPES, _ENDS = 21, 18
# values formatted per block, so a long column's temporaries stay small.
# The block's (6, _BLOCK) word array, 96 KiB, lies below glibc's initial
# 128 KiB mmap threshold and comes from the heap, but glibc trims the top
# of the heap once 128 KiB there are free, so the pages of freed blocks
# still go back to the system and are faulted in again. A larger block
# faults more; only a raised trim threshold (glibc raises it after an
# mmapped chunk of a few MiB is freed) keeps them
_BLOCK = 1 << 11

_tables = None


def fmt17_rows(columns, seps) -> str:
    """Rows of "%.17g" fields: one value of each column per row, each followed by its column's separator.

    columns are equal-length sequences of floats and seps one string of
    at most four ASCII characters other than NUL per column (else
    ValueError). The text equals
    "".join("%.17g" % column[i] + sep for i in rows for column, sep in
    zip(columns, seps)) byte for byte.

    Each value takes six little-endian 64-bit words of eight byte slots,
    NUL where nothing is printed: word 0 holds the sign, a lead "0.000"
    and digit 0 with its point slot, words 1-4 the (digit, point) slot
    pairs of digits 1-16, and word 5 the exponent ("e+NN") and the
    separator. The words are laid out value by value along the inner
    axis, transposed to rows, and the NULs dropped.
    """
    import numpy as np

    global _tables
    if _tables is None:
        _tables = _build_tables()
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    if not columns or len(seps) != len(columns):
        raise ValueError(f"need one separator per column, got {len(seps)} for {len(columns)} columns")
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns must have equal lengths, got {lengths}")
    # a NUL would be dropped with the empty byte slots; a non-ASCII
    # character fails the encode below with UnicodeEncodeError, a ValueError
    if any(len(sep) > 4 or "\0" in sep for sep in seps):
        raise ValueError(f"separators must be at most 4 characters other than NUL, got {seps!r}")
    sep_words = np.array([int.from_bytes(bytes(4) + sep.encode("ascii"), "little") for sep in seps], "<u8")
    step = max(1, _BLOCK // len(columns))
    pieces = []
    for start in range(0, len(columns[0]), step):
        block = np.concatenate([column[start : start + step] for column in columns])
        words = _words(block, _tables).reshape(6, len(columns), -1)
        words[5] |= sep_words[:, None]
        pieces.append(words.transpose(2, 1, 0).tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


def _words(x, tables):
    """The six words of each value of x, as a (6, len(x)) array."""
    import numpy as np

    powers, decade_code, exponents, spread, significant, group_start, layout = tables
    n = len(x)
    a = np.abs(x)
    # zeros, non-finite values and decades outside the table compute
    # garbage here; exact marks them false and "%.17g" prints them below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.floor(np.log10(a))
        exact = np.abs(k) <= _K_MAX
        # row k + _K_MAX of the tables by decade
        row = np.where(exact, k, 0.0).astype(np.intp) + _K_MAX
        t_hi, t_lo = _scaled(a, row, powers)
        # log10 can round across a power of ten, so the decade is set by
        # t = t_hi + t_lo unrounded (a t just below 10^16 belongs to the
        # decade below, even where it would round to 10^16); only a t_hi
        # this near 10^16 or 10^17 can be in another decade
        near = np.flatnonzero((t_hi < 1.0000000000001e16) | (t_hi > 9.999999999999e16))
        if near.size:
            row[near] += _off_decade(t_hi[near], t_lo[near])
            exact[near] &= (row[near] >= 0) & (row[near] <= 2 * _K_MAX)
            np.clip(row, 0, 2 * _K_MAX, out=row)
            t_hi[near], t_lo[near] = _scaled(a[near], row[near], powers)
            exact[near] &= _off_decade(t_hi[near], t_lo[near]) == 0
        # t_hi >= 10^16 is an integer, so t_lo holds the fraction; it is
        # rounded half up, and dtoa rounds every possible tie half to even
        nearest = np.floor(t_lo + 0.5)
        exact &= np.abs(t_lo - nearest) < _TIE
        digits = t_hi.astype(np.int64) + nearest.astype(np.int64)
    # a rounding up to 10^17 leaves the decade
    exact &= digits < 10**17

    # digits = d0 10^16 + g1 10^12 + g2 10^8 + g3 10^4 + g4, and groups
    # holds (d0, g1, g2, g3, g4); garbage digits give garbage groups,
    # which the takes wrap into their tables
    groups = np.empty((5, n), np.int64)
    halves = np.empty((2, n), np.int64)
    np.floor_divide(digits, 10**8, out=halves[0])
    np.subtract(digits, halves[0] * 10**8, out=halves[1])
    np.floor_divide(halves[0], 10**8, out=groups[0])
    halves[0] -= groups[0] * 10**8
    pairs = groups[1:].reshape(2, 2, n)
    np.floor_divide(halves, 10**4, out=pairs[:, 0])
    np.subtract(halves, pairs[:, 0] * 10**4, out=pairs[:, 1])

    end = (significant.take(groups, mode="wrap") + group_start).max(axis=0)
    code = decade_code.take(row) + end
    code += (x < 0.0) * (_SHAPES * _ENDS)
    words = layout.take(code, axis=1, mode="wrap")
    words[:5] ^= spread.take(groups, mode="wrap")
    words[5] = exponents.take(row)

    slow = np.flatnonzero(~exact)
    if slow.size:
        text = b"".join([("%.17g" % v).encode().ljust(48, b"\0") for v in x[slow].tolist()])
        words[:, slow] = np.frombuffer(text, "<u8").reshape(-1, 6).T
    return words


def _scaled(a, row, powers):
    """a * 10^(16 - k) as t_hi + t_lo, t_hi = fl(a * 10^(16 - k)), for k = row - _K_MAX.

    Dekker's exact product of a with the double nearest the power, plus a
    times the power's rounded remainder: good to about 10^-30 relative.
    """
    hi, lo, head, tail = powers.take(row, axis=1)
    t_hi = a * hi
    big = a * _SPLIT
    a_head = big - (big - a)
    a_tail = a - a_head
    t_lo = ((a_head * head - t_hi) + a_head * tail + a_tail * head) + a_tail * tail + a * lo
    return t_hi, t_lo


def _off_decade(t_hi, t_lo):
    """+1 where t_hi + t_lo >= 10^17, -1 where it is below 10^16, else 0."""
    import numpy as np

    return ((t_hi - 1e17) + t_lo >= 0.0).astype(np.int8) - ((t_hi - 1e16) + t_lo < 0.0)


def _build_tables():
    """The kernel's tables, from exact integers and numpy arithmetic.

    By decade row k + _K_MAX: powers, whose rows are hi, the double
    nearest 10^(16 - k), lo, the double nearest 10^(16 - k) - hi, and
    the split head + tail = hi; decade_code, the decade's part of the
    layout code; exponents, word 5 ("e-99" ... "e+99", or 0 where the
    decade prints in fixed notation). By group 0 ... 9999: spread, its
    four digits in the even byte slots of a word, and significant, its
    digits up to the last nonzero one (-12 for 0, so that with
    group_start added a zero group never counts). By layout code: layout,
    words 0-5 of sign, lead and point XOR "0" in each digit slot that
    holds a zero not printed, so that XOR with the spread digits leaves
    NUL there.
    """
    import numpy as np

    his, los = [], []
    power = 10 ** (16 + _K_MAX)  # 10^(16 - k) for k = -_K_MAX ... 16
    for _ in range(-_K_MAX, 17):
        hi = float(power)
        his.append(hi)
        los.append(float(power - int(hi)))
        power //= 10
    power = 10  # 10^(k - 16) for k = 17 ... _K_MAX
    for _ in range(17, _K_MAX + 1):
        hi = 1 / power  # int true division rounds correctly
        m, s = hi.as_integer_ratio()
        his.append(hi)
        los.append(math.ldexp((s - m * power) / power, 1 - s.bit_length()))
        power *= 10
    hi, lo = np.array(his), np.array(los)
    big = hi * _SPLIT
    head = big - (big - hi)
    powers = np.array([hi, lo, head, hi - head])

    decades, fixed = range(-_K_MAX, _K_MAX + 1), range(-4, 17)
    decade_code = np.array([(k + 4 if k in fixed else 4) * _ENDS for k in decades])
    exponents = np.array([0 if k in fixed else int.from_bytes(b"e%+03d" % k, "little") for k in decades], "<u8")

    # digits of 0 ... 9999 by place, and the last place with a nonzero
    # digit: a later place overwrites an earlier one
    ten = np.frombuffer(b"0123456789", np.uint8)
    ascii = np.zeros((10, 10, 10, 10, 8), np.uint8)
    significant = np.zeros((10, 10, 10, 10), np.int8)
    for place in range(4):
        ascii[..., 2 * place] = ten.reshape((10,) + (1,) * (3 - place))
        significant[(slice(None),) * place + (slice(1, None),)] = place + 1
    significant[0, 0, 0, 0] = -12
    spread = ascii.view("<u8").ravel()
    significant = significant.ravel()
    group_start = np.array([[-3], [1], [5], [9], [13]], np.int8)

    # words 0-4 by sign, shape and end. Shape 0 ... 3 prints a lead
    # "0.000" ... "0." (decades -4 ... -1), shape 4 ... 20 the point after
    # the digit of decade 0 ... 16 where a nonzero digit follows it; the
    # digits print up to the last nonzero one and, in fixed notation, up
    # to the point. A digit slot holds "0" where XOR with a spread zero
    # leaves NUL, and word 0 also cancels the "000" that spread puts
    # before d0 ("000d" in slots 0-6)
    before_d0 = b"0\x000\x000\x00\x00\x00"
    leads = [b"0.000"[: 1 - decade] if decade < 0 else b"" for decade in range(-4, 17)]
    word0 = b"".join(bytes(c ^ z for c, z in zip(b"\0" + lead.ljust(7, b"\0"), before_d0)) for lead in leads)
    blank = b"".join(b"0\0" if j >= end else b"\0\0" for end in range(_ENDS) for j in range(1, 17))
    count = [[max(end, shape - 3) for end in range(_ENDS)] for shape in range(_SHAPES)]
    slots = np.zeros((2, _SHAPES, _ENDS, 48), np.uint8)
    slots[..., :8] = np.frombuffer(word0, np.uint8).reshape(_SHAPES, 1, 8)
    slots[..., 8:40] = np.frombuffer(blank, np.uint8).reshape(_ENDS, 32)[count]
    for decade in range(17):
        slots[:, decade + 4, decade + 2 :, 7 + 2 * decade] = ord(".")
    slots[1, ..., 0] = ord("-") ^ ord("0")
    layout = slots.reshape(-1, 48).view("<u8").T.copy()
    return powers, decade_code, exponents, spread, significant, group_start, layout

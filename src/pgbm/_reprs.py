"""Predict's CSV rows, every real written with the bytes of ``repr``.

`rows` formats a block of float64 values as ``i,x0,x1,...`` lines. Each
value gets the text that ``repr`` gives it, the shortest decimal that
reads back as the same double and, of those, the nearest; but the
digits come from numpy arithmetic on whole arrays rather than from one
Python call per value.

Finite values with 1e-4 <= |x| < 1e16 are the ones that ``repr`` writes
without an exponent; they take the fast path (`_shortest`):

- With k = 16 - floor(log10 |x|), stepped until p = fl(|x| 10^k) lies in
  [1e16, 1e17), Dekker's two-product splits the exact product Y = |x| 10^k
  (10^k is an exact double) into p + e. So Y = N + f, with N = p + floor(e)
  an integer and f = e - floor(e) in [0, 1), both exact.
- Every real within half a gap of x reads back as x. Scaled by 10^k that
  interval holds the integers A..B (B - A <= 22), and each decimal with
  at most 17 significant digits that reads back as x is m 10^-k for such
  an m. f plus or minus the scaled half gap is an exact double, so A and
  B are exact.
- The shortest of them is a multiple of 10^t, t the largest with
  B mod 10^t <= B - A; the interval is symmetric about Y, so the
  multiple of 10^t nearest Y lies in it and is ``repr``'s choice.

Two details of the exact interval never change the result in this range,
so they are left out. Which of its bounds belong to it: a bound is some
m only for integers x >= 2^52, and x +- 1/2 or x +- 1 is never shorter
than x. And the half as wide gap below a power of two: no power of two
in the range has a shorter decimal there (the tests try each one).

Zeros are written as ``0.0`` or ``-0.0``. Every other value, and every
value exactly halfway between two multiples of 10^t, goes through
``repr`` itself: exponent form, inf and nan. So the bytes are ``repr``'s
by construction wherever the fast path does not apply.

Each cell (the row number, or a value) is laid out in a slot of `_SLOT`
bytes: sign, 16 integer digits, point, 20 fraction digits, separator.
Digits come from a table of four-digit groups, and one boolean mask per
slot keeps the bytes of the cell's text.
"""

from __future__ import annotations

import numpy as np

# Most values formatted at once: bounds the working arrays (about 0.3 kB
# a value) whatever the width of a row.
_CHUNK_VALUES = 8192

# Slot layout, in bytes: the sign, the integer digits right-aligned in
# [_INT, _POINT), the point, the fraction digits right-aligned in
# [_FRAC, _FRAC + 20) and the separator, with padding so that the digit
# fields start at multiples of four.
_SLOT, _SIGN, _INT, _POINT, _FRAC, _SEP = 48, 3, 4, 20, 24, 47
_FRAC_DIGITS = 20

_P10 = 10 ** np.arange(19, dtype=np.int64)
_F10 = np.cumprod(np.r_[1.0, np.full(21, 10.0)])  # 10^0 .. 10^21, each exact
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for a 53-bit significand
_F10_HI = _F10 * _SPLIT - (_F10 * _SPLIT - _F10)
_F10_LO = _F10 - _F10_HI
_EXPONENT = np.uint64(0x7FF << 52)
# Subtracted from a double's exponent bits, leaves the double half its gap
# to the next one up: the gap is 2^-52 times the double's power of two.
_HALF_GAP = np.uint64(53 << 52)

# The ASCII digits of 0000 .. 9999, four bytes as one uint32.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_D4 = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
_D4 = _D4.view(np.uint32)[:, 0]


def _masks() -> np.ndarray:
    """Row ``digits * 21 + fraction`` keeps a slot's last ``digits``
    integer digits, its point and last ``fraction`` fraction digits when
    ``fraction`` > 0, and its separator (the sign is set per value)."""
    digits, fraction = np.indices((17, _FRAC_DIGITS + 1)).reshape(2, -1, 1)
    col = np.arange(_SLOT)
    return (
        ((col >= _POINT - digits) & (col < _POINT))
        | ((col == _POINT) & (fraction > 0))
        | ((col >= _FRAC + _FRAC_DIGITS - fraction) & (col < _FRAC + _FRAC_DIGITS))
        | (col == _SEP)
    )


_MASKS = _masks()
# Row l keeps a ``repr`` text of l bytes written at the slot's start.
_TEXT_MASKS = (np.arange(_SLOT) < np.arange(_SLOT)[:, None]) | (np.arange(_SLOT) == _SEP)


def rows(first_row: int, block: np.ndarray) -> bytes:
    r"""The text of ``i,x0,x1,...\n`` for each row of the 2-d float64
    ``block`` (at least one column), rows numbered from ``first_row``:
    ``b"".join(f"{i},{','.join(map(repr, r))}\n".encode() for i, r in
    enumerate(block.tolist(), first_row))``, byte for byte."""
    step = max(1, _CHUNK_VALUES // block.shape[1])
    return b"".join(
        _chunk(first_row + s, block[s : s + step]) for s in range(0, len(block), step)
    )


def _chunk(first_row: int, block: np.ndarray) -> np.ndarray:
    """`rows` of a block of at most `_CHUNK_VALUES` values, as uint8."""
    n_rows, n_cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)  # false for nan
    digits, k, t, tie = _shortest(np.where(fast, a, 1.0))

    # Cells: each row's number, then its values. A value's text is its
    # integer part, a point and fraction_len fraction digits.
    whole = np.empty((n_rows, n_cols + 1), np.int64)
    fraction = np.empty_like(whole)
    fraction_len = np.empty_like(whole)
    whole[:, 0] = np.arange(first_row, first_row + n_rows)
    fraction[:, 0] = 0
    fraction_len[:, 0] = 0
    shift = _P10[np.minimum(k, 18)]  # digits < 1e18
    zero = x == 0  # formatted as 1.0, whose fraction is that of 0.0
    whole[:, 1:] = np.where(zero, 0, digits // shift).reshape(n_rows, n_cols)
    fraction[:, 1:] = (digits % shift // _P10[t]).reshape(n_rows, n_cols)
    fraction_len[:, 1:] = np.maximum(k - t, 1).reshape(n_rows, n_cols)
    slow = ~(fast | zero) | tie
    whole = whole.ravel()
    fraction = fraction.ravel()

    groups = np.empty((9, len(whole)), np.int32)
    _split(whole, groups[:4])
    lead = fraction // 10**16
    groups[4] = lead
    _split(fraction - lead * 10**16, groups[5:])
    buf = np.empty((len(whole), _SLOT), np.uint8)
    buf[:, _SIGN] = ord("-")
    buf[:, _POINT] = ord(".")
    buf[:, _SEP] = ord(",")
    buf[n_cols :: n_cols + 1, _SEP] = ord("\n")
    words = buf.view(np.uint32)
    chars = np.take(_D4, groups)
    words[:, _INT // 4 : _POINT // 4] = chars[:4].T
    words[:, _FRAC // 4 : _SEP // 4] = chars[4:].T

    code = _digit_count(whole) * (_FRAC_DIGITS + 1) + fraction_len.ravel()
    keep = np.take(_MASKS, code, axis=0)
    cells = keep.reshape(n_rows, n_cols + 1, _SLOT)[:, 1:]
    cells[:, :, _SIGN] = np.signbit(block)
    for i in np.flatnonzero(slow).tolist():
        text = repr(float(x[i])).encode()
        row, col = divmod(i, n_cols)
        buf[row * (n_cols + 1) + col + 1, : len(text)] = np.frombuffer(text, np.uint8)
        cells[row, col] = _TEXT_MASKS[len(text)]
    return buf[keep]


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``repr``'s decimal for each a in [1e-4, 1e16): the integer
    ``digits``, the power ``k`` with a = digits 10^-k to the nearest
    double, the largest t with 10^t dividing digits, and whether another
    multiple of 10^t was as near to a (then ``repr`` decides)."""
    # p + e = a 10^k exactly, p in [1e16, 1e17)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    scale = _F10[k]
    p = a * scale
    while True:  # log10 may round across a power of ten
        off = (p < 1e16).astype(np.int64) - (p >= 1e17)
        if not off.any():
            break
        k += off
        scale = _F10[k]
        p = a * scale
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    ph = _F10_HI[k]
    pl = _F10_LO[k]
    e = ah * ph
    e -= p
    e += ah * pl
    e += al * ph
    e += al * pl
    floor_e = np.floor(e)
    f = e - floor_e  # Y = n + f
    n = p.astype(np.int64) + floor_e.astype(np.int64)

    # [bottom, top]: the integers m with m 10^-k within half a gap of a
    half = scale * ((a.view(np.uint64) & _EXPONENT) - _HALF_GAP).view(np.float64)
    top = n + np.floor(f + half).astype(np.int64)
    bottom = n + np.ceil(f - half).astype(np.int64)

    # t: the largest power of ten with a multiple in [bottom, top]
    width = top - bottom
    t = (top - top // 10 * 10 <= width).astype(np.int64)
    t += top - top // 100 * 100 <= width
    live = np.flatnonzero(t == 2)
    for j in range(3, 19):
        live = live[top[live] % _P10[j] <= width[live]]
        if not len(live):
            break
        t[live] = j

    # the multiple of 10^t nearest Y
    unit = _P10[t]
    rem = n % unit
    twice = 2.0 * f
    gap = unit - 2 * rem  # Y is above the midpoint when 2 f > gap
    digits = n - rem + unit * (twice > gap)
    return digits, k, t, twice == gap


def _split(values: np.ndarray, out: np.ndarray) -> None:
    """Write the four-digit groups of each value below 1e16 to the four
    rows of ``out``, most significant first."""
    high = values // 10**8
    low = values - high * 10**8
    np.floor_divide(high, 10**4, out=out[0])
    np.subtract(high, out[0] * 10**4, out=out[1])
    np.floor_divide(low, 10**4, out=out[2])
    np.subtract(low, out[2] * 10**4, out=out[3])


def _digit_count(values: np.ndarray) -> np.ndarray:
    """The decimal digits of each nonnegative value below 1e16 (1 for 0)."""
    return np.searchsorted(_P10[1:17], values, side="right") + 1

"""Predict's CSV rows, every real written with the bytes of ``repr``.

`Writer` formats blocks of float64 values as ``i,x0,x1,...`` lines and
writes them to a file. Each value gets the text that ``repr`` gives it,
the shortest decimal that reads back as the same double and, of those,
the nearest; but the digits come from numpy arithmetic on whole arrays
rather than from one Python call per value.

Finite values with 1e-4 <= |x| < 1e16 are the ones that ``repr`` writes
without an exponent; they take the fast path (`Writer._shortest`):

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
Each four bytes of a slot come from one table of words (four digits,
the sign, the point or a separator), and one boolean mask per slot keeps
the bytes of the cell's text.

A `Writer` formats at most `_CHUNK_VALUES` cells at a time, in work
buffers that it allocates once (181 bytes a cell, 0.74 MB for a whole
chunk), and writes each chunk's text as soon as it is made; a row wider
than a chunk is written in pieces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from _typeshed import SupportsWrite

# Most cells formatted at once: sizes the work buffers whatever the
# width of a row.
_CHUNK_VALUES = 4096

# Slot layout, in bytes: the sign, the integer digits right-aligned in
# [_INT, _POINT), the point, the fraction digits right-aligned in
# [_FRAC, _FRAC + 20) and the separator, with padding so that every
# field starts a four-byte word.
_SLOT, _SIGN, _INT, _POINT, _FRAC, _SEP = 48, 3, 4, 20, 24, 47
_FRAC_DIGITS = 20
_SLOT_WORDS = _SLOT // 4

_P10 = 10 ** np.arange(19, dtype=np.int64)
_F10 = np.cumprod(np.r_[1.0, np.full(21, 10.0)])  # 10^0 .. 10^21, each exact
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for a 53-bit significand
_F10_HI = _F10 * _SPLIT - (_F10 * _SPLIT - _F10)
_F10_LO = _F10 - _F10_HI
_EXPONENT = np.uint64(0x7FF << 52)
# Subtracted from a double's exponent bits, leaves the double half its gap
# to the next one up: the gap is 2^-52 times the double's power of two.
_HALF_GAP = np.uint64(53 << 52)

# The words of a slot: the ASCII digits of 0000 .. 9999, then the sign's,
# the point's and the two separators' words.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_D4 = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
_MARKS = np.zeros((4, 4), np.uint8)
_MARKS[[0, 1, 2, 3], [_SIGN % 4, _POINT % 4, _SEP % 4, _SEP % 4]] = [*b"-.,", ord("\n")]
_WORDS = np.concatenate([_D4, _MARKS]).view(np.uint32)[:, 0]
_SIGN_WORD, _POINT_WORD, _COMMA_WORD, _NEWLINE_WORD = range(len(_D4), len(_D4) + 4)


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


class Writer:
    r"""Writes the text of rows to ``file`` as it is made: `rows` writes
    ``b"".join(f"{i},{','.join(map(repr, r))}\n".encode() for i, r in
    enumerate(block.tolist(), first_row))``, byte for byte, in chunks of
    at most `_CHUNK_VALUES` cells. The work buffers are allocated here,
    once, for ``cells`` cells (a call's rows times its columns plus one)
    or a chunk, whichever is fewer, and every chunk reuses them."""

    def __init__(self, file: SupportsWrite[bytes], cells: int) -> None:
        size = min(cells, _CHUNK_VALUES)
        self._file = file
        # Rows of `size` cells: 0-6 are _shortest's reals and 7-12 its
        # integers, 13-15 hold a chunk's cells and 16-21 their slots. The
        # slots' words, and then their masks, reuse rows 0-11 (_SLOT_WORDS).
        self._work = np.empty((22, size), np.int64)
        self._bools = np.empty((5, size), bool)

    def rows(self, first_row: int, block: np.ndarray) -> None:
        """Write the rows of the 2-d float64 ``block`` (at least one
        column), numbered from ``first_row``."""
        n_rows, n_cols = block.shape
        size = self._work.shape[1]
        if n_cols < size:
            step = size // (n_cols + 1)
            for start in range(0, n_rows, step):
                self._chunk(block[start : start + step], first_row + start, True)
            return
        for i in range(n_rows):
            row = block[i : i + 1]
            self._chunk(row[:, : size - 1], first_row + i, False)
            for start in range(size - 1, n_cols, size):
                self._chunk(row[:, start : start + size], None, start + size >= n_cols)

    def _chunk(self, values: np.ndarray, number: int | None, ends: bool) -> None:
        """Write the cells of ``values``, each of its rows led by its row
        number (counted from ``number``) unless ``number`` is None, and
        ended by a newline if ``ends``."""
        n_rows, n_cols = values.shape
        lead = int(number is not None)
        n, n_cells = values.size, n_rows * (n_cols + lead)
        grid = lambda flat: flat.reshape(n_rows, n_cols)

        a = self._work[0, :n].view(np.float64)
        fast, zero, slow = self._bools[:3, :n]
        np.abs(values, out=grid(a))
        np.greater_equal(a, 1e-4, out=fast)
        np.less(a, 1e16, out=slow)
        fast &= slow  # false for nan
        np.equal(a, 0.0, out=zero)  # formatted as 1.0, whose fraction is that of 0.0
        np.logical_not(fast, out=slow)
        np.copyto(a, 1.0, where=slow)
        digits, k, t, tie = self._shortest(n)
        np.logical_or(fast, zero, out=slow)
        np.logical_not(slow, out=slow)
        slow |= tie

        # Cells: each row's number, then its values. A value's text is its
        # integer part, a point and code % 21 fraction digits.
        whole, fraction, code = (
            cells[:n_cells].reshape(n_rows, -1) for cells in self._work[13:16]
        )
        np.subtract(grid(k), grid(t), out=code[:, lead:])
        np.maximum(code, 1, out=code)
        shift = self._work[1, :n]
        np.minimum(k, 18, out=k)  # digits < 1e18
        np.take(_P10, k, out=shift, mode="clip")
        np.floor_divide(grid(digits), grid(shift), out=whole[:, lead:])
        np.copyto(whole[:, lead:], 0, where=grid(zero))
        np.remainder(digits, shift, out=digits)
        np.take(_P10, t, out=shift, mode="clip")
        np.floor_divide(grid(digits), grid(shift), out=fraction[:, lead:])
        if lead:
            whole[:, 0] = np.arange(number, number + n_rows)
            fraction[:, 0] = 0
            code[:, 0] = 0
        whole, fraction, code = whole.ravel(), fraction.ravel(), code.ravel()
        count = np.searchsorted(_P10[1:17], whole, side="right")
        count += 1
        count *= _FRAC_DIGITS + 1
        code += count

        words = self._work[:_SLOT_WORDS].reshape(-1)[: n_cells * _SLOT_WORDS]
        words = words.reshape(n_cells, _SLOT_WORDS)
        words[:, 0] = _SIGN_WORD
        words[:, _POINT // 4] = _POINT_WORD
        high = self._work[12, :n_cells]
        _split(whole, words[:, _INT // 4 : _POINT // 4], high)
        np.divmod(fraction, 10**16, out=(words[:, _FRAC // 4], fraction))
        _split(fraction, words[:, _FRAC // 4 + 1 : _SEP // 4], high)
        words[:, _SEP // 4] = _COMMA_WORD
        if ends:
            words.reshape(n_rows, -1, _SLOT_WORDS)[:, -1, _SEP // 4] = _NEWLINE_WORD
        slots = self._work[16:].view(np.uint8).reshape(-1, _SLOT)[:n_cells]
        np.take(_WORDS, words, out=slots.view(np.uint32), mode="clip")
        keep = words.view(bool).reshape(-1)[: n_cells * _SLOT].reshape(n_cells, _SLOT)
        np.take(_MASKS, code, axis=0, out=keep, mode="clip")
        cells = keep.reshape(n_rows, -1, _SLOT)[:, lead:]
        sign = grid(fast)
        np.signbit(values, out=sign)  # numpy 2.4 writes a strided out wrongly
        cells[:, :, _SIGN] = sign
        for i in np.flatnonzero(slow).tolist():
            row, col = divmod(i, n_cols)
            text = repr(float(values[row, col])).encode()
            slot = row * (n_cols + lead) + col + lead
            slots[slot, : len(text)] = np.frombuffer(text, np.uint8)
            keep[slot] = _TEXT_MASKS[len(text)]
        self._file.write(slots[keep])

    def _shortest(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``repr``'s decimal for each a in [1e-4, 1e16), the first ``n``
        values of the first work row: the integer ``digits``, the power
        ``k`` with a = digits 10^-k to the nearest double, the largest t
        with 10^t dividing digits, and whether another multiple of 10^t
        was as near to a (then ``repr`` decides). Each is a view of a
        work row."""
        a, half, p, ah, al, ph, e = self._work[:7, :n].view(np.float64)
        k, digits, top, width, work, t = self._work[7:13, :n]
        below, above = self._bools[3:, :n]

        # p + e = a 10^k exactly, p in [1e16, 1e17)
        np.log10(a, out=half)
        np.floor(half, out=half)
        np.subtract(16, half, out=k, casting="unsafe")
        while True:  # log10 may round across a power of ten
            np.take(_F10, k, out=half, mode="clip")
            np.multiply(a, half, out=p)
            np.less(p, 1e16, out=below)
            np.greater_equal(p, 1e17, out=above)
            if not (below.any() or above.any()):
                break
            k += below
            k -= above
        # the scaled half gap: the bits of a, less 53 in the exponent
        gap = work.view(np.uint64)
        np.bitwise_and(a.view(np.uint64), _EXPONENT, out=gap)
        gap -= _HALF_GAP
        half *= gap.view(np.float64)
        np.multiply(a, _SPLIT, out=ah)
        np.subtract(ah, a, out=al)
        ah -= al
        np.subtract(a, ah, out=al)
        np.take(_F10_HI, k, out=ph, mode="clip")
        np.multiply(ah, ph, out=e)
        e -= p
        np.copyto(digits, p, casting="unsafe")
        pl = p
        np.take(_F10_LO, k, out=pl, mode="clip")
        ah *= pl
        e += ah
        ph *= al
        e += ph
        al *= pl
        e += al
        floor_e = a
        np.floor(e, out=floor_e)
        e -= floor_e  # f: Y = n + f
        f = e
        np.copyto(top, floor_e, casting="unsafe")
        digits += top  # n

        # [bottom, top]: the integers m with m 10^-k within half a gap of a
        np.add(f, half, out=ah)
        np.floor(ah, out=ah)
        np.copyto(top, ah, casting="unsafe")
        top += digits
        np.subtract(f, half, out=al)
        np.ceil(al, out=al)
        np.copyto(width, al, casting="unsafe")
        width += digits
        np.subtract(top, width, out=width)

        # t: the largest power of ten with a multiple in [bottom, top]
        for j, column in ((1, t), (2, work)):
            np.floor_divide(top, _P10[j], out=work)
            work *= _P10[j]
            np.subtract(top, work, out=work)
            np.less_equal(work, width, out=below)
            np.copyto(column, below)
        t += work
        np.equal(t, 2, out=below)
        live = np.flatnonzero(below)
        for j in range(3, 19):
            live = live[top[live] % _P10[j] <= width[live]]
            if not len(live):
                break
            t[live] = j

        # the multiple of 10^t nearest Y
        unit, rem, gap, twice = top, width, work, half
        np.take(_P10, t, out=unit, mode="clip")
        np.remainder(digits, unit, out=rem)
        np.multiply(f, 2.0, out=twice)
        np.multiply(rem, 2, out=gap)
        np.subtract(unit, gap, out=gap)  # Y is above the midpoint when 2 f > gap
        digits -= rem
        np.greater(twice, gap, out=above)
        unit *= above
        digits += unit
        np.equal(twice, gap, out=below)
        return digits, k, t, below


def _split(values: np.ndarray, out: np.ndarray, high: np.ndarray) -> None:
    """Write the four-digit groups of each value below 1e16 to the four
    columns of ``out``, most significant first, by way of the work row
    ``high``; leaves ``values`` its last eight digits."""
    np.divmod(values, 10**8, out=(high, values))
    np.divmod(high, 10**4, out=(out[:, 0], out[:, 1]))
    np.divmod(values, 10**4, out=(out[:, 2], out[:, 3]))

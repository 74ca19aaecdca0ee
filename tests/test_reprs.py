"""`_reprs.Writer` against its oracle: one ``repr`` per value, joined per row."""

from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgbm import _reprs
from pgbm.cli import MAX_SAMPLE_COLUMNS


def oracle(first_row: int, block: np.ndarray) -> bytes:
    lines = enumerate(block.tolist(), first_row)
    return b"".join(f"{i},{','.join(map(repr, r))}\n".encode() for i, r in lines)


def formatted(first_row: int, block: np.ndarray, writer: _reprs.Writer | None = None,
              out: io.BytesIO | None = None) -> bytes:
    """What ``writer`` (a new one when None, writing to ``out``) writes for
    the rows of ``block``."""
    if writer is None:
        out = io.BytesIO()
        writer = _reprs.Writer(out, block.size + len(block))
    start = out.tell()
    writer.rows(first_row, block)
    return out.getvalue()[start:]


def assert_rows(values, first_row: int = 0, n_cols: int | None = None) -> None:
    """Format ``values`` as rows of ``n_cols`` (one row when None) and
    compare the bytes with the oracle's, naming the first value that
    differs."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    block = flat.reshape(-1, n_cols or len(flat))
    got = formatted(first_row, block)
    if got != oracle(first_row, block):
        for i, v in enumerate(block.tolist()):
            one = np.array(v).reshape(1, -1)
            assert formatted(first_row + i, one) == oracle(first_row + i, one), v
        pytest.fail("each row matches alone, but not the block")


def ulps(values: np.ndarray, steps: int) -> np.ndarray:
    """Each value and its neighbours up to ``steps`` doubles away on both sides."""
    around = [values]
    down = up = values
    for _ in range(steps):
        down = np.nextafter(down, -np.inf)
        up = np.nextafter(up, np.inf)
        around += [down, up]
    return np.concatenate(around)


@given(st.lists(st.floats(), min_size=6, max_size=60), st.integers(1, 6))
@settings(max_examples=400)
def test_any_float(values, n_cols):
    assert_rows(values[: len(values) // n_cols * n_cols], n_cols=n_cols)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
@settings(max_examples=400)
def test_any_bit_pattern(patterns):
    assert_rows(np.array(patterns, dtype=np.uint64).view(np.float64))


@given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=60))
@settings(max_examples=400)
def test_fixed_notation_range(values):
    assert_rows(np.concatenate([values, np.negative(values)]))


def test_edges_of_fixed_notation():
    edges = np.array([1e-4, 1e16, 1e-3, 1e15])
    assert_rows(ulps(np.concatenate([edges, -edges]), 8))


def test_powers_of_ten_and_two():
    tens = 10.0 ** np.arange(-5, 18)
    twos = np.ldexp(1.0, np.arange(-16, 56))
    assert_rows(ulps(np.concatenate([tens, twos, -twos]), 3))


def test_halfway_between_shortest_decimals():
    # In [2^49, 2^50] a double is a multiple of 1/8, so each quarter value
    # lies halfway between its two 16-digit neighbours.
    quarters = 2.0**49 + np.arange(0, 2**50 - 2**49, 2**42.0)[:, None] + np.arange(8) / 4
    assert_rows(quarters, n_cols=8)


def test_integers_up_to_2_63():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 63, 4000)
    ints = rng.integers(0, 2**62, 4000) >> (62 - bits)
    values = np.concatenate([ints, -ints]).astype(np.float64)
    assert_rows(np.concatenate([values, 2.0 ** np.arange(64)]), n_cols=8)


def test_short_decimals_and_their_neighbours():
    # The doubles nearest m 10^e for up to six digits m, and 3 doubles around each.
    rng = np.random.default_rng(5)
    digits = rng.integers(1, 10 ** rng.integers(1, 7, 3000)).astype(np.float64)
    power = rng.integers(-10, 12, 3000)
    short = np.where(power < 0, digits / 10.0 ** -power, digits * 10.0 ** power)
    assert_rows(ulps(np.concatenate([short, -short]), 3), n_cols=7)


def test_samples_like_predict_writes():
    rng = np.random.default_rng(6)
    normal = rng.normal(3.0, 2.0, (300, 40))
    lognormal = np.exp(rng.normal(0.0, 4.0, (300, 40)))
    counts = rng.poisson(3.0, (300, 40)).astype(np.float64)
    assert_rows(np.hstack([normal, lognormal, counts]), first_row=9_999_990, n_cols=120)


def test_only_fallback_lanes_call_repr(monkeypatch):
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e16, -1e17, 9.9e-5, -1e-300,
              5e-324, 1.7976931348623157e308, 2.0**49 + 0.25, 1.5, -2.0, 123.456]
    called = []

    def counting(value):
        called.append(value)
        return repr(value)

    monkeypatch.setattr(_reprs, "repr", counting, raising=False)
    block = np.array(values).reshape(4, 4)
    assert formatted(0, block) == oracle(0, block)
    # Zeros and the last three values are written without repr.
    assert sorted(map(str, called)) == sorted(map(str, values[2:13]))


@pytest.mark.parametrize("chunk", [1, 2, 5, 6, 7, 64])
def test_chunks_split_a_block_anywhere(monkeypatch, chunk):
    """Rows of six cells in chunks of fewer cells (split rows), of whole
    rows, and of several rows with a partial last chunk; each through one
    writer that takes the block in pieces and then whole."""
    monkeypatch.setattr(_reprs, "_CHUNK_VALUES", chunk)
    rng = np.random.default_rng(7)
    block = rng.normal(0.0, 1e3, (23, 5))
    block[::4, 2] = [np.inf, 0.0, -0.0, 1e-7, 2.5, 1e20]
    assert_rows(block, first_row=98, n_cols=5)
    out = io.BytesIO()
    writer = _reprs.Writer(out, block.size + len(block))
    for start, stop in [(0, 1), (1, 9), (9, 23), (0, 23)]:
        part = block[start:stop]
        assert formatted(98 + start, part, writer, out) == oracle(98 + start, part)


def mixed_block(rng: np.random.Generator, n_rows: int, n_cols: int) -> np.ndarray:
    """Rows of values on the fast path (short and long decimals, integers,
    zeros) and on ``repr``'s (exponents, inf, nan), in every position."""
    block = rng.normal(0.0, 1.0, (n_rows, n_cols)) * 10.0 ** rng.integers(-3, 15, (n_rows, n_cols))
    flat = block.ravel()
    flat[::3] = np.round(flat[::3], 2)
    flat[1::7] = rng.integers(-10**15, 10**15, len(flat[1::7]))
    flat[2::11] = 0.0
    flat[5::17] = -0.0
    flat[4::13] = rng.choice([np.inf, -np.inf, np.nan, 1e-300, -2.5e17, 9.9e-5], len(flat[4::13]))
    return block


def test_one_writer_reuses_its_buffers_across_widths():
    """Blocks of 1, 5, 203 and 10,002 columns (predict's widest: mu, var
    and the most sample columns), wide and narrow in turn, through the
    same buffers: no chunk keeps a byte of an earlier, wider one. A
    10,002-column row is wider than a chunk and is split."""
    rng = np.random.default_rng(8)
    widest = MAX_SAMPLE_COLUMNS + 2
    assert widest + 1 > _reprs._CHUNK_VALUES
    out = io.BytesIO()
    writer = _reprs.Writer(out, 4 * (widest + 1))
    for n_rows, n_cols in [(4, widest), (300, 1), (50, 203), (9, 5), (2, widest), (40, 1),
                           (21, 203)]:
        block = mixed_block(rng, n_rows, n_cols)
        assert formatted(7 * n_cols, block, writer, out) == oracle(7 * n_cols, block), n_cols


def test_buffers_do_not_grow_with_the_rows():
    """Formatting 2560 rows takes the traced peak that 256 rows take, to
    within a few Python objects (a row's text is about 4 kB): the writer
    holds its buffers and one chunk's text, never a block's text. Every
    row is the same, so every full chunk's text has one length."""
    rng = np.random.default_rng(9)
    block = np.tile(rng.lognormal(0.0, 1.0, 203), (2560, 1))

    class Sink:
        def write(self, data):
            return len(data)

    peaks = []
    for n_rows in (256, 256, 2560):  # the first run fills numpy's caches
        tracemalloc.start()
        try:
            _reprs.Writer(Sink(), 256 * 204).rows(1000, block[:n_rows])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 1024, peaks

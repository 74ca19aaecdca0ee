"""CSV ingestion and quantile binning."""

from __future__ import annotations

import csv
import io
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pgbm import (
    BinEdges,
    RawDataset,
    apply_bins,
    compute_bin_edges,
    load_csv,
)
from pgbm import _shares
from pgbm.boost import PredictiveMoments
from pgbm.cli import _write_predictions
from pgbm.data import read_text, write_lines
from pgbm.errors import (
    EmptyDataset,
    FeatureCountMismatch,
    IoError,
    LengthMismatch,
    MissingColumn,
    NonFiniteValue,
    ParseError,
)

from conftest import DATA_DIR, load_outcome, use_workers


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def simple_dataset(values, max_bins=None):
    values = np.asarray(values, dtype=float)
    data = RawDataset(values[:, None], np.zeros(len(values)), ["x"])
    if max_bins is None:
        return data
    return compute_bin_edges(data, max_bins)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        data = load_csv(path, "y")
        assert data.n == 2
        assert data.f == 2
        assert data.feature_names == ["a", "b"]
        assert data.target_name == "y"
        np.testing.assert_array_equal(data.target, [3.0, 6.0])
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [4.0, 5.0]])

    def test_target_position_does_not_matter(self, tmp_path):
        path = write(tmp_path, "y,a\n3,1\n6,4\n")
        data = load_csv(path, "y")
        assert data.feature_names == ["a"]
        np.testing.assert_array_equal(data.target, [3.0, 6.0])
        np.testing.assert_array_equal(data.features, [[1.0], [4.0]])

    def test_header_whitespace_stripped(self, tmp_path):
        path = write(tmp_path, '" fixed acidity ",y\n1,2\n')
        data = load_csv(path, "y")
        assert data.feature_names == ["fixed acidity"]

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, "y")
        assert info.value.row == 1
        assert info.value.col == 2

    def test_unparseable_cell(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\noops,4\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, "y")
        assert info.value.row == 1
        assert info.value.col == 0

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\n3,nan\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path, "y")
        assert info.value.row == 1
        assert info.value.col == 1

    def test_unparseable_cell_reported_before_non_finite(self, tmp_path):
        path = write(tmp_path, "a,y\nnan,2\noops,4\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, "y")
        assert (info.value.row, info.value.col) == (1, 0)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(EmptyDataset):
            load_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,y\n")
        with pytest.raises(EmptyDataset):
            load_csv(path, "y")

    def test_no_target_requested(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        data = load_csv(path, None)
        assert data.f == 2
        assert data.target_name is None
        np.testing.assert_array_equal(data.target, [0.0, 0.0])

    def test_only_target_column(self, tmp_path):
        path = write(tmp_path, "y\n1\n2\n")
        with pytest.raises(EmptyDataset):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            load_csv(tmp_path / "absent.csv", "y")


def reference_load_csv(path, target_column):
    """``load_csv`` as it was when every file went through csv.reader and
    float(), with the changes numpy's C reader brought marked
    ``DIVERGENCE``: the behaviour ``load_csv`` must reproduce exactly."""
    try:
        # DIVERGENCE: a byte-order mark was part of the first name.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [name.strip() for name in next(reader)]
            except StopIteration:
                raise EmptyDataset(f"{path} is empty") from None
            if target_column is not None:
                if target_column not in header:
                    raise MissingColumn(
                        f"column {target_column!r} not found in {path}"
                    )
                target_idx = header.index(target_column)
            else:
                target_idx = -1

            rows = []
            limit = csv.field_size_limit(sys.maxsize)  # DIVERGENCE: no limit on data cells
            try:
                # DIVERGENCE: empty lines are skipped and not counted.
                for r, cells in enumerate(cells for cells in reader if cells):
                    if len(cells) != len(header):
                        raise ParseError(r, len(cells), f"{path}: wrong number of cells")
                    try:
                        rows.append([numpy_float(cell) for cell in cells])
                    except ValueError:
                        for c, cell in enumerate(cells):
                            try:
                                numpy_float(cell)
                            except ValueError:
                                # DIVERGENCE: numpy cuts the quoted cell at 100 characters.
                                message = f"{path}: unparseable value {repr(cell)[:100]}"
                                raise ParseError(r, c, message) from None
            finally:
                csv.field_size_limit(limit)
    except UnicodeDecodeError as exc:  # DIVERGENCE: was a bare UnicodeDecodeError
        raise IoError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if not rows:
        raise EmptyDataset(f"{path} has a header but no data rows")
    matrix = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise NonFiniteValue(int(row), int(col))
    if target_idx >= 0:
        target = matrix[:, target_idx]
        features = np.delete(matrix, target_idx, axis=1)
        names = [name for i, name in enumerate(header) if i != target_idx]
    else:
        target = np.zeros(matrix.shape[0])
        features = matrix
        names = list(header)
    if features.shape[1] == 0:
        raise EmptyDataset(f"{path} has no feature columns besides the target")
    return RawDataset(features, target, names, target_name=target_column)


def numpy_float(cell):
    """float() as numpy's C reader applies it. DIVERGENCE: only ASCII
    numbers without underscores, and every character ``str.strip``
    removes (0x1c-0x1f among them) may surround the number."""
    stripped = cell.strip()
    if not stripped.isascii() or "_" in stripped:
        raise ValueError(cell)
    return float(stripped)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([
        "1e5", "-2.5E-3", "+7", ".5", "5.", "-0", "1.5e+3", "1e400", "-1e-400", "1e-320",
    ]),
)
NON_FINITE = st.sampled_from([
    "nan", "NaN", "-nan", "+NAN", "inf", "-inf", "+Inf", "infinity",
    "-Infinity", "INFINITY",
])
# Cells that float() reads and the C reader does not, and cells neither reads.
ODD_CELLS = st.sampled_from([
    "1_000", "-1_0.5", "\u0661\u0662", "\uff11.5", "", "oops", "infinit", "1__0",
    "_1", "0x10", "1 2", "+ 1", "\x00", "1\x002", "\ufeff1", "1\u20282",
])
PADDING = st.text(alphabet=" \t\x0b\x0c\x1c\x1f\xa0\x85\u2003", min_size=1, max_size=2)
NAMES = st.sampled_from(
    ["y", " y ", "x 1", '"y"', '" q "', '"q,r"', '"multi\nline"', '"open', 'q"r', ""]
)
LINE_ENDS = {"lf": ["\n"], "crlf": ["\r\n"], "cr": ["\r"], "mixed": ["\n", "\r\n", "\r"]}


@st.composite
def cells(draw, kind):
    if kind == "non_finite":
        return draw(NON_FINITE)
    if kind == "odd":
        return draw(ODD_CELLS)
    if kind == "padded":
        return draw(PADDING) + draw(NUMBERS) + draw(PADDING)
    if kind == "quoted":
        return f'"{draw(NUMBERS)}"'
    return draw(NUMBERS)


@st.composite
def csv_files(draw, line_ends=("lf", "lf", "crlf", "crlf", "cr", "mixed"), max_rows=4):
    """Bytes of a small CSV file and a target column. Each file mixes
    plain numbers with at most one kind of unusual cell, so that many
    files are accepted; its line ends are drawn from ``line_ends``."""
    width = draw(st.integers(1, 4))
    header = [draw(st.sampled_from(["a", "b", "c", "y"])) for _ in range(width)]
    if draw(st.integers(0, 3)) == 0:
        header[draw(st.integers(0, width - 1))] = draw(NAMES)
    unusual = draw(st.sampled_from(
        ["number"] * 4 + ["non_finite", "odd", "padded", "quoted", "blank_lines", "ragged"]
    ))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, max_rows))):
        row_width = width
        if unusual == "ragged" and draw(st.booleans()):
            row_width += draw(st.sampled_from([-1, 1]))
        kinds = [unusual if draw(st.integers(0, 2)) == 0 else "number" for _ in range(row_width)]
        lines.append(",".join(draw(cells(kind)) for kind in kinds))
        if unusual == "blank_lines" and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    ends = LINE_ENDS[draw(st.sampled_from(line_ends))]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    if draw(st.integers(0, 9)) == 0:
        text += draw(st.sampled_from(ends))  # a trailing blank line
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    target = draw(st.sampled_from(["y", "y", "a", "absent", None]))
    return raw, target


class TestCReaderParity:
    @settings(max_examples=600)
    @given(csv_files())
    @example((b"a,y\r1,2\r3,4\r", "y"))
    @example((b"a,y\n", "y"))
    @example((b"a,y\r\n", None))
    @example((b"a,y", "y"))
    @example((b"", None))
    @example((b'"a\nb",y\n1,2\n3,4\n', "y"))
    @example((b'"a\n1\n2\n', None))
    @example((b'a,y\n"1",2\n', "y"))
    @example((b"a,y\n \xc2\xa01\t,2\r\n3,nan\r\n", "y"))
    @example((b"a,y\n1,2\n ", "y"))
    @example((b"a,y\n1\noops\n", "y"))  # the first row's width is reported first
    # Where numpy's C reader departs from csv.reader and float():
    # ``1_000`` and non-ASCII digits are parse errors,
    @example((b"a,y\n1_000,2\n", "y"))
    @example((b"a,y\n\xd9\xa1\xd9\xa2,2\n", "y"))
    # empty lines are skipped and do not count as rows,
    @example((b"a,y\n\n", "y"))
    @example((b"a,y\n1,2\n\n", "y"))
    @example((b"a,y\n1,2\n3,4\n\n5,6\n", "y"))
    @example((b"a,y\n1,2\r3,4\n\noops,6\n", "y"))
    # cells padded with bytes 0x1c-0x1f are numbers,
    @example((b"a,y\n\x1c1,2\x1f\n", "y"))
    # a data cell may be longer than csv.field_size_limit(),
    @example((b"a,y\n0." + b"0" * 131072 + b"1,2\n", "y"))
    # a bad cell is quoted as numpy quotes it, cut at 100 characters,
    @example((b"a,y\n1,2" + b"x" * 150 + b"\n", "y"))
    # and bytes that are not UTF-8 are an IoError.
    @example((b"a,y\n1,\xff\n", "y"))
    def test_same_matrix_or_same_error(self, tmp_path_factory, case):
        raw, target = case
        path = tmp_path_factory.mktemp("parity") / "data.csv"
        path.write_bytes(raw)
        expected = load_outcome(reference_load_csv, path, target)
        assert load_outcome(load_csv, path, target) == expected

    @pytest.mark.parametrize("workers", [2, 3])
    @settings(max_examples=300)
    @given(csv_files(line_ends=["lf"], max_rows=6))
    def test_same_outcome_in_shares(self, tmp_path_factory, workers, case):
        """A file read in forked row shares gives what one process gives:
        the same matrix, or the same error at the same row. (Only LF
        files can be read in shares.) The file is scanned in chunks of
        three bytes, so that chunk ends fall inside and between lines."""
        raw, target = case
        path = tmp_path_factory.mktemp("shares") / "data.csv"
        path.write_bytes(raw)
        expected = load_outcome(load_csv, path, target)
        assert expected == load_outcome(reference_load_csv, path, target)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("pgbm.data._SCAN_BYTES", 3)
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
            patch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
            patch.setattr(_shares, "_MIN_SHARE_VALUES", 1)
            assert load_outcome(load_csv, path, target) == expected

    def test_field_over_the_csv_limit_is_a_parse_error(self, tmp_path):
        """Only the header is split by csv, so only a header field has a
        length limit; it is reported at row -1."""
        long_cell = "0." + "0" * csv.field_size_limit() + "1"
        path = write(tmp_path, f"{long_cell},y\n1,2\n")
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            load_csv(path, None)
        assert (info.value.row, info.value.col) == (-1, 0)

    @pytest.mark.parametrize(
        "text, row, col",
        [
            ("a,y\n1,2\n3,oops\n", 1, 1),  # could not convert string ... at row R, column C
            ("a,y\n1,2\n\n3\n", 1, 1),  # the dtype passed requires W columns but B ... row R
            ("a,y\n1,2,3\n4,5,6\n", 0, 3),
            ("a,y\n1\n2,3,4\n", 0, 1),
        ],
    )
    def test_numpy_row_errors_become_parse_errors(self, tmp_path, text, row, col):
        with pytest.raises(ParseError) as info:
            load_csv(write(tmp_path, text), "y")
        assert (info.value.row, info.value.col) == (row, col)

    def test_no_warning_for_a_file_without_data(self, tmp_path):
        path = write(tmp_path, "a,y\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EmptyDataset):
                load_csv(path, "y")
        assert caught == []

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self):
        read_end, write_end = os.pipe()
        os.write(write_end, b"a,y\n1,2\n3,4\n")
        os.close(write_end)
        try:
            data = load_csv(f"/dev/fd/{read_end}", "y")
        finally:
            os.close(read_end)
        np.testing.assert_array_equal(data.target, [2.0, 4.0])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("raw", [b"a,y\n1,2\n3,oops\n", b"a,y\n1,2\n\n3,4\n"])
    def test_pipe_reads_like_a_regular_file(self, tmp_path, raw):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        read_end, write_end = os.pipe()
        os.write(write_end, raw)
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        try:
            piped = load_outcome(load_csv, pipe, "y")
        finally:
            os.close(read_end)
        expected = load_outcome(load_csv, path, "y")
        assert piped == tuple(
            part.replace(str(path), pipe) if isinstance(part, str) else part
            for part in expected
        )


class TestCReaderTaken:
    """The files the CLI and the benchmark read load exactly."""

    def test_predict_output(self, tmp_path):
        rng = np.random.default_rng(3)
        moments = PredictiveMoments(mu=rng.normal(size=300), var=rng.uniform(0.1, 2.0, 300))
        samples = rng.normal(size=(20, 300))
        header = ["row", "mu", "var"] + [f"s{j}" for j in range(20)]
        path = tmp_path / "pred.csv"
        with open(path, "wb") as out:
            _write_predictions(out, header, moments, samples, str(tmp_path))
        loaded = load_csv(path, None)
        expected = np.column_stack([np.arange(300), moments.mu, moments.var, samples.T])
        assert loaded.features.tobytes() == expected.tobytes()
        assert loaded.feature_names == header

    def test_wine(self):
        loaded = load_csv(DATA_DIR / "winequality-red.csv", "quality")
        assert (loaded.n, loaded.f) == (1599, 11)
        assert loaded.feature_names[0] == "fixed acidity"
        np.testing.assert_array_equal(loaded.features[0, :3], [7.4, 0.7, 0.0])
        assert loaded.target[0] == 5.0

    def test_a_plain_file_is_read_from_its_path(self, tmp_path, monkeypatch):
        """numpy reads a path in chunks, but a handle one Python call per
        line, so every plain file (see `data._plain_rows`), a quoted
        header line allowed, is read from its path."""
        sources = []
        loadtxt = np.loadtxt

        def recording(source, *args, **kwargs):
            sources.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording)
        load_csv(write(tmp_path, "a,y\n1,2\n"), "y")
        load_csv(DATA_DIR / "winequality-red.csv", "quality")
        load_csv(write(tmp_path, "a,y\r\n1,2\r\n", "crlf.csv"), "y")
        assert [type(source) for source in sources] == [str, str, io.TextIOWrapper]

    def test_a_path_that_parses_as_a_url_is_a_local_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pgbm:" / "host").mkdir(parents=True)
        write(tmp_path / "pgbm:" / "host", "a,y\n1,2\n")
        loaded = load_csv("pgbm://host/data.csv", "y")
        np.testing.assert_array_equal(loaded.features, [[1.0]])

    def test_crlf_with_target_in_the_middle(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,y,b\r\n1,2,3\r\n-4.5, 5e1 ,6")
        loaded = load_csv(path, "y")
        assert loaded.feature_names == ["a", "b"]
        np.testing.assert_array_equal(loaded.features, [[1.0, 3.0], [-4.5, 6.0]])
        np.testing.assert_array_equal(loaded.target, [2.0, 50.0])

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "end, source", [("\n", str), ("\r\n", io.TextIOWrapper)], ids=["lf", "crlf"]
    )
    def test_a_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, workers, end, source):
        """A file saved as utf-8-sig loads as the same file without the
        mark, whether it is read from its path (LF, in row shares) or
        from its handle (CRLF)."""
        rows = "".join(f"{i},{i / 7!r},{-i}\n" for i in range(12))
        text = ("y,a,b\n" + rows).replace("\n", end)
        bare = write(tmp_path, text, "bare.csv")
        marked = tmp_path / "marked.csv"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + bare.read_bytes()
        sources, forks = [], []
        loadtxt, fork = np.loadtxt, os.fork

        def recording(source, *args, **kwargs):
            sources.append(source)
            return loadtxt(source, *args, **kwargs)

        def counted_fork():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(np, "loadtxt", recording)
        monkeypatch.setattr(os, "fork", counted_fork)
        use_workers(monkeypatch, workers)
        expected = load_outcome(load_csv, bare, "y")
        assert expected[3:] == (["a", "b"], "y")
        sources.clear()
        forks.clear()
        assert load_outcome(load_csv, marked, "y") == expected
        assert {type(s) for s in sources} == {source}
        assert len(forks) == (workers - 1 if source is str else 0)

TINY = np.nextafter(0.0, 1.0)
HUGE = np.finfo(np.float64).max
NORMAL = np.finfo(np.float64).smallest_normal


class TestWriteLines:
    def test_lines_end_with_newlines(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, iter(["a,b", "1,2"]))
        assert path.read_bytes() == b"a,b\n1,2\n"

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoError, match="cannot write"):
            write_lines(tmp_path / "missing" / "out.txt", ["a"])

    def test_failure_mid_write_leaves_written_lines(self, tmp_path):
        path = tmp_path / "out.txt"

        def lines():
            yield "first"
            raise OSError("device full")

        with pytest.raises(IoError, match="device full"):
            write_lines(path, lines())
        assert path.read_text(encoding="utf-8") == "first\n"

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(2, 6)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(np.array([[0.0, -0.0, TINY, -TINY], [HUGE, -HUGE, 1e-310, NORMAL]]))
    def test_predict_rows_round_trip_bit_identical(self, tmp_path_factory, table):
        """Columns of ``table`` are mu, var and the sample draws."""
        path = tmp_path_factory.mktemp("round_trip") / "pred.csv"
        moments = PredictiveMoments(mu=table[:, 0], var=table[:, 1])
        samples = np.ascontiguousarray(table[:, 2:].T) if table.shape[1] > 2 else None
        header = ["row", "mu", "var"] + [f"s{j}" for j in range(table.shape[1] - 2)]
        with open(path, "wb") as out:
            _write_predictions(out, header, moments, samples, str(path.parent))
        loaded = load_csv(path, None)
        assert loaded.feature_names == header
        expected = np.column_stack([np.arange(len(table)), table])
        assert loaded.features.tobytes() == expected.tobytes()


class TestReadText:
    def test_reads_the_whole_file(self, tmp_path):
        path = write(tmp_path, "levels=1\n\u00e9\n", name="h.txt")
        assert read_text(path) == "levels=1\n\u00e9\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError, match="cannot read .*absent.txt"):
            read_text(tmp_path / "absent.txt")


class TestRawDataset:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            RawDataset(np.zeros((3, 2)), np.zeros(2), ["a", "b"])

    def test_name_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            RawDataset(np.zeros((3, 2)), np.zeros(3), ["a"])

    def test_non_finite_feature_located(self):
        x = np.zeros((3, 2))
        x[2, 1] = np.inf
        with pytest.raises(NonFiniteValue) as info:
            RawDataset(x, np.zeros(3), ["a", "b"])
        assert info.value.row == 2
        assert info.value.col == 1

    def test_non_finite_target_located(self):
        y = np.array([0.0, np.nan, 0.0])
        with pytest.raises(NonFiniteValue) as info:
            RawDataset(np.zeros((3, 2)), y, ["a", "b"])
        assert info.value.row == 1
        assert info.value.col == -1

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            RawDataset(np.zeros((0, 2)), np.zeros(0), ["a", "b"])


class TestComputeBinEdges:
    def test_quantile_example(self):
        edges = simple_dataset([1.0, 2.0, 3.0, 4.0], max_bins=2)
        np.testing.assert_array_equal(edges.edges[0], [2.0])

    def test_constant_feature(self):
        edges = simple_dataset([5.0, 5.0, 5.0], max_bins=8)
        assert edges.edges[0].size == 0
        assert edges.n_bins(0) == 1

    def test_skewed_duplicates_collapse(self):
        edges = simple_dataset([1.0, 1.0, 1.0, 9.0], max_bins=4)
        np.testing.assert_array_equal(edges.edges[0], [1.0])

    def test_low_cardinality_uses_exact_values(self):
        edges = simple_dataset([5.0, 1.0, 5.0, 9.0], max_bins=8)
        np.testing.assert_array_equal(edges.edges[0], [1.0, 5.0])
        assert edges.n_bins(0) == 3

    def test_requires_at_least_two_bins(self):
        data = simple_dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            compute_bin_edges(data, 1)

    def test_bin_indices_fit_uint16(self):
        data = simple_dataset([1.0, 2.0])
        assert compute_bin_edges(data, 65536).n_bins(0) == 2
        with pytest.raises(ValueError, match="max_bins"):
            compute_bin_edges(data, 65537)

    def test_edges_strictly_increasing_property(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(2, 400))
            values = rng.choice([0.0, 1.0, 2.5, 7.0], size=n) + rng.normal(
                size=n
            ) * rng.choice([0.0, 1.0])
            max_bins = int(rng.integers(2, 64))
            edges = simple_dataset(values, max_bins=max_bins)
            e = edges.edges[0]
            assert np.all(np.diff(e) > 0)
            assert edges.n_bins(0) <= max_bins

    def test_cardinality_property(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            distinct = rng.normal(size=int(rng.integers(1, 12)))
            values = rng.choice(distinct, size=50)
            card = np.unique(values).size
            edges = simple_dataset(values, max_bins=16)
            assert edges.n_bins(0) == card


def loop_bin_edges(values: np.ndarray, max_bins: int) -> np.ndarray:
    """compute_bin_edges for one feature as a loop over the quantiles."""
    values = np.sort(values)
    distinct = np.unique(values)
    if distinct.size <= max_bins:
        return distinct[:-1]
    qs = [
        float(values[max(0, math.ceil(k / max_bins * values.size) - 1)])
        for k in range(1, max_bins)
    ]
    return np.asarray(sorted(set(qs)), dtype=np.float64)


@st.composite
def binning_inputs(draw):
    """Values drawn with ties from a pool of about max_bins distinct
    floats that holds both zeros, so the distinct count often lands just
    above max_bins."""
    max_bins = draw(st.integers(2, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(finite, min_size=1, max_size=max_bins + 3)) + [-0.0, 0.0]
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
    return np.array(values), max_bins


class TestBinEdgesMatchLoop:
    @given(binning_inputs())
    @example((np.array([-0.0, 0.0, 0.0, -0.0, 1.0, 2.0, 2.0, 3.0]), 3))
    @example((np.array([0.0, -0.0, 5.0, 5.0, 6.0, 7.0, 8.0]), 4))
    @example((np.arange(42.0), 14))  # 9 / 14 * 42 rounds up to just above 27
    def test_bit_identical_to_the_loop(self, inputs):
        values, max_bins = inputs
        edges = simple_dataset(values, max_bins=max_bins).edges[0]
        assert edges.tobytes() == loop_bin_edges(values, max_bins).tobytes()


class TestApplyBins:
    def test_tie_goes_low(self):
        data = simple_dataset([2.5])
        edges = BinEdges([np.array([2.5])])
        binned = apply_bins(data, edges)
        assert binned.bins[0, 0] == 0

    def test_out_of_range_clamps(self):
        data = simple_dataset([99.0, -99.0])
        edges = BinEdges([np.array([2.5])])
        binned = apply_bins(data, edges)
        assert binned.bins[0, 0] == 1
        assert binned.bins[1, 0] == 0

    def test_feature_count_mismatch(self):
        data = RawDataset(np.zeros((2, 2)), np.zeros(2), ["a", "b"])
        edges = BinEdges([np.array([0.5])])
        with pytest.raises(FeatureCountMismatch):
            apply_bins(data, edges)

    def test_monotone_property(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            values = rng.normal(size=100) * 10
            edges = simple_dataset(values, max_bins=int(rng.integers(2, 32)))
            binned = apply_bins(simple_dataset(values), edges)
            order = np.argsort(values, kind="stable")
            assert np.all(np.diff(binned.bins[order, 0].astype(int)) >= 0)

    def test_bin_representatives_round_trip(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=200)
        edges = simple_dataset(values, max_bins=16)
        binned = apply_bins(simple_dataset(values), edges)
        e = edges.edges[0]
        reps = np.where(
            binned.bins[:, 0] < e.size,
            e[np.minimum(binned.bins[:, 0], e.size - 1)],
            e[-1] + 1.0,
        )
        rebinned = apply_bins(simple_dataset(reps), edges)
        np.testing.assert_array_equal(rebinned.bins, binned.bins)

    def test_training_rows_stay_in_range(self, wine):
        edges = compute_bin_edges(wine, 64)
        binned = apply_bins(wine, edges)
        for j in range(wine.f):
            assert binned.bins[:, j].max() < edges.n_bins(j)
        assert binned.max_n_bins <= 64

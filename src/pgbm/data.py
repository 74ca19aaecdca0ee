"""Dataset ingestion, text output and equal-density histogram binning.

``load_csv`` reads every numeric CSV, ``read_text`` every other input
file, and ``OutputFile`` writes every output file (``write_lines``
writes one from its lines).

Features are quantized once, globally, before boosting starts: each
feature gets a sorted table of upper bin edges placed at empirical
quantiles of the training values, and a sample's bin index is the number
of edges strictly below its value. Ties at an edge fall in the lower
bin, and unseen out-of-range values clamp to the first or last bin, so
prediction never fails on new data.
"""

from __future__ import annotations

import csv
import os
import re
import stat
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, TextIO

import numpy as np

from . import _shares
from ._value import Value
from .errors import (
    EmptyDataset,
    FeatureCountMismatch,
    IoError,
    LengthMismatch,
    MissingColumn,
    NonFiniteValue,
    ParseError,
)

if TYPE_CHECKING:
    from _typeshed import SupportsWrite

# Bin indices are stored as uint16.
MAX_BINS = 65536
# numpy's two row errors, compiled on first use; a quoted cell is its repr cut at 100.
_BAD_CELL = r"could not convert string (.*) to float64 at row (\d+), column (\d+)\."
_BAD_WIDTH = r"the dtype passed requires \d+ columns but (\d+) were found at row (\d+)"
# Name endings that make numpy open a path through a decompressor.
_PACKED = (".bz2", ".gz", ".lzma", ".xz")
# Bytes `_plain_rows` reads at a time.
_SCAN_BYTES = 1 << 18


class RawDataset(Value):
    """A dense numeric dataset: feature matrix, target vector, names.

    ``target_name`` records which column the target came from when the
    dataset was loaded from a file; synthetic datasets may leave it None.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: list[str]
    target_name: str | None = None

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        target = np.ascontiguousarray(self.target, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)
        if self.n == 0 or self.f == 0:
            raise EmptyDataset("dataset has no rows or no feature columns")
        if target.shape != (self.n,):
            raise LengthMismatch(
                f"target length {target.shape} does not match {self.n} rows"
            )
        if len(self.feature_names) != self.f:
            raise LengthMismatch("feature_names length does not match feature count")
        if not np.isfinite(features).all():
            row, col = np.argwhere(~np.isfinite(features))[0]
            raise NonFiniteValue(int(row), int(col))
        if not np.isfinite(target).all():
            row = int(np.argwhere(~np.isfinite(target))[0][0])
            raise NonFiniteValue(row, -1)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def f(self) -> int:
        return self.features.shape[1]


class BinEdges(Value):
    """Per-feature sorted upper edges; feature j has len(edges[j])+1 bins."""

    edges: list[np.ndarray]

    def __post_init__(self):
        clean = []
        for j, e in enumerate(self.edges):
            arr = np.ascontiguousarray(e, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"edges for feature {j} must be 1-D")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"edges for feature {j} are not strictly increasing")
            clean.append(arr)
        object.__setattr__(self, "edges", clean)

    @property
    def n_features(self) -> int:
        return len(self.edges)

    def n_bins(self, feature: int) -> int:
        return len(self.edges[feature]) + 1


class BinnedDataset(Value):
    """Feature matrix reduced to per-feature bin indices."""

    bins: np.ndarray
    edges: BinEdges
    target: np.ndarray

    @property
    def n(self) -> int:
        return self.bins.shape[0]

    @property
    def f(self) -> int:
        return self.bins.shape[1]

    @property
    def max_n_bins(self) -> int:
        return max(self.edges.n_bins(j) for j in range(self.f))


def load_csv(path: str | Path, target_column: str | None) -> RawDataset:
    """Read a comma-delimited UTF-8 file, after any byte-order mark, with a header row.

    The target column is extracted into ``target`` and the remaining
    columns, in file order, become features. With ``target_column=None``
    every column is a feature and the target is a zero vector, which is
    the shape prediction-only inputs arrive in.

    ``csv.reader`` splits the header, so a quoted name may hold commas
    or line ends. numpy's C reader then reads the rest: the data rows
    are the non-empty lines after the header, cells may be in double
    quotes, lines end in LF, CRLF or CR, and a cell is an ASCII number
    with optional surrounding whitespace (no ``1_000``; every spelling of
    nan and inf parses). A plain regular file (see `_plain_rows`) is read
    from its path, in row shares on every CPU when it is large (see
    `_read_plain`); any other file, a pipe included, is read from the
    open handle. Both give the same matrix or the same error.

    Raises IoError (also for bytes that are not UTF-8), MissingColumn,
    ParseError(row, col), NonFiniteValue(row, col) or EmptyDataset; a
    missing target column is reported before any bad row, and an
    unparseable cell before any non-finite one. Row indices count data
    rows from 0 (a header field over ``csv.field_size_limit()`` is row
    -1); column indices refer to positions in the file, and a row of the
    wrong width is reported at the column of its cell count.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [name.strip() for name in next(reader)]
            except StopIteration:
                raise EmptyDataset(f"{path} is empty") from None
            except csv.Error as exc:
                raise ParseError(-1, 0, f"{path}: {exc}") from None
            if target_column is not None and target_column not in header:
                raise MissingColumn(f"column {target_column!r} not found in {path}")
            # numpy skips the header as one line, and would unpack a packed name.
            plain = reader.line_num == 1 and not str(path).endswith(_PACKED)
            rows = _plain_rows(fh.fileno()) if plain else None
            if rows is None:
                matrix = _read_rows(fh, len(header), path)
            else:
                matrix = _read_plain(path, rows, len(header))
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise NonFiniteValue(int(row), int(col))
    if target_column is not None:
        at = header.index(target_column)
        target = matrix[:, at]
        features = np.delete(matrix, at, axis=1)
        names = header[:at] + header[at + 1 :]
    else:
        target = np.zeros(matrix.shape[0])
        features = matrix
        names = header
    if features.shape[1] == 0:
        raise EmptyDataset(f"{path} has no feature columns besides the target")
    return RawDataset(features, target, names, target_name=target_column)


def _plain_rows(fd: int) -> int | None:
    """The number of data rows of ``fd`` if it is a plain regular file,
    else None.

    A plain file's lines end in LF, none is empty, and after the first
    line it holds only ASCII and no double quote. So each of its lines
    after the first is one row for numpy, whichever line a read starts
    at, and no read of those lines can fail to decode. The file is read
    in chunks by position; ``fd``'s own position does not move."""
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        return None
    lines = at = 0
    last = b"\n"  # an empty first line is an empty line
    while chunk := os.pread(fd, _SCAN_BYTES, at):
        at += len(chunk)
        rest = chunk.partition(b"\n")[2] if lines == 0 else chunk  # after the header
        ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        if (
            b"\r" in chunk
            or b'"' in rest
            or not rest.isascii()
            or ends.size and ends[0] == 0 and last == b"\n"
            or ends.size > 1 and np.diff(ends).min() == 1
        ):
            return None
        lines += ends.size
        last = chunk[-1:]
    return lines - (last == b"\n")


def _read_plain(path: str | Path, rows: int, width: int) -> np.ndarray:
    """Read the ``rows`` data rows of a plain file (see `_plain_rows`)
    from its path.

    Above the share minimum the rows are split into runs, one per CPU,
    each read from its own first line on (see `_shares.gather`). If a run
    fails or reads other than its own rows here too, the whole file is
    read again: an error then carries the row a single read gives."""
    source = os.path.abspath(path)  # never a URL to numpy
    n = _shares.count(rows, width)
    runs = [range(rows * k // n, rows * (k + 1) // n) for k in range(n)]

    def read_run(run: range, file: SupportsWrite[bytes]) -> None:
        last = run.stop == rows  # read to the end, so that no row is left out
        cells = _read_rows(source, width, path, 1 + run.start, None if last else len(run))
        if len(cells) != len(run):
            raise ValueError(f"{path}: {len(cells)} rows where {len(run)} were counted")
        file.write(cells)

    cells = _shares.gather(runs, read_run)
    if cells is not None:
        return np.frombuffer(cells).reshape(rows, width)
    return _read_rows(source, width, path, 1)


def _read_rows(
    source: TextIO | str,
    width: int,
    path: str | Path,
    skip: int = 0,
    max_rows: int | None = None,
) -> np.ndarray:
    """Parse the data rows of ``source`` into an (n, width) matrix: all
    rows left in an open handle, or those of a file path after its first
    ``skip`` lines, at most ``max_rows`` of them.

    Each row is one record of ``width`` floats, so numpy itself refuses
    the first row of any other width. Its two row errors become
    ParseError at numpy's row and column, counted from the first row
    read."""
    record = np.dtype([("cells", np.float64, (width,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            rows = np.loadtxt(
                source, delimiter=",", quotechar='"', comments=None, ndmin=1,
                dtype=record, encoding="utf-8", skiprows=skip, max_rows=max_rows,
            )
    except UserWarning:  # numpy warns when no data line follows the header
        raise EmptyDataset(f"{path} has a header but no data rows") from None
    except ValueError as exc:  # a UnicodeDecodeError matches neither form
        if cell := re.fullmatch(_BAD_CELL, str(exc)):
            value, row, col = cell.groups()
            message = f"{path}: unparseable value {value}"
            raise ParseError(int(row), int(col) - 1, message) from None
        if ragged := re.match(_BAD_WIDTH, str(exc)):
            cells, row = ragged.groups()
            message = f"{path}: wrong number of cells"
            raise ParseError(int(row) - 1, int(cells), message) from None
        raise
    return rows["cells"]


def read_text(path: str | Path) -> str:
    """Return the whole of a UTF-8 text file. Raises IoError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


class OutputFile:
    """``path``, opened to write bytes, as a `with` block's file.

    An OSError while opening, writing or closing this file is raised as
    IoError naming ``path``; an OSError of anything else done inside the
    block passes through as it is. A failure while writing can leave a
    partial file behind."""

    def __init__(self, path: str | Path):
        self.path = path
        try:
            self._fh = open(path, "wb")
        except OSError as exc:
            raise self._error(exc) from exc

    def write(self, data: bytes) -> int:
        try:
            return self._fh.write(data)
        except OSError as exc:
            raise self._error(exc) from exc

    def __enter__(self) -> OutputFile:
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            self._fh.close()
        except OSError as exc:
            raise self._error(exc) from exc

    def _error(self, exc: OSError) -> IoError:
        return IoError(f"cannot write {self.path}: {exc}")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each string of ``lines`` and a newline to a UTF-8 file.

    ``lines`` is consumed lazily. Raises IoError, also for an OSError
    raised by ``lines``; a failure while writing can leave a partial file
    behind."""
    try:
        with OutputFile(path) as fh:
            for line in lines:
                fh.write(f"{line}\n".encode("utf-8"))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def compute_bin_edges(data: RawDataset, max_bins: int) -> BinEdges:
    """Place per-feature edges at the k/max_bins quantiles, k=1..max_bins-1.

    The k-th quantile is the sorted value at index max(0, ceil(k/max_bins
    * n) - 1). Duplicate quantile values collapse to the first of each
    run, so edges stay strictly increasing.
    A feature with c <= max_bins distinct values gets one bin per value
    (edges at every distinct value except the largest), so low-cardinality
    features are never lumped by a skewed quantile grid.
    """
    if not 2 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be between 2 and {MAX_BINS}")
    edges: list[np.ndarray] = []
    for j in range(data.f):
        values = np.sort(data.features[:, j])
        distinct = np.unique(values)
        if distinct.size <= max_bins:
            edges.append(distinct[:-1].copy())
            continue
        q = np.arange(1, max_bins) / max_bins
        qs = values[np.maximum(np.ceil(q * values.size).astype(np.int64) - 1, 0)]
        edges.append(qs[np.concatenate(([True], qs[1:] != qs[:-1]))])
    return BinEdges(edges)


def apply_bins(data: RawDataset, edges: BinEdges) -> BinnedDataset:
    """Quantize features: bin index = number of edges strictly below the value.

    Values equal to an edge go to the lower bin; values beyond the edge
    range clamp to the extreme bins by construction.
    """
    if data.f != edges.n_features:
        raise FeatureCountMismatch(
            f"data has {data.f} features, edges were fit for {edges.n_features}"
        )
    bins = np.empty((data.n, data.f), dtype=np.uint16)
    for j in range(data.f):
        bins[:, j] = np.searchsorted(edges.edges[j], data.features[:, j], side="left")
    return BinnedDataset(bins=bins, edges=edges, target=data.target.copy())

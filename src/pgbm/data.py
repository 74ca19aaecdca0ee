"""Dataset ingestion, text output and equal-density histogram binning.

``load_csv`` reads every numeric CSV, ``read_text`` every other input
file, and ``write_lines`` writes every output file.

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
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    EmptyDataset,
    FeatureCountMismatch,
    IoError,
    LengthMismatch,
    MissingColumn,
    NonFiniteValue,
    ParseError,
)

# Bin indices are stored as uint16.
MAX_BINS = 65536
# Bytes numpy's float parser strips as whitespace and float() rejects.
_SEPARATOR_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Read size of the line count that guards the C reader.
_SCAN_BYTES = 1 << 20


@dataclass(frozen=True)
class RawDataset:
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


@dataclass(frozen=True)
class BinEdges:
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


@dataclass(frozen=True)
class BinnedDataset:
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
    """Read a comma-delimited UTF-8 file with a header row.

    The target column is extracted into ``target`` and the remaining
    columns, in file order, become features. With ``target_column=None``
    every column is a feature and the target is a zero vector, which is
    the shape prediction-only inputs arrive in.

    Cells are split as ``csv.reader`` splits them (quotes, CRLF or CR
    line ends) and read as ``float()`` reads them (surrounding spaces,
    ``1_000``, every spelling of nan and inf). numpy's C reader parses
    every file on which it is certain to agree; ``_parse_rows`` parses
    the rest and gives every error.

    Raises IoError, MissingColumn, ParseError(row, col),
    NonFiniteValue(row, col) or EmptyDataset; an unparseable cell is
    reported before any non-finite one. Row indices count data rows
    from 0 (the header is not counted); column indices refer to
    positions in the file.
    """
    try:
        parsed = _parse_fast(path)
        header, matrix = parsed if parsed is not None else _parse_rows(path, target_column)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    target_idx = _column_index(header, target_column, path)
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


def _column_index(header: list[str], target_column: str | None, path: str | Path) -> int:
    """Position of the target column in the header, -1 for no target."""
    if target_column is None:
        return -1
    if target_column not in header:
        raise MissingColumn(f"column {target_column!r} not found in {path}")
    return header.index(target_column)


def _parse_rows(path: str | Path, target_column: str | None) -> tuple[list[str], np.ndarray]:
    """Parse with ``csv.reader`` and ``float()``, one cell at a time.

    This parser defines what ``load_csv`` accepts and raises every parse
    error; a missing target column is reported before any bad cell. A
    field longer than ``csv.field_size_limit()`` is a ParseError."""
    header: list[str] | None = None
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
            _column_index(header, target_column, path)
            for r, cells in enumerate(reader):
                if len(cells) != len(header):
                    raise ParseError(r, len(cells), f"{path}: wrong number of cells")
                try:
                    rows.append([float(cell) for cell in cells])
                except ValueError:
                    for c, cell in enumerate(cells):
                        try:
                            float(cell)
                        except ValueError:
                            message = f"{path}: unparseable value {cell!r}"
                            raise ParseError(r, c, message) from None
        except StopIteration:
            raise EmptyDataset(f"{path} is empty") from None
        except csv.Error as exc:
            # A field longer than csv.field_size_limit(); row -1 is the header.
            row = -1 if header is None else len(rows)
            raise ParseError(row, 0, f"{path}: {exc}") from None
    if not rows:
        raise EmptyDataset(f"{path} has a header but no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def _parse_fast(path: str | Path) -> tuple[list[str], np.ndarray] | None:
    """Parse with numpy's C reader, or return None when its result could
    differ from ``_parse_rows``'s. The C reader

    - has no quoting and rejects cells that ``float()`` takes (``1_000``,
      non-ASCII digits): it raises, and the file goes to ``_parse_rows``;
    - warns on a file without data lines: the warning is raised too;
    - skips blank lines, which csv reports as rows of the wrong width: its
      row count must equal the number of lines after the header.

    The header line is split by csv in strict mode, so that a quoted field
    left open at the line end, which csv would continue on the next line,
    raises. A pipe cannot be read twice, so only a regular file is parsed
    here."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        first = fh.readline()
        fh.seek(0)
        lines = _count_plain_lines(fh)
    if lines is None or lines < 2:
        return None
    try:
        cells = next(csv.reader([first.decode("utf-8")], strict=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, ndmin=2,
                dtype=np.float64, encoding="utf-8",
            )
    except (ValueError, UserWarning, csv.Error):
        return None
    if matrix.shape != (lines - 1, len(cells)):
        return None
    return [name.strip() for name in cells], matrix


def _count_plain_lines(fh) -> int | None:
    """Count the lines of a binary file, or return None if it holds a
    lone CR (csv ends a line there, the scan does not), a byte 0x1c-0x1f
    (numpy strips them around a number, ``float()`` does not) or a field
    longer than csv's limit (csv raises on it)."""
    limit = csv.field_size_limit()
    lines = offset = 0
    last_separator = -1
    tail = b"\n"
    while chunk := fh.read(_SCAN_BYTES):
        if chunk.endswith(b"\r"):  # keep a CRLF within one chunk
            chunk += fh.read(1)
        if any(byte in chunk for byte in _SEPARATOR_BYTES):
            return None
        if b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n"):
            return None
        codes = np.frombuffer(chunk, dtype=np.uint8)
        newline = codes == ord("\n")
        lines += int(np.count_nonzero(newline))
        separators = np.flatnonzero(newline | (codes == ord(","))) + offset
        if np.diff(separators, prepend=last_separator).max(initial=0) > limit + 1:
            return None
        if separators.size:
            last_separator = int(separators[-1])
        offset += len(chunk)
        tail = chunk[-1:]
    if offset - last_separator > limit + 1:
        return None
    return lines + (tail != b"\n")


def read_text(path: str | Path) -> str:
    """Return the whole of a UTF-8 text file. Raises IoError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each string of ``lines`` and a newline to a UTF-8 file.

    ``lines`` is consumed lazily. Raises IoError; a failure while
    writing can leave a partial file behind."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
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

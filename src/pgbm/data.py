"""Dataset ingestion, text output and equal-density histogram binning.

``load_csv`` reads every numeric CSV; ``write_lines`` writes every output file.

Features are quantized once, globally, before boosting starts: each
feature gets a sorted table of upper bin edges placed at empirical
quantiles of the training values, and a sample's bin index is the number
of edges strictly below its value. Ties at an edge fall in the lower
bin, and unseen out-of-range values clamp to the first or last bin, so
prediction never fails on new data.
"""

from __future__ import annotations

import csv
import math
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

    Raises IoError, MissingColumn, ParseError(row, col),
    NonFiniteValue(row, col) or EmptyDataset; an unparseable cell is
    reported before any non-finite one. Row indices count data rows
    from 0 (the header is not counted); column indices refer to
    positions in the file.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
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

            rows: list[list[float]] = []
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


def _quantile_value(sorted_values: np.ndarray, q: float) -> float:
    """Empirical quantile by sorted-order index ceil(q*n)-1, lower interpolation."""
    n = sorted_values.size
    idx = max(0, math.ceil(q * n) - 1)
    return float(sorted_values[idx])


def compute_bin_edges(data: RawDataset, max_bins: int) -> BinEdges:
    """Place per-feature edges at the k/max_bins quantiles, k=1..max_bins-1.

    Duplicate quantile values collapse so edges stay strictly increasing.
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
        qs = [_quantile_value(values, k / max_bins) for k in range(1, max_bins)]
        unique_edges = sorted(set(qs))
        edges.append(np.asarray(unique_edges, dtype=np.float64))
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

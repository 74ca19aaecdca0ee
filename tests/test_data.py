"""CSV ingestion and quantile binning."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pgbm import (
    BinEdges,
    RawDataset,
    apply_bins,
    compute_bin_edges,
    load_csv,
)
from pgbm.boost import PredictiveMoments
from pgbm.cli import _prediction_lines
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
        write_lines(path, _prediction_lines(header, moments, samples))
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

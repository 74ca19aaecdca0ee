"""Text-format model persistence."""

from __future__ import annotations

import copy
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgbm import (
    BoostConfig,
    Ensemble,
    RawDataset,
    TreeConfig,
    load,
    mse_gradhess,
    predict_moments,
    save,
    train,
)
from pgbm.errors import CorruptModel, IoError, VersionMismatch
from pgbm.model_io import _SCALARS

from conftest import make_regression


@pytest.fixture(scope="module")
def fitted():
    data = make_regression(50, 120, 2)
    config = BoostConfig(
        n_estimators=6,
        learning_rate=0.1,
        tree=TreeConfig(max_leaves=6, max_bins=16, lam=1.0),
        rho="auto",
        seed=3,
    )
    return data, train(data, mse_gradhess, config)


def mutate(path, out, fn):
    lines = path.read_text(encoding="utf-8").splitlines()
    fn(lines)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


class TestRoundTrip:
    def test_predictions_survive_exactly(self, fitted, tmp_path):
        data, model = fitted
        path = tmp_path / "model.txt"
        save(model, path)
        loaded = load(path)
        before = predict_moments(model, data)
        after = predict_moments(loaded, data)
        np.testing.assert_array_equal(before.mu, after.mu)
        np.testing.assert_array_equal(before.var, after.var)

    def test_metadata_survives(self, fitted, tmp_path):
        data, model = fitted
        path = tmp_path / "model.txt"
        save(model, path)
        loaded = load(path)
        assert loaded.y0 == model.y0
        assert loaded.alpha == model.alpha
        assert loaded.rho_default == model.rho_default
        assert loaded.n_train == model.n_train
        assert loaded.feature_names == model.feature_names
        assert loaded.target_name == model.target_name
        assert loaded.config.tree.lam == model.config.tree.lam
        assert len(loaded.trees) == len(model.trees)

    def test_tree_tables_survive_exactly(self, fitted, tmp_path):
        _, model = fitted
        path = tmp_path / "model.txt"
        save(model, path)
        loaded = load(path)
        for before, after in zip(model.trees, loaded.trees, strict=True):
            for table in ("nodes", "leaves"):
                x, y = getattr(before, table), getattr(after, table)
                assert y.dtype == x.dtype
                assert np.array_equal(x, y)
                assert y.flags.c_contiguous and not y.flags.writeable

    def test_save_load_save_is_byte_stable(self, fitted, tmp_path):
        _, model = fitted
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        save(model, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_numpy_scalar_config_reals_round_trip(self, fitted, tmp_path):
        data, model = fitted
        config = BoostConfig(
            n_estimators=2,
            learning_rate=np.float64(0.1),
            bagging_fraction=np.float64(1.0),
            tree=TreeConfig(lam=np.float64(1.0), min_split_gain=np.float64(0.0)),
            rho=np.float64(0.05),
        )
        path = tmp_path / "model.txt"
        save(train(data, mse_gradhess, config), path)
        loaded = load(path)
        assert loaded.config.learning_rate == 0.1
        assert loaded.config.rho == 0.05

    def test_header_line(self, fitted, tmp_path):
        _, model = fitted
        path = tmp_path / "model.txt"
        save(model, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "pgbmfmt v1"

    def test_empty_ensemble(self, fitted, tmp_path):
        data, model = fitted
        empty = Ensemble(
            trees=[],
            y0=1.25,
            alpha=0.1,
            rho_default=0.02,
            edges=model.edges,
            config=model.config,
            n_train=7,
            feature_names=model.feature_names,
            target_name=None,
        )
        path = tmp_path / "empty.txt"
        save(empty, path)
        loaded = load(path)
        assert loaded.trees == []
        assert loaded.target_name is None
        pm = predict_moments(loaded, data)
        np.testing.assert_array_equal(pm.mu, np.full(data.n, 1.25))

    def test_feature_name_with_comma_rejected(self, fitted, tmp_path):
        _, model = fitted
        bad = Ensemble(
            trees=model.trees,
            y0=model.y0,
            alpha=model.alpha,
            rho_default=model.rho_default,
            edges=model.edges,
            config=model.config,
            n_train=model.n_train,
            feature_names=["a,b", "c"],
        )
        with pytest.raises(ValueError):
            save(bad, tmp_path / "bad.txt")

    def test_feature_name_given_twice_rejected(self, fitted, tmp_path):
        _, model = fitted
        bad = copy.copy(model)
        bad.feature_names = ["x0", "x0"]
        with pytest.raises(ValueError, match="feature name 'x0' is given 2 times"):
            save(bad, tmp_path / "bad.txt")


@pytest.fixture()
def saved(fitted, tmp_path):
    _, model = fitted
    path = tmp_path / "model.txt"
    save(model, path)
    return path, tmp_path


class TestCorruption:
    def test_empty_file(self, saved):
        path, tmp = saved
        bad = tmp / "zero.txt"
        bad.write_text("", encoding="utf-8")
        with pytest.raises(CorruptModel) as info:
            load(bad)
        assert info.value.line == 1

    def test_future_version(self, saved):
        path, tmp = saved

        def bump(lines):
            lines[0] = "pgbmfmt v2"

        with pytest.raises(VersionMismatch):
            load(mutate(path, tmp / "v2.txt", bump))

    def test_not_a_model_file(self, saved):
        path, tmp = saved
        bad = tmp / "junk.txt"
        bad.write_text("hello world\nmore text\n", encoding="utf-8")
        with pytest.raises(CorruptModel) as info:
            load(bad)
        assert info.value.line == 1

    def test_unknown_scalar_key(self, saved):
        path, tmp = saved

        def rename(lines):
            lines[1] = "bogus_key = 4"

        with pytest.raises(CorruptModel) as info:
            load(mutate(path, tmp / "unknown.txt", rename))
        assert info.value.line == 2

    def test_truncated_mid_scalars(self, saved):
        path, tmp = saved
        lines = path.read_text(encoding="utf-8").splitlines()
        bad = tmp / "trunc.txt"
        kept = lines[:4]
        bad.write_text("\n".join(kept) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel) as info:
            load(bad)
        assert info.value.line == len(kept) + 1

    def test_negative_seed(self, saved):
        path, tmp = saved

        def negate(lines):
            at = lines.index(next(line for line in lines if line.startswith("seed = ")))
            lines[at] = "seed = -1"

        with pytest.raises(CorruptModel, match="seed must be nonnegative"):
            load(mutate(path, tmp / "seed.txt", negate))

    def test_missing_final_leaf_line(self, saved):
        path, tmp = saved
        lines = path.read_text(encoding="utf-8").splitlines()
        bad = tmp / "shorttree.txt"
        bad.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel):
            load(bad)

    def test_negative_leaf_variance(self, saved):
        path, tmp = saved

        def corrupt(lines):
            for i, line in enumerate(lines):
                if line.startswith("leaf "):
                    parts = line.split()
                    parts[3] = "-1.0"
                    lines[i] = " ".join(parts)
                    self.bad_line = i + 1
                    return
            raise AssertionError("no leaf line found")

        with pytest.raises(CorruptModel) as info:
            load(mutate(path, tmp / "negvar.txt", corrupt))
        assert info.value.line == self.bad_line

    def test_max_bins_above_cap(self, saved):
        path, tmp = saved

        def widen(lines):
            index = lines.index("max_bins = 16")
            lines[index] = "max_bins = 70000"

        with pytest.raises(CorruptModel, match="max_bins"):
            load(mutate(path, tmp / "bins.txt", widen))

    def test_dangling_child_reference(self, saved):
        path, tmp = saved

        def corrupt(lines):
            for i, line in enumerate(lines):
                if line.startswith("node "):
                    parts = line.split()
                    parts[4] = "N99"
                    lines[i] = " ".join(parts)
                    return
            raise AssertionError("no node line found")

        with pytest.raises(CorruptModel):
            load(mutate(path, tmp / "dangling.txt", corrupt))

    def test_duplicate_scalar_key(self, saved):
        path, tmp = saved

        def duplicate(lines):
            lines.insert(2, lines[1])

        with pytest.raises(CorruptModel):
            load(mutate(path, tmp / "dup.txt", duplicate))

    def test_trailing_garbage(self, saved):
        path, tmp = saved

        def append(lines):
            lines.append("extra line")

        with pytest.raises(CorruptModel):
            load(mutate(path, tmp / "tail.txt", append))

    def test_decreasing_edges(self, saved):
        path, tmp = saved

        def corrupt(lines):
            for i, line in enumerate(lines):
                if line.startswith("edges 0: "):
                    head, _, values = line.partition(": ")
                    numbers = values.split(",")
                    assert len(numbers) >= 2, "need at least two edges to disorder"
                    numbers[0], numbers[-1] = numbers[-1], numbers[0]
                    lines[i] = head + ": " + ",".join(numbers)
                    return
            raise AssertionError("edges line not found")

        with pytest.raises(CorruptModel):
            load(mutate(path, tmp / "edges.txt", corrupt))

    def test_feature_named_twice(self, saved):
        path, tmp = saved
        lines = []

        def corrupt(text):
            lines.append(set_token(text, "feature_names = ", 2, "x0,x0"))

        with pytest.raises(CorruptModel, match="feature name 'x0' is given 2 times") as info:
            load(mutate(path, tmp / "twice.txt", corrupt))
        assert info.value.line == lines[0]

    @pytest.mark.parametrize("key, value", [("n_trees", "-1"), ("n_train", "0"), ("n_train", "-3")])
    def test_count_below_its_least_value(self, saved, key, value):
        path, tmp = saved
        lines = []

        def corrupt(text):
            lines.append(set_token(text, f"{key} = ", 2, value))
            del text[text.index("tree 0"):]  # a file that holds no tree block

        with pytest.raises(CorruptModel, match=f"bad value for {key}: {value} is below") as info:
            load(mutate(path, tmp / "count.txt", corrupt))
        assert info.value.line == lines[0]


def set_token(lines, prefix, position, value):
    """Replace token ``position`` of the first line starting with
    ``prefix``; returns that line's one-based number."""
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            parts = line.split()
            parts[position] = value
            lines[i] = " ".join(parts)
            return i + 1
    raise AssertionError(f"no line starting with {prefix!r}")


class TestLayout:
    @pytest.mark.parametrize("target_name", [None, "y"])
    def test_save_writes_the_scalar_keys_in_reader_order(self, fitted, tmp_path, target_name):
        _, model = fitted
        model = copy.copy(model)
        model.target_name = target_name
        path = tmp_path / "model.txt"
        save(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        keys = [line.partition(" = ")[0] for line in lines if " = " in line]
        expected = [k for k in _SCALARS if target_name is not None or k != "target_column"]
        assert keys == expected

    @pytest.mark.parametrize("blank", ["", "   ", "\t"])
    def test_blank_line_in_a_tree_block(self, saved, blank):
        path, tmp = saved
        lines = path.read_text(encoding="utf-8").splitlines()
        at = lines.index("tree 0") + 2
        lines.insert(at, blank)
        bad = tmp / "blank.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel) as info:
            load(bad)
        assert info.value.line == at + 1

    def test_nodes_out_of_id_order(self, saved):
        path, tmp = saved
        lines = path.read_text(encoding="utf-8").splitlines()
        first = lines.index("tree 0") + 1
        assert lines[first + 1].startswith("node 1 ")
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        bad = tmp / "order.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel, match="expected 'node 0") as info:
            load(bad)
        assert info.value.line == first + 1

    def test_child_reference_beyond_int64(self, saved):
        path, tmp = saved
        lines = []

        def corrupt(text):
            lines.append(set_token(text, "node 0 ", 4, f"N{2**64}"))

        with pytest.raises(CorruptModel, match="bad child reference") as info:
            load(mutate(path, tmp / "ref.txt", corrupt))
        assert info.value.line == lines[0]


class TestTreeStructure:
    def test_self_referencing_node_is_rejected_at_load(self, saved):
        path, tmp = saved
        def cycle(lines):
            set_token(lines, "node 1 ", 4, "N1")

        with pytest.raises(CorruptModel, match="does not follow"):
            load(mutate(path, tmp / "cycle.txt", cycle))

    def test_child_referenced_twice(self, saved):
        path, tmp = saved

        def share(lines):
            for i, line in enumerate(lines):
                if line.startswith("node 0 "):
                    parts = line.split()
                    parts[5] = parts[4]
                    lines[i] = " ".join(parts)
                    return
            raise AssertionError("no root line")

        with pytest.raises(CorruptModel, match="more than once"):
            load(mutate(path, tmp / "shared.txt", share))

    @pytest.mark.parametrize("feature", ["2", "7", "-1"])
    def test_feature_outside_range(self, saved, feature):
        path, tmp = saved
        lines = []

        def corrupt(text):
            lines.append(set_token(text, "node 0 ", 2, feature))

        with pytest.raises(CorruptModel, match="feature") as info:
            load(mutate(path, tmp / "feature.txt", corrupt))
        assert info.value.line == lines[0]

    @pytest.mark.parametrize("threshold", ["-1", "16", str(2**70)])
    def test_threshold_outside_the_feature_bins(self, saved, threshold):
        path, tmp = saved
        with pytest.raises(CorruptModel, match="threshold"):
            load(
                mutate(
                    path,
                    tmp / "threshold.txt",
                    lambda lines: set_token(lines, "node 0 ", 3, threshold),
                )
            )


    @pytest.mark.parametrize("count", [str(2**63), str(10**30)])
    def test_leaf_count_beyond_int64(self, saved, count):
        path, tmp = saved
        lines = []

        def corrupt(text):
            lines.append(set_token(text, "leaf 0 ", 4, count))

        with pytest.raises(CorruptModel, match="count") as info:
            load(mutate(path, tmp / "count.txt", corrupt))
        assert info.value.line == lines[0]


class TestNonFiniteReals:
    @pytest.mark.parametrize(
        "prefix, position",
        [
            ("y0 = ", 2),
            ("alpha = ", 2),
            ("rho = ", 2),
            ("learning_rate = ", 2),
            ("lambda = ", 2),
            ("min_split_gain = ", 2),
            ("node 0 ", 6),
            ("leaf 0 ", 2),
            ("leaf 0 ", 3),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejected(self, saved, prefix, position, value):
        path, tmp = saved
        lines = []

        def corrupt(text):
            lines.append(set_token(text, prefix, position, value))

        with pytest.raises(CorruptModel, match="non-finite") as info:
            load(mutate(path, tmp / "real.txt", corrupt))
        assert info.value.line == lines[0]

    def test_non_finite_edge(self, saved):
        path, tmp = saved

        def corrupt(lines):
            for i, line in enumerate(lines):
                if line.startswith("edges 0: "):
                    lines[i] = line.rsplit(",", 1)[0] + ",inf"
                    return
            raise AssertionError("edges line not found")

        with pytest.raises(CorruptModel, match="non-finite"):
            load(mutate(path, tmp / "edge.txt", corrupt))

    @pytest.mark.parametrize("rho", ["5.0", "-1.5"])
    def test_rho_outside_unit_interval(self, saved, rho):
        path, tmp = saved
        def widen(lines):
            set_token(lines, "rho = ", 2, rho)

        with pytest.raises(CorruptModel, match="rho"):
            load(mutate(path, tmp / "rho.txt", widen))


_TOKEN = re.compile(r"[^\s,:]+")
_INTEGER = re.compile(r"-?\d+")


def numeric_tokens(lines):
    """(line index, start, end, is_integer) for every numeric token."""
    found = []
    for i, line in enumerate(lines):
        for match in _TOKEN.finditer(line):
            token = match.group()
            if _INTEGER.fullmatch(token):
                found.append((i, match.start(), match.end(), True))
                continue
            try:
                float(token)
            except ValueError:
                continue
            found.append((i, match.start(), match.end(), False))
    return found


@st.composite
def mutated_lines(draw, lines):
    lines = list(lines)
    kind = draw(st.sampled_from(
        ["delete", "duplicate", "swap", "integer", "real", "blank", "whitespace"]
    ))
    index = st.integers(0, len(lines) - 1)
    if kind == "delete":
        del lines[draw(index)]
    elif kind == "blank":
        lines.insert(draw(st.integers(0, len(lines))), "")
    elif kind == "whitespace":
        lines[draw(index)] = draw(st.sampled_from([" ", "\t", "  \t "]))
    elif kind == "duplicate":
        i = draw(index)
        lines.insert(i, lines[i])
    elif kind == "swap":
        i, j = draw(index), draw(index)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = [t for t in numeric_tokens(lines) if t[3] == (kind == "integer")]
        i, start, end, _ = draw(st.sampled_from(tokens))
        if kind == "integer":
            value = int(lines[i][start:end])
            choices = [value + 1, value - 1, -value, 2**31, 2**63, 10**30]
            new = str(draw(st.sampled_from(choices)))
        else:
            new = draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[i] = lines[i][:start] + new + lines[i][end:]
    return lines


class TestFuzz:
    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        data = make_regression(70, 60, 2)
        config = BoostConfig(
            n_estimators=3,
            learning_rate=0.3,
            tree=TreeConfig(max_leaves=4, max_bins=8),
            seed=1,
        )
        path = tmp_path_factory.mktemp("fuzz") / "model.txt"
        save(train(data, mse_gradhess, config), path)
        rng = np.random.default_rng(71)
        x = rng.uniform(-3.0, 3.0, size=(20, 2))
        rows = RawDataset(x, np.zeros(20), ["x0", "x1"])
        return path, path.read_text(encoding="utf-8").splitlines(), rows

    @given(data=st.data())
    def test_mutated_model_loads_finite_or_is_rejected(self, small, data):
        path, lines, rows = small
        mutated = data.draw(mutated_lines(lines))
        out = path.with_name("mutated.txt")
        out.write_text("\n".join(mutated) + "\n", encoding="utf-8")
        try:
            model = load(out)
        except (CorruptModel, VersionMismatch):
            return
        moments = predict_moments(model, rows)
        assert np.all(np.isfinite(moments.mu))
        assert np.all(np.isfinite(moments.var))
        resaved = out.with_name("resaved.txt")
        save(model, resaved)
        assert resaved.read_bytes() == out.read_bytes()


class TestIo:
    def test_save_to_missing_directory(self, fitted, tmp_path):
        _, model = fitted
        with pytest.raises(IoError):
            save(model, tmp_path / "nosuchdir" / "model.txt")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load(tmp_path / "absent.txt")

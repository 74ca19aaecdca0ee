"""Behaviour of the public value classes: construction, defaults,
immutability, equality, hashing, repr and pickling."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from pgbm import (
    BinEdges,
    BinnedDataset,
    BoostConfig,
    DistSpec,
    Ensemble,
    GradHess,
    HierarchyLevel,
    HierarchySpec,
    MetricReport,
    PredictiveMoments,
    RawDataset,
    SampleMatrix,
    Tree,
    TreeConfig,
)

NODES = [(0, 3, -1, -2, 0.5)]
LEAVES = [(0.25, 0.01, 5), (-0.25, 0.02, 7)]


def tree() -> Tree:
    return Tree(NODES, LEAVES)


def edges() -> BinEdges:
    return BinEdges([np.array([0.5, 1.5])])


def vector(*values: float) -> np.ndarray:
    return np.array(values, dtype=np.float64)


# Per class: the field names in order, a builder of the arguments that
# have no default, the defaults of the others, and one changed field.
CASES = {
    "TreeConfig": (
        TreeConfig,
        ("max_leaves", "max_bins", "lam", "min_split_gain", "min_data_in_leaf"),
        lambda: (),
        {"max_leaves": 16, "max_bins": 64, "lam": 1.0, "min_split_gain": 0.0,
         "min_data_in_leaf": 1},
        {"lam": 2.0},
    ),
    "BoostConfig": (
        BoostConfig,
        ("n_estimators", "learning_rate", "bagging_fraction", "feature_fraction", "tree",
         "rho", "early_stopping_rounds", "seed"),
        lambda: (),
        {"n_estimators": 100, "learning_rate": 0.1, "bagging_fraction": 1.0,
         "feature_fraction": 1.0, "tree": TreeConfig(), "rho": "auto",
         "early_stopping_rounds": None, "seed": 0},
        {"rho": 0.3},
    ),
    "PredictiveMoments": (
        PredictiveMoments,
        ("mu", "var"),
        lambda: (vector(1.0), vector(2.0)),
        {},
        {"var": vector(3.0)},
    ),
    "Ensemble": (
        Ensemble,
        ("trees", "y0", "alpha", "rho_default", "edges", "config", "n_train",
         "feature_names", "target_name"),
        lambda: ([tree()], 0.5, 0.1, 0.02, edges(), BoostConfig(), 12, ["x0"]),
        {"target_name": None},
        {"y0": 0.75},
    ),
    "RawDataset": (
        RawDataset,
        ("features", "target", "feature_names", "target_name"),
        lambda: (np.ones((2, 1)), vector(1.0, 2.0), ["x0"]),
        {"target_name": None},
        {"target_name": "y"},
    ),
    "BinEdges": (
        BinEdges,
        ("edges",),
        lambda: ([vector(0.5, 1.5)],),
        {},
        {"edges": []},
    ),
    "BinnedDataset": (
        BinnedDataset,
        ("bins", "edges", "target"),
        lambda: (np.zeros((2, 1), dtype=np.uint16), edges(), vector(1.0, 2.0)),
        {},
        {"edges": BinEdges([])},
    ),
    "DistSpec": (
        DistSpec,
        ("family", "clamp_nonneg"),
        lambda: (),
        {"family": "normal", "clamp_nonneg": False},
        {"family": "gumbel"},
    ),
    "SampleMatrix": (
        SampleMatrix,
        ("samples", "seed", "fallback_rows"),
        lambda: (np.ones((3, 2)), 7),
        {"fallback_rows": 0},
        {"seed": 8},
    ),
    "GradHess": (
        GradHess,
        ("g", "h", "objective"),
        lambda: (vector(1.0, -1.0), vector(2.0, 2.0)),
        {"objective": None},
        {"objective": 4.0},
    ),
    "HierarchyLevel": (
        HierarchyLevel,
        ("weight", "groups", "identity"),
        lambda: (1.0,),
        {"groups": None, "identity": False},
        {"identity": True},
    ),
    "HierarchySpec": (
        HierarchySpec,
        ("levels",),
        lambda: ([HierarchyLevel(1.0, {"a": np.array([0]), "b": np.array([1])})],),
        {},
        {"levels": [HierarchyLevel(1.0, identity=True)]},
    ),
    "MetricReport": (
        MetricReport,
        ("name", "value", "n", "breakdown", "breakdown_n"),
        lambda: ("crps", 0.25, 4),
        {"breakdown": None, "breakdown_n": None},
        {"n": 5},
    ),
    "Tree": (
        Tree,
        ("nodes", "leaves"),
        lambda: (NODES, LEAVES),
        {},
        {"leaves": [(0.5, 0.01, 5), (-0.25, 0.02, 7)]},
    ),
}
# Classes whose instances hash by field values when every field does.
HASHABLE = ("TreeConfig", "BoostConfig", "DistSpec", "HierarchyLevel", "MetricReport")

cases = pytest.mark.parametrize("name", sorted(CASES))


def build(name: str, **changes):
    cls, fields, required, _, _ = CASES[name]
    values = dict(zip(fields, required()), **changes)
    return cls(**values)


@cases
def test_fields_are_taken_by_position_and_by_keyword_with_todays_defaults(name):
    cls, fields, required, defaults, _ = CASES[name]
    args = required()
    full = args + tuple(defaults[f] for f in fields[len(args):])
    by_position = cls(*full)
    by_keyword = cls(**dict(zip(fields, full)))
    by_default = cls(*args)
    assert repr(by_position) == repr(by_keyword) == repr(by_default)
    for field, default in defaults.items():
        assert getattr(by_default, field) == default
    with pytest.raises(TypeError):
        cls(*full, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)


def test_each_boost_config_gets_a_tree_config_of_its_own():
    first, second = BoostConfig(), BoostConfig()
    assert first.tree == second.tree == TreeConfig()
    assert first.tree is not second.tree


@cases
def test_assigning_or_deleting_a_field_raises_except_on_an_ensemble(name):
    value = build(name)
    field = CASES[name][1][0]
    before = getattr(value, field)
    if name == "Ensemble":
        value.y0 = 1.5
        assert value.y0 == 1.5
        return
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@cases
def test_equality_compares_field_values_within_one_class(name):
    cls, fields, required, _, changed = CASES[name]
    args = required()
    first, second = cls(*args), cls(*args)
    # The same argument objects, so that arrays compare by identity.
    other = cls(**dict(zip(fields, args), **changed))
    assert first == first
    if name == "Tree":
        # Trees compare and hash by identity; compare their tables instead.
        assert first != second
        assert len({first, second, first}) == 2
        return
    assert first == second
    assert first != other
    assert first != (DistSpec() if cls is TreeConfig else TreeConfig())
    if name in HASHABLE:
        assert hash(first) == hash(second)
        assert len({first, second, other}) == 2


def test_a_resolved_hierarchy_still_equals_an_unresolved_one():
    spec = build("HierarchySpec")
    fresh = HierarchySpec(spec.levels)
    spec.group_ids(0, 2)
    assert spec == fresh
    assert repr(spec) == repr(fresh)


def test_an_ensemble_is_unhashable():
    with pytest.raises(TypeError):
        hash(build("Ensemble"))


@cases
def test_repr_names_the_class_and_its_fields(name):
    value = build(name)
    text = repr(value)
    assert text.startswith(f"{name}(")
    assert text.endswith(")")
    fields = CASES[name][1]
    assert [text.find(f"{field}=") > 0 for field in fields] == [True] * len(fields)
    assert "_resolved" not in text


@cases
def test_pickle_round_trip(name):
    value = build(name)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert repr(copy) == repr(value)
    for field in CASES[name][1]:
        got, want = getattr(copy, field), getattr(value, field)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_a_pickled_hierarchy_resolves_its_groups():
    spec = build("HierarchySpec")
    spec.group_ids(0, 2)
    copy = pickle.loads(pickle.dumps(spec))
    ids, keys = copy.group_ids(0, 2)
    assert ids.tolist() == [0, 1] and keys == ["a", "b"]


def test_a_pickled_dataset_keeps_its_arrays_contiguous_float64():
    data = RawDataset(np.asfortranarray(np.ones((3, 2), dtype=np.float32)), [1, 2, 3], ["a", "b"])
    copy = pickle.loads(pickle.dumps(data))
    assert copy.features.flags.c_contiguous and copy.features.dtype == np.float64
    assert copy.target.dtype == np.float64
    assert (copy.n, copy.f) == (3, 2)

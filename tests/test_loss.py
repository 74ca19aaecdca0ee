"""Squared-error and hierarchical weighted-MSE objectives."""

from __future__ import annotations

import numpy as np
import pytest

from pgbm import (
    GradHess,
    HierarchyLevel,
    HierarchySpec,
    hier_wmse_gradhess,
    hier_wmse_loss,
    load_hierarchy,
    mse_gradhess,
    numeric_gradhess,
    parse_hierarchy,
)
from pgbm.errors import (
    IndexOutOfRange,
    IoError,
    LengthMismatch,
    NonFiniteLoss,
    ParseError,
)


def two_level_spec():
    """Identity level (weight 0.25) plus a total level (weight 0.5)."""
    return HierarchySpec(
        [
            HierarchyLevel(weight=0.25, identity=True),
            HierarchyLevel(weight=0.5, groups={"all": np.array([0, 1])}),
        ]
    )


class TestMse:
    def test_values(self):
        gh = mse_gradhess(np.array([1.0, 2.0, 0.0]), np.array([3.0, 2.0, -1.0]))
        np.testing.assert_array_equal(gh.g, [4.0, 0.0, -2.0])
        np.testing.assert_array_equal(gh.h, [2.0, 2.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse_gradhess(np.zeros(2), np.zeros(3))

    def test_objective_is_the_squared_error(self):
        gh = mse_gradhess(np.array([1.0, 2.0, 0.0]), np.array([3.0, 2.0, -1.0]))
        assert gh.objective == 5.0

    def test_gradhess_container_validates(self):
        with pytest.raises(LengthMismatch):
            GradHess(np.zeros(2), np.zeros(3))


class TestHierWmse:
    def test_identity_reduces_to_sse(self):
        spec = HierarchySpec([HierarchyLevel(weight=1.0, identity=True)])
        y = np.array([1.0, 2.0])
        yhat = np.array([0.0, 0.0])
        assert hier_wmse_loss(y, yhat, spec) == pytest.approx(5.0)
        gh = hier_wmse_gradhess(y, yhat, spec)
        ref = mse_gradhess(y, yhat)
        np.testing.assert_allclose(gh.g, ref.g)
        np.testing.assert_allclose(gh.h, ref.h)

    def test_weighted_two_level_loss(self):
        y = np.array([1.0, 2.0])
        yhat = np.array([0.0, 0.0])
        # 0.25 * (1 + 4) + 0.5 * (1 + 2)^2
        assert hier_wmse_loss(y, yhat, two_level_spec()) == pytest.approx(5.75)

    def test_weighted_two_level_gradhess(self):
        y = np.array([1.0, 2.0])
        yhat = np.array([0.0, 0.0])
        gh = hier_wmse_gradhess(y, yhat, two_level_spec())
        np.testing.assert_allclose(gh.g, [-3.5, -4.0])
        np.testing.assert_allclose(gh.h, [1.5, 1.5])

    def test_gradhess_objective_is_the_loss(self):
        y = np.array([1.0, 2.0])
        gh = hier_wmse_gradhess(y, np.array([0.0, 0.0]), two_level_spec())
        assert gh.objective == pytest.approx(5.75)

    def test_loss_matches_a_per_level_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        spec = HierarchySpec(nested_levels(12))
        for _ in range(5):
            y = rng.normal(size=12) * 10.0 ** rng.integers(-3, 4)
            yhat = rng.normal(size=12)
            expected = 0.0
            for a, level in enumerate(spec.levels):
                ids, keys = spec.group_ids(a, 12)
                sums = np.bincount(ids, weights=y - yhat, minlength=len(keys))
                expected += level.weight * float(np.sum(sums**2))
            assert hier_wmse_loss(y, yhat, spec) == expected

    def test_zero_residual_zero_loss(self):
        y = np.array([1.0, 2.0])
        assert hier_wmse_loss(y, y.copy(), two_level_spec()) == 0.0

    def test_directional_derivative_property(self):
        rng = np.random.default_rng(4)
        n = 12
        spec = HierarchySpec(
            [
                HierarchyLevel(weight=0.3, identity=True),
                HierarchyLevel(
                    weight=0.2,
                    groups={
                        "a": np.arange(0, 4),
                        "b": np.arange(4, 9),
                        "c": np.arange(9, 12),
                    },
                ),
                HierarchyLevel(weight=0.5, groups={"all": np.arange(n)}),
            ]
        )
        y = rng.normal(size=n)
        yhat = rng.normal(size=n)
        gh = hier_wmse_gradhess(y, yhat, spec)
        for _ in range(5):
            direction = rng.normal(size=n)
            eps = 1e-6
            up = hier_wmse_loss(y, yhat + eps * direction, spec)
            down = hier_wmse_loss(y, yhat - eps * direction, spec)
            numeric = (up - down) / (2 * eps)
            analytic = float(np.dot(gh.g, direction))
            np.testing.assert_allclose(numeric, analytic, rtol=1e-6, atol=1e-7)

    def test_grouped_level_matches_manual_sum(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=6)
        yhat = rng.normal(size=6)
        groups = {"left": np.array([0, 1, 2]), "right": np.array([3, 4, 5])}
        spec = HierarchySpec([HierarchyLevel(weight=2.0, groups=groups)])
        expected = 2.0 * (
            (y[:3].sum() - yhat[:3].sum()) ** 2 + (y[3:].sum() - yhat[3:].sum()) ** 2
        )
        assert hier_wmse_loss(y, yhat, spec) == pytest.approx(expected)


class TestHierarchySpecValidation:
    def test_requires_levels(self):
        with pytest.raises(ValueError):
            HierarchySpec([])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            HierarchySpec([HierarchyLevel(weight=-0.1, identity=True)])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            HierarchySpec([HierarchyLevel(weight=weight, identity=True)])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            HierarchySpec(
                [
                    HierarchyLevel(weight=0.0, identity=True),
                    HierarchyLevel(weight=0.0, groups={"all": np.array([0])}),
                ]
            )

    def test_overlapping_groups_rejected(self):
        spec = HierarchySpec(
            [
                HierarchyLevel(
                    weight=1.0,
                    groups={"a": np.array([0, 1]), "b": np.array([1, 2])},
                )
            ]
        )
        with pytest.raises(ValueError, match="overlaps"):
            spec.group_ids(0, 3)

    def test_gap_rejected(self):
        spec = HierarchySpec(
            [HierarchyLevel(weight=1.0, groups={"a": np.array([0, 2])})]
        )
        with pytest.raises(ValueError, match="belongs to no group"):
            spec.group_ids(0, 3)

    def test_out_of_range_member(self):
        spec = HierarchySpec(
            [HierarchyLevel(weight=1.0, groups={"a": np.array([0, 5])})]
        )
        with pytest.raises(IndexOutOfRange):
            spec.group_ids(0, 3)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"groups": None, "identity": False},
            {"groups": {"a": np.array([0, 1]), "b": np.array([2])}, "identity": True},
            {"groups": {}, "identity": True},
        ],
        ids=["neither", "neither_given", "both", "both_with_no_groups"],
    )
    def test_a_level_is_exactly_one_of_identity_or_groups(self, fields):
        """Groups beside identity=True used to be ignored, and a level with
        neither was silently the identity."""
        with pytest.raises(ValueError, match="exactly one of identity=True or groups"):
            HierarchyLevel(1.0, **fields)

    def test_each_kind_leaves_the_other_field_at_its_default(self):
        assert HierarchyLevel(1.0, identity=True).groups is None
        assert HierarchyLevel(1.0, {"a": np.array([0])}).identity is False

    def test_a_level_with_identity_and_group_lines_is_a_parse_error(self):
        text = "levels=1\nlevel 0 weight=1 identity\ngroup all: 0,1\n"
        with pytest.raises(ParseError, match="outside a non-identity level") as info:
            parse_hierarchy(text)
        assert info.value.row == 3

    def test_identity_group_ids(self):
        spec = HierarchySpec([HierarchyLevel(weight=1.0, identity=True)])
        ids, keys = spec.group_ids(0, 4)
        np.testing.assert_array_equal(ids, [0, 1, 2, 3])
        assert keys == ["0", "1", "2", "3"]


def nested_levels(n=12):
    """Identity, groups of three rows in scrambled order, and a total."""
    rng = np.random.default_rng(11)
    order = rng.permutation(n)
    return [
        HierarchyLevel(weight=1.0, identity=True),
        HierarchyLevel(
            weight=0.5,
            groups={f"g{k}": order[k::4] for k in range(4)},
        ),
        HierarchyLevel(weight=0.1, groups={"all": np.arange(n)}),
    ]


class TestGroupIdCache:
    def test_repeated_call_returns_cached_read_only_ids(self):
        spec = HierarchySpec(nested_levels())
        for level in range(3):
            ids, keys = spec.group_ids(level, 12)
            again_ids, again_keys = spec.group_ids(level, 12)
            assert again_ids is ids and again_keys is keys
            assert not ids.flags.writeable
            with pytest.raises(ValueError):
                ids[0] = 1

    def test_each_row_count_is_resolved_separately(self):
        spec = HierarchySpec([HierarchyLevel(weight=1.0, identity=True)])
        np.testing.assert_array_equal(spec.group_ids(0, 3)[0], [0, 1, 2])
        np.testing.assert_array_equal(spec.group_ids(0, 5)[0], [0, 1, 2, 3, 4])

    @pytest.mark.parametrize(
        "groups, n, error, match",
        [
            ({"a": np.array([0, 5])}, 3, IndexOutOfRange, "outside"),
            ({"a": np.array([0, 1]), "b": np.array([1, 2])}, 3, ValueError, "overlaps"),
            ({"a": np.array([0, 2])}, 3, ValueError, "belongs to no group"),
        ],
    )
    def test_bad_row_count_raises_on_every_call(self, groups, n, error, match):
        spec = HierarchySpec([HierarchyLevel(weight=1.0, groups=groups)])
        for _ in range(3):
            with pytest.raises(error, match=match):
                spec.group_ids(0, n)

    def test_failure_does_not_poison_a_good_row_count(self):
        spec = HierarchySpec(
            [HierarchyLevel(weight=1.0, groups={"a": np.array([0, 1, 2])})]
        )
        with pytest.raises(IndexOutOfRange):
            spec.group_ids(0, 2)
        np.testing.assert_array_equal(spec.group_ids(0, 3)[0], [0, 0, 0])
        with pytest.raises(IndexOutOfRange):
            spec.group_ids(0, 2)

    def test_cache_is_invisible_to_equality_and_repr(self):
        levels = nested_levels()
        used = HierarchySpec(levels)
        used.group_ids(1, 12)
        fresh = HierarchySpec(levels)
        assert used == fresh
        assert repr(used) == repr(fresh)

    def test_gradients_match_an_uncached_spec_over_ten_steps(self):
        levels = nested_levels()
        rng = np.random.default_rng(12)
        y = rng.normal(size=12)
        yhat = np.zeros(12)
        spec = HierarchySpec(levels)
        for _ in range(10):
            cached = hier_wmse_gradhess(y, yhat, spec)
            fresh = hier_wmse_gradhess(y, yhat, HierarchySpec(levels))
            np.testing.assert_array_equal(cached.g, fresh.g)
            np.testing.assert_array_equal(cached.h, fresh.h)
            assert hier_wmse_loss(y, yhat, spec) == hier_wmse_loss(
                y, yhat, HierarchySpec(levels)
            )
            yhat = yhat - 0.1 * cached.g / cached.h


class TestNumericGradHess:
    def test_matches_mse_analytic(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=30)
        yhat = rng.normal(size=30) * 3

        def sq(yt, yp):
            return (yp - yt) ** 2

        gh = numeric_gradhess(sq, y, yhat)
        ref = mse_gradhess(y, yhat)
        np.testing.assert_allclose(gh.g, ref.g, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(gh.h, ref.h, rtol=1e-3, atol=1e-3)

    def test_matches_weighted_identity_hierarchy(self):
        # With only identity levels the objective is separable, so the
        # per-sample probe applies: loss_i = w * (yp - yt)^2.
        rng = np.random.default_rng(7)
        y = rng.normal(size=10)
        yhat = rng.normal(size=10)
        spec = HierarchySpec([HierarchyLevel(weight=0.7, identity=True)])
        gh_true = hier_wmse_gradhess(y, yhat, spec)

        def pointwise(yt, yp):
            return 0.7 * (yp - yt) ** 2

        gh = numeric_gradhess(pointwise, y, yhat)
        np.testing.assert_allclose(gh.g, gh_true.g, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(gh.h, gh_true.h, rtol=1e-3, atol=1e-3)

    def test_absolute_loss(self):
        y = np.array([0.0])
        yhat = np.array([5.0])

        def absolute(yt, yp):
            return np.abs(yp - yt)

        gh = numeric_gradhess(absolute, y, yhat)
        np.testing.assert_allclose(gh.g, [1.0], rtol=1e-6)
        np.testing.assert_allclose(gh.h, [0.0], atol=1e-4)

    def test_objective_sums_the_losses_at_yhat(self):
        def sq(yt, yp):
            return (yp - yt) ** 2

        gh = numeric_gradhess(sq, np.array([1.0, 2.0]), np.array([3.0, 2.5]))
        assert gh.objective == 4.25

    def test_constant_loss(self):
        def flat(yt, yp):
            return 0.0

        gh = numeric_gradhess(flat, np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(gh.g, np.zeros(3))
        np.testing.assert_array_equal(gh.h, np.zeros(3))

    def test_non_finite_loss(self):
        def bad(yt, yp):
            return np.inf

        with pytest.raises(NonFiniteLoss):
            numeric_gradhess(bad, np.zeros(2), np.ones(2))


HIERARCHY_TEXT = """\
# two aggregation levels over four series
levels=2
level 0 weight=0.3 identity
level 1 weight=0.7
group all: 0,1,2,3
"""


class TestParseHierarchy:
    def test_round_trip(self):
        spec = parse_hierarchy(HIERARCHY_TEXT)
        assert len(spec.levels) == 2
        assert spec.levels[0].identity
        assert spec.levels[0].weight == pytest.approx(0.3)
        assert spec.levels[1].weight == pytest.approx(0.7)
        ids, keys = spec.group_ids(1, 4)
        np.testing.assert_array_equal(ids, [0, 0, 0, 0])
        assert keys == ["all"]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text(HIERARCHY_TEXT, encoding="utf-8")
        spec = load_hierarchy(path)
        assert len(spec.levels) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            load_hierarchy(tmp_path / "absent.txt")

    def test_missing_levels_header(self):
        with pytest.raises(ParseError):
            parse_hierarchy("level 0 weight=1 identity\n")

    def test_level_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_hierarchy("levels=2\nlevel 0 weight=1 identity\n")

    def test_group_before_level(self):
        with pytest.raises(ParseError):
            parse_hierarchy("levels=1\ngroup all: 0,1\n")

    def test_bad_member(self):
        text = "levels=1\nlevel 0 weight=1\ngroup all: 0,x\n"
        with pytest.raises(ParseError) as info:
            parse_hierarchy(text)
        assert info.value.row == 3

    def test_member_beyond_int64(self):
        text = "levels=1\nlevel 0 weight=1\ngroup all: 0,99999999999999999999\n"
        with pytest.raises(ParseError, match="bad member index") as info:
            parse_hierarchy(text)
        assert info.value.row == 3

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_level_weight(self, weight):
        text = f"levels=1\nlevel 0 weight={weight} identity\n"
        with pytest.raises(ParseError, match="finite and nonnegative at row 2, column 0"):
            parse_hierarchy(text)

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_hierarchy("")

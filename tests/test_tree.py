"""Histogram split search, stochastic leaf statistics, best-first growth."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pgbm.tree
from pgbm import (
    BinEdges,
    BinnedDataset,
    GradHess,
    Tree,
    TreeConfig,
    apply_bins,
    compute_bin_edges,
    find_best_split,
    leaf_stats,
)
from pgbm.errors import DegenerateHessian, EmptyMask, NonFiniteEstimate
from pgbm.tree import (
    EPS_HESSIAN,
    LEAF_DTYPE,
    NODE_DTYPE,
    NodeHistogram,
    build_histogram,
    grow_tree,
    route_many,
    subtract_histogram,
)

from conftest import make_regression


def binned_single_feature(bins_column, target=None):
    bins = np.asarray(bins_column, dtype=np.uint16)[:, None]
    if target is None:
        target = np.zeros(len(bins))
    edges = BinEdges([np.arange(0.5, bins.max() + 0.5)])
    return BinnedDataset(bins=bins, edges=edges, target=target)


def four_sample_case():
    """One feature, bins [0,0,1,1], g=[1,1,-1,-1], unit hessians."""
    data = binned_single_feature([0, 0, 1, 1])
    gh = GradHess(np.array([1.0, 1.0, -1.0, -1.0]), np.ones(4))
    return data, gh


def walk(tree, binned_row):
    """Scalar routing oracle: follow one row from the root to its leaf id."""
    ref = 0 if len(tree.nodes) else ~0
    while ref >= 0:
        feature, threshold, left, right, _ = tree.nodes[ref].tolist()
        ref = left if binned_row[feature] <= threshold else right
    return ~ref


def histogram(bins, g, h, indices, features, n_bins):
    """``build_histogram`` over the key table ``grow_tree`` makes for
    ``features``."""
    keys = bins[:, features] + np.arange(len(features)) * n_bins
    return build_histogram(keys, g, h, indices, features, n_bins)


def search_one(hist, cfg, totals):
    """The stacked search on a stack of one node."""
    (found,) = find_best_split(hist, cfg, [totals])
    return found


def python_float_leaf_moments(g, h, lam):
    """``leaf_stats``' mu and var, computed in Python floats: their ``**``
    raises OverflowError where numpy's gives inf."""
    n = g.size
    g_bar = float(g.sum() / n)
    h_bar = float(h.sum() / n)
    denom = h_bar + lam / n
    if denom <= EPS_HESSIAN:
        raise DegenerateHessian("not positive")
    var_g = var_h = cov_gh = 0.0
    if n > 1:
        dg = g - g_bar
        dh = h - h_bar
        with np.errstate(all="ignore"):
            var_g = float((dg * dg).sum() / (n - 1))
            var_h = float((dh * dh).sum() / (n - 1))
            cov_gh = float((dg * dh).sum() / (n - 1))
    mu = g_bar / denom - cov_gh / denom**2 + g_bar * var_h / denom**3
    var = var_g / denom**2 + g_bar**2 * var_h / denom**4 - 2.0 * g_bar * cov_gh / denom**3
    return mu, max(0.0, var)


def assert_same_tree(a, b):
    for table in ("nodes", "leaves"):
        x, y = getattr(a, table), getattr(b, table)
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


class TestFindBestSplit:
    def make_hist(self, data, gh, cfg):
        indices = np.arange(data.n)
        hist = histogram(
            data.bins, gh.g, gh.h, indices, np.arange(data.f), data.max_n_bins
        )
        totals = (float(gh.g.sum()), float(gh.h.sum()), data.n)
        return hist, totals

    def test_four_sample_example(self):
        data, gh = four_sample_case()
        cfg = TreeConfig(max_bins=2, lam=0.0)
        hist, totals = self.make_hist(data, gh, cfg)
        found = search_one(hist, cfg, totals)
        assert found is not None
        feature, threshold, gain, left = found
        assert (feature, threshold) == (0, 0)
        assert gain == pytest.approx(2.0)
        assert left == (2.0, 2.0, 2)

    def test_no_signal_returns_none(self):
        data = binned_single_feature([0, 0, 1, 1])
        gh = GradHess(np.full(4, 0.5), np.ones(4))
        cfg = TreeConfig(max_bins=2, lam=0.0)
        hist, totals = self.make_hist(data, gh, cfg)
        assert search_one(hist, cfg, totals) is None

    def test_min_data_filters_candidate(self):
        data = binned_single_feature([0, 1, 1, 1])
        gh = GradHess(np.array([5.0, -1.0, -1.0, -1.0]), np.ones(4))
        cfg = TreeConfig(max_bins=2, lam=0.0, min_data_in_leaf=2)
        hist, totals = self.make_hist(data, gh, cfg)
        assert search_one(hist, cfg, totals) is None

    def test_feature_tie_breaks_low(self):
        bins = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=np.uint16)
        data = BinnedDataset(
            bins=bins,
            edges=BinEdges([np.array([0.5]), np.array([0.5])]),
            target=np.zeros(4),
        )
        gh = GradHess(np.array([1.0, 1.0, -1.0, -1.0]), np.ones(4))
        cfg = TreeConfig(max_bins=2, lam=0.0)
        hist = histogram(
            data.bins, gh.g, gh.h, np.arange(4), np.arange(2), data.max_n_bins
        )
        found = search_one(hist, cfg, (0.0, 4.0, 4))
        assert found is not None
        assert found[0] == 0

    def test_bin_tie_breaks_low(self):
        data = binned_single_feature([0, 1, 2, 3])
        gh = GradHess(np.array([1.0, -1.0, 1.0, -1.0]), np.ones(4))
        cfg = TreeConfig(max_bins=4, lam=0.0)
        hist, totals = self.make_hist(data, gh, cfg)
        found = search_one(hist, cfg, totals)
        assert found is not None
        feature, threshold, gain, left = found
        assert (feature, threshold) == (0, 0)
        assert gain == pytest.approx(0.5 * (1.0 + 1.0 / 3.0))
        assert left == (1.0, 1.0, 1)

    def test_min_split_gain_strict(self):
        data, gh = four_sample_case()
        cfg = TreeConfig(max_bins=2, lam=0.0, min_split_gain=2.0)
        hist, totals = self.make_hist(data, gh, cfg)
        assert search_one(hist, cfg, totals) is None

    @pytest.mark.parametrize(
        "g, in_search",
        [
            # The parent objective overflows: the node could never split,
            # so the search refuses it.
            ([1e200, 1e200, 3e200, 2e200], True),
            # Only a child objective overflows: the search returns the
            # +inf gain, and the grower refuses the tree it lands in.
            ([1e200, -1e200, 0.0, 0.0], False),
        ],
        ids=["g0", "g1"],
    )
    def test_overflowing_gain_raises(self, g, in_search):
        data = binned_single_feature([0, 1, 2, 3])
        gh = GradHess(np.array(g), np.ones(4))
        cfg = TreeConfig(max_bins=4, lam=0.0)
        hist, totals = self.make_hist(data, gh, cfg)
        if in_search:
            with pytest.raises(NonFiniteEstimate, match="split search overflows"):
                search_one(hist, cfg, totals)
        else:
            assert search_one(hist, cfg, totals)[2] == np.inf
            with pytest.raises(NonFiniteEstimate, match="split gain or leaf moment overflows"):
                grow_tree(data, gh, np.arange(4), TreeConfig(max_leaves=2, max_bins=4, lam=0.0))

    def test_single_bin_has_no_candidate(self):
        data = binned_single_feature([0, 0, 0])
        gh = GradHess(np.array([1.0, -1.0, 2.0]), np.ones(3))
        hist, totals = self.make_hist(data, gh, TreeConfig())
        assert hist.g.shape == (1, 1, 1)
        assert search_one(hist, TreeConfig(), totals) is None

    def test_a_node_that_cannot_split_leaves_its_sibling_searched(self):
        # The first node's hessian sum plus lam is not positive, so only
        # the second node of the stack gets a split.
        data, gh = four_sample_case()
        cfg = TreeConfig(max_bins=2, lam=0.0)
        hist, totals = self.make_hist(data, gh, cfg)
        stack = NodeHistogram(hist.features, np.concatenate([hist.stats] * 2, axis=1))
        dead = (totals[0], 0.0, totals[2])
        found = find_best_split(stack, cfg, [dead, totals])
        assert found == [None, search_one(hist, cfg, totals)]


class TestTreeConfig:
    def test_max_bins_range(self):
        assert TreeConfig(max_bins=65536).max_bins == 65536
        for bad in (1, 65537, 70000):
            with pytest.raises(ValueError, match="max_bins"):
                TreeConfig(max_bins=bad)

    @pytest.mark.parametrize("field", ["lam", "min_split_gain"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_reals_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ValueError, match=field):
            TreeConfig(**{field: value})


class TestSubtractHistogram:
    def test_counts_and_sums_subtract(self):
        bins = np.array([[0], [0], [1], [2]], dtype=np.uint16)
        g = np.array([1.0, 2.0, 4.0, 8.0])
        h = np.array([0.5, 0.5, 1.0, 1.5])
        parent = histogram(bins, g, h, np.arange(4), np.array([0]), 3)
        left = histogram(bins, g, h, np.array([0, 1]), np.array([0]), 3)
        pair = subtract_histogram(parent, left)
        np.testing.assert_array_equal(pair.stats[:, 0], left.stats[:, 0])
        np.testing.assert_array_equal(pair.count[1], [[0, 1, 1]])
        np.testing.assert_allclose(pair.g[1], [[0.0, 4.0, 8.0]])
        np.testing.assert_allclose(pair.h[1], [[0.0, 1.0, 1.5]])

    def test_empty_bins_are_exactly_zero(self):
        # Summation order makes 0.1+0.2+0.3 and 0.3+0.2+0.1 differ in
        # the last ulp, so an emptied bin would keep residue without the
        # count-based cleanup.
        features = np.array([0])
        bins = np.array([[0], [0], [0]], dtype=np.uint16)
        rows = np.arange(3)
        parent = histogram(
            bins, np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.2, 0.3]),
            rows, features, 2,
        )
        left = histogram(
            bins, np.array([0.3, 0.2, 0.1]), np.array([0.3, 0.2, 0.1]),
            rows, features, 2,
        )
        assert parent.g[0, 0, 0] != left.g[0, 0, 0]
        right = subtract_histogram(parent, left).stats[:, 1]
        assert right[2, 0, 0] == 0
        assert right[0, 0, 0] == 0.0
        assert right[1, 0, 0] == 0.0


class TestLeafStats:
    def test_constant_hessian_example(self):
        stats = leaf_stats(np.array([2.0, 4.0]), np.array([1.0, 1.0]), 0.0)
        assert stats.mu == pytest.approx(3.0)
        assert stats.var == pytest.approx(2.0)
        assert stats.n == 2

    def test_single_sample(self):
        stats = leaf_stats(np.array([5.0]), np.array([2.0]), 0.0)
        assert stats.mu == pytest.approx(2.5)
        assert stats.var == 0.0

    def test_correction_terms_match_direct_formula(self):
        g = np.array([1.0, 2.0, 3.0])
        h = np.array([1.0, 2.0, 4.0])
        lam = 0.6
        gbar = g.mean()
        denom = h.mean() + lam / g.size
        var_g = np.var(g, ddof=1)
        var_h = np.var(h, ddof=1)
        cov_gh = np.cov(g, h, ddof=1)[0, 1]
        mu_expected = gbar / denom - cov_gh / denom**2 + gbar * var_h / denom**3
        var_expected = (
            var_g / denom**2
            + gbar**2 * var_h / denom**4
            - 2.0 * gbar * cov_gh / denom**3
        )
        stats = leaf_stats(g, h, lam)
        assert stats.mu == pytest.approx(mu_expected, rel=1e-12)
        assert stats.var == pytest.approx(var_expected, rel=1e-12)

    def test_variance_clamped_at_zero(self):
        # Strong positive (g, h) coupling drives the raw expression negative.
        g = np.array([1.0, 2.0])
        h = np.array([1.0, 2.0])
        stats = leaf_stats(g, h, 0.0)
        assert stats.var >= 0.0

    def test_empty_slice(self):
        with pytest.raises(EmptyMask):
            leaf_stats(np.array([]), np.array([]), 1.0)

    # Extreme but finite: tiny hessian means, subnormals, and a gradient
    # variance that overflows to inf in both forms.
    EXTREME = [
        ([1e150, -3e149, 7e149], [1e70, 2e70, 5e-324], 0.0),
        ([5e-324, -5e-324, 1e-310], [1e-300, 0.0, 5e-324], 1.0),
        ([1.3e154, -1.1e154], [1.0, 1.0], 0.0),
        ([1e154], [2e-9], 1e-300),
        ([1.0, 2.0], [1.0, 2.0], 0.0),  # var below 0, clamped
        ([1e-300, 3e-300, -2e-300, 1e-310], [1e-5, 2e-5, 1e-5, 3e-5], 1e-300),
    ]

    def test_scalar_powers_round_as_python_floats(self):
        """Model bytes rest on a float64 scalar's ``**`` rounding as
        Python's float power. An array's ``**2`` is ``x*x``, which differs
        from it in about one value in a thousand, as a shortcut for
        scalars would."""
        rng = np.random.default_rng(3)
        values = (rng.uniform(0.5, 2.0, 20000) * 10.0 ** rng.integers(-70, 70, 20000)).tolist()
        assert any(v * v != v**2 for v in values)  # the draw would see a shortcut
        for k in (2, 3, 4):
            assert [np.float64(v) ** k for v in values] == [v**k for v in values]

    def test_rounds_as_python_floats(self):
        """Bit for bit the formula in Python floats, on random inputs and
        on extreme but finite ones."""
        rng = np.random.default_rng(5)
        cases = [(np.array(g), np.array(h), lam) for g, h, lam in self.EXTREME]
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            scale = 10.0 ** rng.integers(-40, 40, size=3)
            g = rng.normal(size=n) * scale[0]
            h = rng.uniform(0.0, 2.0, size=n) * scale[1]
            if rng.integers(2):  # a constant hessian, as the squared error's
                h[:] = h[0]
            cases.append((g, h, float(rng.uniform(0.0, 2.0) * scale[2])))
        for g, h, lam in cases:
            try:
                expected = python_float_leaf_moments(g, h, lam)
            except DegenerateHessian:
                continue
            with np.errstate(all="ignore"):
                stats = leaf_stats(g, h, lam)
            assert np.array([stats.mu, stats.var]).tobytes() == np.array(expected).tobytes()

    def test_a_nan_variance_is_not_clamped(self):
        # g_bar**2 overflows and var_h is 0: inf * 0 is NaN, and mu is finite.
        with np.errstate(all="ignore"):
            stats = leaf_stats(np.array([1e300, 1e300]), np.array([1e300, 1e300]), 1.0)
        assert stats.mu == 1.0 and np.isnan(stats.var)

    def test_degenerate_hessian(self):
        with pytest.raises(DegenerateHessian):
            leaf_stats(np.array([1.0]), np.array([0.0]), 0.0)


class TestGrowTree:
    @pytest.mark.parametrize(
        "g, h",
        [
            ([1e300, 1e300], [1e300, 1e300]),  # mu is 1; var is inf * 0, NaN
            ([1.3e154, -1.1e154], [1.0, 1.0]),  # var is inf
        ],
    )
    def test_a_leaf_moment_that_overflows_is_refused(self, g, h):
        gh = GradHess(np.array(g), np.array(h))
        with pytest.raises(NonFiniteEstimate, match="leaf moment overflows"):
            grow_tree(binned_single_feature([0, 0]), gh, np.arange(2), TreeConfig(max_leaves=1))

    def test_stump(self):
        data, gh = four_sample_case()
        cfg = TreeConfig(max_leaves=1, max_bins=2, lam=0.0)
        tree = grow_tree(data, gh, np.arange(4), cfg)
        assert len(tree.leaves) == 1
        assert len(tree.nodes) == 0
        whole = leaf_stats(gh.g, gh.h, cfg.lam)
        assert tree.leaves["mu"][0] == pytest.approx(whole.mu)
        np.testing.assert_array_equal(route_many(tree, data.bins), [0, 0, 0, 0])

    def test_depth_one_example(self):
        data, gh = four_sample_case()
        cfg = TreeConfig(max_leaves=2, max_bins=2, lam=0.0)
        tree = grow_tree(data, gh, np.arange(4), cfg)
        assert len(tree.nodes) == 1
        feature, threshold, left, right, gain = tree.nodes[0].tolist()
        assert (feature, threshold, left, right) == (0, 0, ~0, ~1)
        assert gain == pytest.approx(2.0)
        np.testing.assert_allclose(tree.leaves["mu"], [1.0, -1.0])
        np.testing.assert_array_equal(tree.leaves["var"], [0.0, 0.0])
        np.testing.assert_array_equal(tree.leaves["n"], [2, 2])

    def test_depth_one_with_lambda(self):
        data, gh = four_sample_case()
        cfg = TreeConfig(max_leaves=2, max_bins=2, lam=1.0)
        tree = grow_tree(data, gh, np.arange(4), cfg)
        lam_bar = 1.0 / 2
        assert tree.leaves["mu"][0] == pytest.approx(1.0 / (1.0 + lam_bar))
        assert tree.leaves["mu"][1] == pytest.approx(-1.0 / (1.0 + lam_bar))

    def test_large_min_split_gain_single_leaf(self):
        data, gh = four_sample_case()
        cfg = TreeConfig(max_leaves=8, max_bins=2, lam=0.0, min_split_gain=100.0)
        tree = grow_tree(data, gh, np.arange(4), cfg)
        assert len(tree.leaves) == 1

    def test_empty_mask(self):
        data, gh = four_sample_case()
        cfg = TreeConfig(max_bins=2)
        with pytest.raises(EmptyMask):
            grow_tree(data, gh, np.array([], dtype=np.int64), cfg)

    def test_route_tie_goes_left(self):
        data, gh = four_sample_case()
        cfg = TreeConfig(max_leaves=2, max_bins=2, lam=0.0)
        tree = grow_tree(data, gh, np.arange(4), cfg)
        threshold = tree.nodes["threshold"][0]
        rows = np.array([[threshold], [threshold + 1]], dtype=np.uint16)
        np.testing.assert_array_equal(route_many(tree, rows), [0, 1])
        assert [walk(tree, row) for row in rows] == [0, 1]

    def grown_problem(self, seed=0, n=300, f=3, max_leaves=16):
        data = make_regression(seed, n, f)
        edges = compute_bin_edges(data, 32)
        binned = apply_bins(data, edges)
        g = 2.0 * (np.zeros(n) - data.target)
        h = np.full(n, 2.0)
        gh = GradHess(g, h)
        cfg = TreeConfig(max_leaves=max_leaves, max_bins=32, lam=1.0)
        tree = grow_tree(binned, gh, np.arange(n), cfg)
        return binned, gh, cfg, tree

    def test_partition_property(self):
        binned, gh, cfg, tree = self.grown_problem()
        leaves = route_many(tree, binned.bins)
        counts = np.bincount(leaves, minlength=len(tree.leaves))
        np.testing.assert_array_equal(counts, tree.leaves["n"])
        assert counts.sum() == binned.n
        assert len(tree.leaves) <= cfg.max_leaves

    def test_leaves_match_recomputed_stats(self):
        binned, gh, cfg, tree = self.grown_problem()
        leaves = route_many(tree, binned.bins)
        for leaf_id, (mu, var, _) in enumerate(tree.leaves.tolist()):
            members = np.flatnonzero(leaves == leaf_id)
            expected = leaf_stats(gh.g[members], gh.h[members], cfg.lam)
            assert mu == pytest.approx(expected.mu, rel=1e-9)
            assert var == pytest.approx(expected.var, rel=1e-9, abs=1e-12)

    def test_gain_additivity(self):
        binned, gh, cfg, tree = self.grown_problem()

        def objective(rows):
            sg = float(gh.g[rows].sum())
            sh = float(gh.h[rows].sum())
            return 0.5 * sg * sg / (sh + cfg.lam)

        all_rows = np.arange(binned.n)
        node_rows = {}
        stack = [(0, all_rows)]
        while stack:
            ref, rows = stack.pop()
            if ref < 0:
                continue
            feature, threshold, left, right, node_gain = tree.nodes[ref].tolist()
            node_rows[ref] = rows
            mask = binned.bins[rows, feature] <= threshold
            left_rows = rows[mask]
            right_rows = rows[~mask]
            gain = objective(left_rows) + objective(right_rows) - objective(rows)
            assert gain == pytest.approx(node_gain, rel=1e-9, abs=1e-12)
            stack.append((left, left_rows))
            stack.append((right, right_rows))
        assert len(node_rows) == len(tree.nodes)

    def test_constant_hessian_reduction(self):
        binned, gh, cfg, tree = self.grown_problem()
        leaves = route_many(tree, binned.bins)
        for leaf_id, mu in enumerate(tree.leaves["mu"]):
            members = np.flatnonzero(leaves == leaf_id)
            classic = gh.g[members].sum() / (gh.h[members].sum() + cfg.lam)
            assert mu == pytest.approx(classic, rel=1e-12)

    def test_determinism_and_mask_type(self):
        binned, gh, cfg, _ = self.grown_problem()
        a = grow_tree(binned, gh, np.arange(binned.n), cfg)
        b = grow_tree(binned, gh, np.arange(binned.n), cfg)
        bool_mask = np.ones(binned.n, dtype=bool)
        c = grow_tree(binned, gh, bool_mask, cfg)
        assert_same_tree(a, b)
        assert_same_tree(a, c)

    def test_submask_uses_only_masked_rows(self):
        binned, gh, cfg, _ = self.grown_problem(n=200)
        mask = np.arange(0, 200, 2)
        tree = grow_tree(binned, gh, mask, cfg)
        assert tree.leaves["n"].sum() == mask.size

    def test_feature_fraction_limits_features(self):
        data = make_regression(11, 300, 4)
        edges = compute_bin_edges(data, 16)
        binned = apply_bins(data, edges)
        gh = GradHess(2.0 * (0.0 - data.target), np.full(300, 2.0))
        cfg = TreeConfig(max_leaves=8, max_bins=16, lam=1.0)
        tree = grow_tree(binned, gh, np.arange(300), cfg, features=np.array([2]))
        assert len(tree.nodes) > 0
        assert set(tree.nodes["feature"].tolist()) == {2}


class TestTreeTables:
    def test_dtypes_layout_and_read_only(self):
        *_, tree = TestGrowTree().grown_problem()
        assert tree.nodes.dtype == NODE_DTYPE
        assert tree.leaves.dtype == LEAF_DTYPE
        assert len(tree.leaves) == len(tree.nodes) + 1
        for table in (tree.nodes, tree.leaves):
            assert table.flags.c_contiguous
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = table[1]

    def test_constructor_copies_its_input(self):
        leaves = np.array([(1.5, 0.25, 3)], dtype=LEAF_DTYPE)
        tree = Tree(nodes=[], leaves=leaves)
        leaves["mu"] = 9.0
        assert tree.leaves["mu"][0] == 1.5
        assert leaves.flags.writeable
        assert tree.nodes.dtype == NODE_DTYPE and tree.nodes.shape == (0,)
        np.testing.assert_array_equal(
            route_many(tree, np.zeros((3, 2), dtype=np.uint16)), [0, 0, 0]
        )


@st.composite
def link_tables(draw):
    """(nodes, leaf count) for up to 8 nodes: a tree the grower could have
    made, with or without one reference redrawn, or links drawn at random."""
    n_nodes = draw(st.integers(0, 8))
    n_leaves = draw(st.sampled_from([n_nodes + 1, n_nodes + 1, n_nodes, n_nodes + 2]))
    ref = st.integers(-n_leaves - 1, n_nodes)
    if draw(st.booleans()):
        links = [[draw(ref), draw(ref)] for _ in range(n_nodes)]
    else:
        links = [[None, None] for _ in range(n_nodes)]
        for child in range(1, n_nodes):
            free = [(j, s) for j in range(child) for s in (0, 1) if links[j][s] is None]
            j, side = draw(st.sampled_from(free))
            links[j][side] = child
        leaf_ids = iter(draw(st.permutations(range(n_nodes + 1))))
        links = [[~next(leaf_ids) if r is None else r for r in pair] for pair in links]
        if n_nodes and draw(st.booleans()):
            links[draw(st.integers(0, n_nodes - 1))][draw(st.integers(0, 1))] = draw(ref)
    nodes = [(draw(st.integers(0, 2)), draw(st.integers(0, 3)), left, right, 1.0)
             for left, right in links]
    return nodes, n_leaves


class TestTreeLinks:
    @given(tables=link_tables(), bins=arrays(np.uint16, (6, 3)))
    @example(tables=([(0, 0, 0, -1, 1.0)], 2), bins=np.zeros((6, 3), dtype=np.uint16))
    def test_a_tree_that_constructs_routes_every_row_to_a_leaf(self, tables, bins):
        nodes, n_leaves = tables
        try:
            tree = Tree(nodes=nodes, leaves=[(0.0, 0.0, 1)] * n_leaves)
        except ValueError:
            return
        for row in bins:
            ref = 0 if nodes else ~0
            for _ in range(len(nodes)):
                if ref < 0:
                    break
                feature, threshold, left, right, _ = nodes[ref]
                ref = left if row[feature] <= threshold else right
            assert ref < 0, "routing did not reach a leaf in len(nodes) steps"
        ids = route_many(tree, bins)
        assert ids.dtype == np.int64
        assert np.all((0 <= ids) & (ids < n_leaves))
        np.testing.assert_array_equal(ids, [walk(tree, row) for row in bins])

    @pytest.mark.parametrize(
        "nodes, n_leaves, match",
        [
            ([(0, 0, 0, -1, 1.0)], 2, "does not follow"),
            ([(0, 0, -1, -1, 1.0)], 2, "more than once"),
            ([(0, 0, 1, -1, 1.0)], 2, "missing child node 1"),
            ([(0, 0, -1, -3, 1.0)], 2, "missing child leaf 2"),
            ([(0, 0, -1, -2, 1.0)], 3, "need 2 leaves"),
            ([], 0, "need 1 leaves"),
            ([(0, 0, 2**64, -1, 1.0)], 2, "does not fit"),
            ([(2**63, 0, -1, -2, 1.0)], 2, "does not fit"),
            ([(0, 2**64, -1, -2, 1.0)], 2, "does not fit"),
        ],
    )
    def test_broken_links_are_rejected(self, nodes, n_leaves, match):
        with pytest.raises(ValueError, match=match):
            Tree(nodes=nodes, leaves=[(0.0, 0.0, 1)] * n_leaves)

    def test_the_empty_tree_is_valid(self):
        tree = Tree(nodes=[], leaves=[(0.5, 0.0, 1)])
        np.testing.assert_array_equal(
            route_many(tree, np.zeros((2, 1), dtype=np.uint16)), [0, 0]
        )


class TestRouting:
    def test_route_many_matches_route(self):
        data = make_regression(21, 150, 3)
        edges = compute_bin_edges(data, 16)
        binned = apply_bins(data, edges)
        gh = GradHess(2.0 * (0.0 - data.target), np.full(150, 2.0))
        cfg = TreeConfig(max_leaves=12, max_bins=16, lam=1.0)
        tree = grow_tree(binned, gh, np.arange(150), cfg)
        vector = route_many(tree, binned.bins)
        single = np.array([walk(tree, row) for row in binned.bins])
        np.testing.assert_array_equal(vector, single)


def scan_features_oracle(features, sums, config, node_totals):
    """Per-feature split scan of one node, one feature at a time in
    ascending order, over its (g, h, count) histograms ``sums``. Returns
    (feature, bin, gain, left child's sums) or None."""
    total_g, total_h, total_n = node_totals
    parent_denom = total_h + config.lam
    if parent_denom <= EPS_HESSIAN:
        return None
    parent_term = total_g**2 / parent_denom
    best = None
    for row, feature in enumerate(features):
        gl, hl, nl = (np.cumsum(s[row])[:-1] for s in sums)
        gr = total_g - gl
        hr = total_h - hl
        nr = total_n - nl
        dl = hl + config.lam
        dr = hr + config.lam
        ok = (
            (nl >= config.min_data_in_leaf)
            & (nr >= config.min_data_in_leaf)
            & (dl > EPS_HESSIAN)
            & (dr > EPS_HESSIAN)
        )
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (gl**2 / dl + gr**2 / dr - parent_term)
        gains = np.where(ok, gains, -np.inf)
        bin_idx = int(np.argmax(gains))
        gain = float(gains[bin_idx])
        if gain > config.min_split_gain and (best is None or gain > best[2]):
            left = (float(gl[bin_idx]), float(hl[bin_idx]), int(nl[bin_idx]))
            best = (int(feature), bin_idx, gain, left)
    return best


def bincount_oracle(bins, g, h, indices, features, n_bins):
    """Per-feature bincount histograms, stacked in feature order."""
    columns = [bins[indices, feature] for feature in features]
    return (
        np.array([np.bincount(c, weights=g[indices], minlength=n_bins) for c in columns]),
        np.array([np.bincount(c, weights=h[indices], minlength=n_bins) for c in columns]),
        np.array([np.bincount(c, minlength=n_bins) for c in columns]),
    )


@st.composite
def histogram_problems(draw, values):
    """Binned rows, a node's row subset and a feature subset.

    A column copied with its bins shifted up forces exact gain ties
    across features at different thresholds; bins that no row falls
    into, and bin axes padded past the largest bin, force ties across
    thresholds that span them.
    """
    n_features = draw(st.integers(1, 5))
    n_bins = draw(st.integers(2, 6))
    n = draw(st.integers(2, 24))

    def column(dtype, elements, shape=n):
        return draw(arrays(dtype, shape, elements=elements, fill=st.nothing()))

    bins = column(np.uint16, st.integers(0, n_bins - 1), (n, n_features))
    features = np.array(
        sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=1))),
        dtype=np.int64,
    )
    if features.size > 1:
        src, dst = draw(st.permutations(features.tolist()))[:2]
        bins[:, dst] = bins[:, src] + draw(st.integers(0, 2))
    g = column(np.float64, values)
    h = column(np.float64, st.sampled_from([1.0, 0.5, 2.0, 0.0]))
    rows = draw(st.permutations(range(n)))
    indices = np.array(rows[: draw(st.integers(1, n))], dtype=np.int64)
    width = int(bins.max()) + 1 + draw(st.integers(0, 2))
    return bins, g, h, indices, features, width


TIED_VALUES = st.sampled_from([1.0, -2.0, 0.5, -1.0, 3.0, 0.0])
ANY_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def node_stacks(draw):
    """A histogram problem whose single node becomes one to three nodes,
    each with its own row subset."""
    bins, g, h, indices, features, width = draw(
        histogram_problems(st.one_of(TIED_VALUES, st.floats(-10, 10)))
    )
    nodes = [indices]
    for _ in range(draw(st.integers(0, 2))):
        rows = draw(st.permutations(range(len(g))))
        nodes.append(np.array(rows[: draw(st.integers(1, len(g)))], dtype=np.int64))
    return bins, g, h, nodes, features, width


class TestVectorizedAgainstOracles:
    @given(histogram_problems(ANY_VALUES))
    def test_build_histogram_matches_per_feature_bincount(self, problem):
        hist = histogram(*problem)
        assert hist.stats.shape == (3, 1, len(problem[4]), problem[5])
        for got, expected in zip((hist.g, hist.h, hist.count), bincount_oracle(*problem)):
            np.testing.assert_array_equal(got, [expected])
        np.testing.assert_array_equal(hist.features, problem[4])

    @given(
        node_stacks(),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(1, 3),
        st.sampled_from([0.0, 0.1, 1.0]),
    )
    def test_find_best_split_matches_per_feature_scan(
        self, stack, lam, min_data, min_gain
    ):
        bins, g, h, nodes, features, width = stack
        sums = [bincount_oracle(bins, g, h, rows, features, width) for rows in nodes]
        hist = NodeHistogram(features, np.stack([np.array(s, dtype=np.float64) for s in sums], 1))
        cfg = TreeConfig(lam=lam, min_data_in_leaf=min_data, min_split_gain=min_gain)
        totals = [(float(np.sum(g[rows])), float(np.sum(h[rows])), rows.size) for rows in nodes]
        assert find_best_split(hist, cfg, totals) == [
            scan_features_oracle(features, s, cfg, t) for s, t in zip(sums, totals)
        ]


def grow_searching_every_child(data, gh, cfg, rows=None, features=None, links=False):
    """Best-first growth over ``rows`` (default: all) that searches every
    node on ``features`` (default: all), the final split's children
    included, each node alone with ``scan_features_oracle``. Histograms
    come from ``bincount_oracle``; a right child's is its parent's minus
    its sibling's with the empty bins zeroed, so its float sums match the
    grower's. Returns the splits, as (feature, threshold, gain) triples
    or with ``links`` as full node rows, and the leaves, numbered as in
    ``Tree``."""
    rows = np.arange(data.n) if rows is None else rows
    features = np.arange(data.f) if features is None else features
    regions, heap = [], []

    def add(rows, sums, totals):
        best = scan_features_oracle(features, sums, cfg, totals)
        regions.append([rows, sums, totals, best])
        if best is not None:
            heapq.heappush(heap, (-best[2], len(regions) - 1))
        return len(regions) - 1

    def sums_of(rows):
        return bincount_oracle(data.bins, gh.g, gh.h, rows, features, data.max_n_bins)

    add(rows, sums_of(rows), (float(np.sum(gh.g[rows])), float(np.sum(gh.h[rows])), rows.size))
    splits = []
    while len(splits) + 1 < cfg.max_leaves and heap:
        _, at = heapq.heappop(heap)
        rows, (pg, ph, pc), (tg, th, tn), (feature, threshold, gain, lt) = regions[at]
        go_left = data.bins[rows, feature] <= threshold
        lg, lh, lc = sums_of(rows[go_left])
        rc = pc - lc
        right_sums = (np.where(rc == 0, 0.0, pg - lg), np.where(rc == 0, 0.0, ph - lh), rc)
        left = add(rows[go_left], (lg, lh, lc), lt)
        right = add(rows[~go_left], right_sums, (tg - lt[0], th - lt[1], tn - lt[2]))
        splits.append((at, feature, threshold, gain, left, right))
    split_at = [split[0] for split in splits]
    leaf_at = [i for i in range(len(regions)) if i not in split_at]

    def ref(i):
        return split_at.index(i) if i in split_at else ~leaf_at.index(i)

    nodes = [
        (feature, threshold, ref(left), ref(right), gain)
        if links
        else (feature, threshold, gain)
        for _, feature, threshold, gain, left, right in splits
    ]
    leaves = [leaf_stats(gh.g[regions[i][0]], gh.h[regions[i][0]], cfg.lam) for i in leaf_at]
    return nodes, leaves


@st.composite
def growth_problems(draw):
    """Binned data with tied and free gradients, a bag (sorted row
    indices or a boolean mask), a feature subset and a tree config."""
    n_features = draw(st.integers(1, 4))
    width = draw(st.integers(2, 8))
    n = draw(st.integers(1, 40))

    def column(dtype, elements, shape=n):
        return draw(arrays(dtype, shape, elements=elements, fill=st.nothing()))

    bins = column(np.uint16, st.integers(0, width - 1), (n, n_features))
    edges = BinEdges([np.arange(0.5, width - 1)] * n_features)
    data = BinnedDataset(bins=bins, edges=edges, target=np.zeros(n))
    g = column(np.float64, st.one_of(TIED_VALUES, st.floats(-10, 10)))
    h = column(np.float64, st.sampled_from([0.5, 1.0, 2.0]))
    keep = column(bool, st.booleans())
    keep[draw(st.integers(0, n - 1))] = True
    bag = keep if draw(st.booleans()) else np.nonzero(keep)[0]
    features = sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=1)))
    cfg = TreeConfig(
        max_leaves=draw(st.integers(1, 20)),
        max_bins=width,
        lam=draw(st.sampled_from([0.0, 0.5, 1.0])),
        min_split_gain=draw(st.sampled_from([0.0, 0.01, 0.5])),
        min_data_in_leaf=draw(st.integers(1, 5)),
    )
    return data, GradHess(g, h), bag, np.array(features, dtype=np.int64), cfg


def tied_children_problem():
    """The root splits on feature 1 into two children whose best splits,
    on feature 0, tie at gain 2 exactly; with room for one more split,
    the tie goes to the child made first, the left one."""
    bins = np.array([[0, 0], [0, 0], [0, 1], [0, 1], [1, 0], [1, 0], [1, 1], [1, 1]])
    data = BinnedDataset(
        bins=bins.astype(np.uint16), edges=BinEdges([np.array([0.5])] * 2), target=np.zeros(8)
    )
    g = np.array([3.0, 3.0, -1.0, -1.0, 1.0, 1.0, -3.0, -3.0])
    cfg = TreeConfig(max_leaves=3, max_bins=2, lam=0.0)
    return data, GradHess(g, np.ones(8)), np.arange(8), np.arange(2), cfg


class TestGrowerAgainstOracle:
    @given(growth_problems())
    @example(tied_children_problem())
    def test_grow_tree_matches_searching_every_child(self, problem):
        data, gh, bag, features, cfg = problem
        tree = grow_tree(data, gh, bag, cfg, features)
        rows = np.nonzero(bag)[0] if bag.dtype == bool else bag
        nodes, leaves = grow_searching_every_child(data, gh, cfg, rows, features, links=True)
        expected_nodes = np.array(nodes, dtype=NODE_DTYPE)
        expected_leaves = np.array(leaves, dtype=LEAF_DTYPE)
        assert tree.nodes.dtype == NODE_DTYPE and tree.leaves.dtype == LEAF_DTYPE
        assert np.array_equal(tree.nodes, expected_nodes)
        assert np.array_equal(tree.leaves, expected_leaves)


class TestFinalSplitSkip:
    @pytest.mark.parametrize("max_leaves", [1, 2, 3, 16])
    def test_searches_and_result(self, monkeypatch, max_leaves):
        data = make_regression(5, 300, 3)
        binned = apply_bins(data, compute_bin_edges(data, 32))
        gh = GradHess(2.0 * (0.0 - data.target), np.full(data.n, 2.0))
        cfg = TreeConfig(max_leaves=max_leaves, max_bins=32, lam=1.0)
        expected_splits, expected_leaves = grow_searching_every_child(binned, gh, cfg)

        calls = []
        search = pgbm.tree.find_best_split

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(pgbm.tree, "find_best_split", counted)
        tree = grow_tree(binned, gh, np.arange(data.n), cfg)
        assert len(tree.leaves) == max_leaves
        # The root alone, then each split's two children as one stack.
        assert len(calls) == max(0, max_leaves - 1)
        assert sum(len(totals) for *_, totals in calls) == max(0, 2 * max_leaves - 3)
        splits = [(f, t, gain) for f, t, _, _, gain in tree.nodes.tolist()]
        assert splits == expected_splits
        assert np.array_equal(tree.leaves, np.array(expected_leaves, dtype=LEAF_DTYPE))


@st.composite
def routing_problems(draw):
    """A bagged, feature-subsampled growth problem whose trees reach up to
    64 leaves, and unseen rows whose bins may pass the training range.
    The shapes and the config are drawn, largest first, so that most
    examples grow deep trees; the values come from a seeded generator."""
    n_features = draw(st.integers(1, 4))
    width = draw(st.sampled_from([64, 8, 3, 2]))
    n = draw(st.sampled_from([200, 100, 40, 10, 3, 2, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = rng.integers(0, width, size=(n, n_features), dtype=np.uint16)
    edges = BinEdges([np.arange(0.5, width - 1)] * n_features)
    data = BinnedDataset(bins=bins, edges=edges, target=np.zeros(n))
    gh = GradHess(rng.normal(size=n), rng.choice([0.5, 1.0, 2.0], size=n))
    bag_size = max(1, round(draw(st.sampled_from([1.0, 0.8, 0.5, 0.1])) * n))
    bag = np.sort(rng.choice(n, size=bag_size, replace=False))
    if draw(st.booleans()):
        bag = np.isin(np.arange(n), bag)
    n_sub = draw(st.integers(1, n_features))
    features = np.sort(rng.choice(n_features, size=n_sub, replace=False))
    cfg = TreeConfig(max_leaves=draw(st.sampled_from([64, 31, 16, 5, 3, 2, 1])), max_bins=width,
                     lam=draw(st.sampled_from([0.0, 1.0])))
    unseen = rng.integers(0, width + 3, size=(draw(st.integers(0, 20)), n_features),
                          dtype=np.uint16)
    return data, gh, bag, features, cfg, unseen


class TestGrownTreeRouting:
    @given(routing_problems())
    def test_grown_trees_route_as_the_scalar_walk(self, problem):
        binned, gh, bag, features, cfg, unseen = problem
        leaf_ids = np.full(binned.n, -1, dtype=np.int64)
        tree = grow_tree(binned, gh, bag, cfg, features, leaf_ids)
        for bins in (binned.bins, unseen):
            ids = route_many(tree, bins)
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, [walk(tree, row) for row in bins])
        rows = np.nonzero(bag)[0] if bag.dtype == bool else bag
        np.testing.assert_array_equal(leaf_ids[rows], route_many(tree, binned.bins[rows]))
        np.testing.assert_array_equal(np.delete(leaf_ids, rows), -1)

    def test_no_rows_route_to_an_empty_vector(self):
        *_, tree = TestGrowTree().grown_problem()
        stump = Tree(nodes=[], leaves=[(0.5, 0.0, 1)])
        for t in (tree, stump):
            ids = route_many(t, np.zeros((0, 3), dtype=np.uint16))
            assert ids.dtype == np.int64 and ids.shape == (0,)

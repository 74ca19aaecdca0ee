"""The grower's and router's row path against a frozen copy of it.

``grow_tree``, ``_split_rows``, ``build_histogram``,
``subtract_histogram`` and ``route_many`` below are the row path as it
was before rows moved as whole blocks: row-major bins, a 2-D fancy
index per node gather and two boolean passes per partition. They are
kept unchanged as the oracle. The library's version gathers with
``take`` and partitions with ``compress`` over column-major bins, and
must give the same bytes: both tables of each tree, the leaf of every
row the grower places, and the leaf of every routed row. The split
search, the leaf moments and ``Tree`` are the library's own on both
sides.
"""

from __future__ import annotations

import heapq

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from pgbm import BinnedDataset, GradHess, RawDataset, TreeConfig, apply_bins, compute_bin_edges
from pgbm.errors import EmptyMask, NonFiniteEstimate
from pgbm.tree import NodeHistogram, Tree, find_best_split, leaf_stats
from pgbm.tree import grow_tree as library_grow_tree
from pgbm.tree import route_many as library_route_many


def build_histogram(keys, g, h, indices, features, n_bins):
    width = len(features)
    node_keys = keys[indices].ravel()
    size = width * n_bins
    stats = np.concatenate((
        np.bincount(node_keys, weights=np.repeat(g[indices], width), minlength=size),
        np.bincount(node_keys, weights=np.repeat(h[indices], width), minlength=size),
        np.bincount(node_keys, minlength=size),
    ))
    return NodeHistogram(features, stats.reshape(3, 1, width, n_bins))


def subtract_histogram(parent, left):
    stats = np.concatenate((left.stats, parent.stats - left.stats), axis=1)
    right = stats[:, 1]
    np.copyto(right[:2], 0.0, where=right[2] == 0)
    return NodeHistogram(parent.features, stats)


@np.errstate(all="ignore")
def grow_tree(data, gh, sample_mask, config, features=None, leaf_ids=None):
    indices = np.asarray(sample_mask)
    if indices.dtype == bool:
        indices = np.nonzero(indices)[0]
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise EmptyMask("cannot grow a tree over an empty sample mask")
    if features is None:
        features = np.arange(data.f)
    n_bins = data.max_n_bins
    g, h = gh.g, gh.h
    keys = data.bins[:, features] + np.arange(len(features)) * n_bins

    rows = []
    heap = []

    def add(group, hist=None, totals=None):
        found = [None] * len(group) if hist is None else find_best_split(hist, config, totals)
        first = len(rows)
        rows.extend(group)
        for node, best in enumerate(found):
            if best is not None:
                node_hist = NodeHistogram(features, hist.stats[:, node : node + 1])
                heapq.heappush(heap, (-best[2], first + node, node_hist, totals[node], best))
        return range(first, len(rows))

    if config.max_leaves > 1:
        totals = (float(np.sum(g[indices])), float(np.sum(h[indices])), int(indices.size))
        add([indices], build_histogram(keys, g, h, indices, features, n_bins), [totals])
    else:
        add([indices])

    splits = []
    while len(splits) + 1 < config.max_leaves and heap:
        _, region, hist, totals, (feature, threshold, gain, left_totals) = heapq.heappop(heap)
        group = _split_rows(data.bins, rows[region], feature, threshold)
        if len(splits) + 2 < config.max_leaves:
            right_totals = tuple(t - lt for t, lt in zip(totals, left_totals))
            left_hist = build_histogram(keys, g, h, group[0], features, n_bins)
            pair = subtract_histogram(hist, left_hist)
            left, right = add(group, pair, [left_totals, right_totals])
        else:
            left, right = add(group)
        splits.append((region, feature, threshold, gain, left, right))

    ref = {split[0]: node for node, split in enumerate(splits)}
    leaf_regions = [region for region in range(len(rows)) if region not in ref]
    ref.update((region, ~leaf) for leaf, region in enumerate(leaf_regions))
    nodes = [
        (feature, threshold, ref[left], ref[right], gain)
        for _, feature, threshold, gain, left, right in splits
    ]
    leaves = [leaf_stats(g[rows[r]], h[rows[r]], config.lam) for r in leaf_regions]
    tree = Tree(nodes=nodes, leaves=leaves)
    values = (tree.nodes["gain"], tree.leaves["mu"], tree.leaves["var"])
    if not np.isfinite(np.concatenate(values)).all():
        raise NonFiniteEstimate("a split gain or leaf moment overflows float64")
    if leaf_ids is not None:
        for leaf, region in enumerate(leaf_regions):
            leaf_ids[rows[region]] = leaf
    return tree


def _split_rows(bins, rows, feature, threshold):
    go_left = (bins[:, feature] if rows is None else bins[rows, feature]) <= threshold
    if rows is None:
        return np.flatnonzero(go_left), np.flatnonzero(~go_left)
    return rows[go_left], rows[~go_left]


def route_many(tree, bins):
    if not len(tree.nodes):
        return np.zeros(bins.shape[0], dtype=np.int64)
    leaf_ids = np.empty(bins.shape[0], dtype=np.int64)
    node_rows = [None] * len(tree.nodes)
    for node, (feature, threshold, left, right, _) in enumerate(tree.nodes.tolist()):
        halves = _split_rows(bins, node_rows[node], feature, threshold)
        node_rows[node] = None
        for ref, rows in zip((left, right), halves):
            if ref >= 0:
                node_rows[ref] = rows
            else:
                leaf_ids[rows] = ~ref
    return leaf_ids


@st.composite
def fits(draw):
    """Binned data of one of three kinds, with its gradients, a bag given
    as indices or as a boolean mask, a feature subset and a tree config.
    The shapes and the config are drawn; the values come from a seeded
    generator."""
    n = draw(st.integers(1, 120))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "small integers", "duplicated rows"]))
    if kind == "continuous":
        x = rng.normal(size=(n, n_features))
    elif kind == "small integers":
        x = rng.integers(0, 4, size=(n, n_features)).astype(np.float64)
    else:
        distinct = rng.normal(size=(draw(st.integers(1, 4)), n_features))
        x = distinct[rng.integers(0, len(distinct), size=n)]
    data = RawDataset(x, np.zeros(n), [f"x{j}" for j in range(n_features)])
    binned = apply_bins(data, compute_bin_edges(data, draw(st.sampled_from([2, 3, 8, 64]))))
    if draw(st.booleans()):
        g = rng.normal(size=n)
    else:
        g = rng.integers(-2, 3, size=n).astype(np.float64)
    h = rng.choice([0.5, 1.0, 2.0], size=n) if draw(st.booleans()) else np.full(n, 2.0)
    keep = rng.random(n) < draw(st.sampled_from([1.0, 0.8, 0.3]))
    keep[rng.integers(n)] = True
    bag = keep if draw(st.booleans()) else np.flatnonzero(keep)
    features = None
    if draw(st.booleans()):
        size = draw(st.integers(1, n_features))
        features = np.sort(rng.choice(n_features, size=size, replace=False))
    config = TreeConfig(
        max_leaves=draw(st.integers(1, 16)),
        max_bins=64,
        lam=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        min_data_in_leaf=draw(st.integers(1, 5)),
    )
    return binned, GradHess(g, h), bag, features, config


def tables(tree):
    return tree.nodes.tobytes(), tree.leaves.tobytes()


@given(fits(), st.sampled_from(["F", "C"]))
def test_the_row_path_gives_the_frozen_bytes(fit, order):
    binned, gh, bag, features, config = fit
    assert binned.bins.flags.f_contiguous
    if order == "C":
        binned = BinnedDataset(np.ascontiguousarray(binned.bins), binned.edges, binned.target)
    expected_ids = np.full(binned.n, -1, dtype=np.int64)
    expected = grow_tree(binned, gh, bag, config, features, expected_ids)
    leaf_ids = np.full(binned.n, -1, dtype=np.int64)
    tree = library_grow_tree(binned, gh, bag, config, features, leaf_ids)
    assert tables(tree) == tables(expected)
    assert leaf_ids.tobytes() == expected_ids.tobytes()
    for bins in (binned.bins, np.ascontiguousarray(binned.bins), np.asfortranarray(binned.bins)):
        routed = library_route_many(tree, bins)
        assert routed.dtype == np.int64
        assert routed.tobytes() == route_many(expected, bins).tobytes()

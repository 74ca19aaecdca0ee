"""Histogram decision trees with stochastic leaf weights.

One tree is grown per boosting iteration over binned features. A node's
gradient, hessian and count histograms are (features x bins) matrices,
and its split search scores every (feature, bin) candidate in one pass
over them: cumulative sums along the bin axis, one masked gain matrix
and one row-major argmax. The tree expands best-first (the open leaf
with the largest qualifying gain splits next) until ``max_leaves`` is
reached or no leaf can improve. The children of the split that reaches
``max_leaves`` can never split, so they get neither a histogram nor a
search.

A terminal node does not store a single weight. It stores the first two
moments of the ratio of the mean gradient to the mean hessian over its
instance set,

    mu  ~= gbar/d - cov_gh/d^2 + gbar*var_h/d^3
    var ~= var_g/d^2 + gbar^2*var_h/d^4 - 2*gbar*cov_gh/d^3

with d = hbar + lambda/n and all second moments Bessel-corrected. Both
corrections vanish for constant-hessian losses, where mu reduces exactly
to sum(g)/(sum(h) + lambda), the classic regularized leaf weight
magnitude. The minus sign of the classic weight lives in the boosting
update, which subtracts alpha*mu.

A ``Tree`` is two read-only numpy structured arrays. ``nodes`` has one
row per split, in split order, with fields ``feature``, ``threshold``
(a row goes left when its bin of ``feature`` is <= ``threshold``),
``left``, ``right`` and ``gain``. ``leaves`` has one row per leaf with
fields ``mu``, ``var`` and ``n`` (the leaf's instance count). A child
reference is a node row for a nonnegative value and the leaf row
``~ref`` for a negative one, so a single integer routes to either
table. The root is node row 0, or leaf row 0 when the tree has no
split. The leaf rows are the regions left unsplit, in creation order:
the root, then each split's left child and right child, in split order.
Model bytes depend on this numbering. Constructing a ``Tree`` raises
ValueError unless the links form a tree, so routing always ends at a
leaf.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import MAX_BINS, BinnedDataset
from .errors import DegenerateHessian, EmptyMask, NonFiniteEstimate
from .loss import GradHess

EPS_HESSIAN = 1e-9

NODE_DTYPE = np.dtype(
    [
        ("feature", np.int64),
        ("threshold", np.int64),
        ("left", np.int64),
        ("right", np.int64),
        ("gain", np.float64),
    ]
)
LEAF_DTYPE = np.dtype([("mu", np.float64), ("var", np.float64), ("n", np.int64)])


@dataclass(frozen=True)
class TreeConfig:
    max_leaves: int = 16
    max_bins: int = 64
    lam: float = 1.0
    min_split_gain: float = 0.0
    min_data_in_leaf: int = 1

    def __post_init__(self):
        if self.max_leaves < 1:
            raise ValueError("max_leaves must be at least 1")
        if not 2 <= self.max_bins <= MAX_BINS:
            raise ValueError(f"max_bins must be between 2 and {MAX_BINS}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and nonnegative")
        if not (math.isfinite(self.min_split_gain) and self.min_split_gain >= 0):
            raise ValueError("min_split_gain must be finite and nonnegative")
        if self.min_data_in_leaf < 1:
            raise ValueError("min_data_in_leaf must be at least 1")


class LeafStats(NamedTuple):
    """Moments of a leaf's stochastic weight and its instance count; the
    fields match ``LEAF_DTYPE``."""

    mu: float
    var: float
    n: int


@dataclass(frozen=True, eq=False)
class Tree:
    """One tree as a ``nodes`` and a ``leaves`` table (module docstring).

    Both are stored as C-contiguous, read-only copies; compare trees
    with ``np.array_equal`` on the tables.
    """

    nodes: np.ndarray
    leaves: np.ndarray

    def __post_init__(self):
        for name, dtype in (("nodes", NODE_DTYPE), ("leaves", LEAF_DTYPE)):
            try:
                table = np.array(getattr(self, name), dtype=dtype)
            except OverflowError as exc:
                raise ValueError(f"{name}: a value does not fit its field ({exc})") from None
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        self._check_links()

    def _check_links(self) -> None:
        """Raise ValueError unless there is one more leaf than nodes and
        each child reference exists, follows its parent's node id and is
        made once. The 2N references then cover the N - 1 nodes below the
        root and the N + 1 leaves, and routing takes at most N steps."""
        n_nodes, n_leaves = len(self.nodes), len(self.leaves)
        if n_leaves != n_nodes + 1:
            raise ValueError(f"{n_nodes} nodes need {n_nodes + 1} leaves, got {n_leaves}")
        seen: set[int] = set()
        links = zip(self.nodes["left"].tolist(), self.nodes["right"].tolist())
        for node_id, children in enumerate(links):
            for ref in children:
                child = f"node {ref}" if ref >= 0 else f"leaf {~ref}"
                if not -n_leaves <= ref < n_nodes:
                    raise ValueError(f"node {node_id} references missing child {child}")
                if 0 <= ref <= node_id:
                    raise ValueError(f"{child} does not follow its parent node {node_id}")
                if ref in seen:
                    raise ValueError(f"{child} is referenced more than once")
                seen.add(ref)


@dataclass(frozen=True)
class NodeHistogram:
    """Per-(feature, bin) sums of gradient, hessian and count for one node.

    ``features`` holds the actual feature indices of the rows; the bin
    axis is padded to the widest feature, with empty bins contributing
    zeros everywhere.
    """

    features: np.ndarray
    g: np.ndarray
    h: np.ndarray
    count: np.ndarray


def build_histogram(
    bins: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    indices: np.ndarray,
    features: np.ndarray,
    n_bins: int,
) -> NodeHistogram:
    """Accumulate the (feature, bin) sums for one node's instance set.

    Each (row, feature) cell gets the flat key ``bin + position * n_bins``
    and one ``bincount`` per statistic fills every feature at once. Keys
    are laid out row by row, so each bin still adds its rows in the
    order of ``indices``.
    """
    rows = len(features)
    keys = bins[np.ix_(indices, features)] + np.arange(rows) * n_bins
    keys = keys.ravel()
    size = rows * n_bins
    hg = np.bincount(keys, weights=np.repeat(g[indices], rows), minlength=size)
    hh = np.bincount(keys, weights=np.repeat(h[indices], rows), minlength=size)
    hc = np.bincount(keys, minlength=size)
    shape = (rows, n_bins)
    return NodeHistogram(
        features=features,
        g=hg.reshape(shape),
        h=hh.reshape(shape),
        count=hc.reshape(shape),
    )


def subtract_histogram(parent: NodeHistogram, left: NodeHistogram) -> NodeHistogram:
    """Sibling histogram by subtraction, with empty bins forced to zero.

    Counts subtract exactly, but the float sums keep rounding residue in
    bins whose rows all went left when the parent histogram is itself a
    subtraction result. Left uncleaned, that residue breaks the exact
    gain ties between thresholds that span empty bins, and the tie then
    resolves to an arbitrary bin instead of the lowest one.
    """
    count = parent.count - left.count
    g = parent.g - left.g
    h = parent.h - left.h
    empty = count == 0
    g[empty] = 0.0
    h[empty] = 0.0
    return NodeHistogram(features=parent.features, g=g, h=h, count=count)


def find_best_split(
    hist: NodeHistogram,
    config: TreeConfig,
    node_totals: tuple[float, float, int],
) -> tuple[int, int, float] | None:
    """Score all (feature, bin) candidates at once; return the best qualifying one.

    A candidate qualifies when its gain strictly exceeds min_split_gain,
    both children hold at least min_data_in_leaf samples, and both child
    hessian sums plus lam stay above the positivity guard. Ties break to
    the lowest feature index, then the lowest bin: the row-major argmax
    returns the first maximum. A non-finite parent objective, or a
    non-finite gain at a candidate that passes the count and hessian
    checks, raises NonFiniteEstimate.
    """
    total_g, total_h, total_n = node_totals
    parent_denom = total_h + config.lam
    if parent_denom <= EPS_HESSIAN:
        return None
    try:
        parent_term = total_g**2 / parent_denom
    except OverflowError:
        parent_term = math.inf
    if not math.isfinite(parent_term):
        raise NonFiniteEstimate(
            f"split search overflows: node gradient sum {total_g!r}, "
            f"hessian sum {total_h!r}"
        )

    gl = np.cumsum(hist.g, axis=1)[:, :-1]
    hl = np.cumsum(hist.h, axis=1)[:, :-1]
    nl = np.cumsum(hist.count, axis=1)[:, :-1]
    if gl.size == 0:
        return None
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gains = 0.5 * (gl**2 / dl + gr**2 / dr - parent_term)
    gains = np.where(ok, gains, -np.inf)
    flat = int(np.argmax(gains))
    gain = float(gains.flat[flat])
    # argmax returns the first NaN if there is one, else the maximum, so
    # a NaN or +inf here is exactly a qualifying non-finite gain.
    if math.isnan(gain) or gain == math.inf:
        raise NonFiniteEstimate(
            f"split search overflows: a candidate gain is {gain!r}"
        )
    if gain <= config.min_split_gain:
        return None
    row, bin_idx = divmod(flat, gains.shape[1])
    return int(hist.features[row]), bin_idx, gain


def leaf_stats(g_slice: np.ndarray, h_slice: np.ndarray, lam: float) -> LeafStats:
    """Moments of the ratio of mean gradient to regularized mean hessian.

    Uses Bessel-corrected sample variances and the sample covariance of
    (g, h); with a single sample all three are zero and the leaf is
    deterministic.
    """
    g_slice = np.asarray(g_slice, dtype=np.float64)
    h_slice = np.asarray(h_slice, dtype=np.float64)
    n = g_slice.size
    if n == 0:
        raise EmptyMask("leaf statistics need at least one sample")
    lam_bar = lam / n
    g_bar = float(np.mean(g_slice))
    h_bar = float(np.mean(h_slice))
    denom = h_bar + lam_bar
    if denom <= EPS_HESSIAN:
        raise DegenerateHessian(
            f"mean hessian plus lambda/n is {denom}, not positive"
        )
    if n > 1:
        dg = g_slice - g_bar
        dh = h_slice - h_bar
        var_g = float(np.sum(dg * dg) / (n - 1))
        var_h = float(np.sum(dh * dh) / (n - 1))
        cov_gh = float(np.sum(dg * dh) / (n - 1))
    else:
        var_g = var_h = cov_gh = 0.0
    mu = g_bar / denom - cov_gh / denom**2 + g_bar * var_h / denom**3
    var = (
        var_g / denom**2
        + g_bar**2 * var_h / denom**4
        - 2.0 * g_bar * cov_gh / denom**3
    )
    return LeafStats(mu=mu, var=max(0.0, var), n=n)


def grow_tree(
    data: BinnedDataset,
    gh: GradHess,
    sample_mask: np.ndarray,
    config: TreeConfig,
    features: np.ndarray | None = None,
) -> Tree:
    """Grow one tree over the masked rows, best-first, up to max_leaves.

    ``sample_mask`` is an array of row indices (a boolean mask is also
    accepted). Splits use only ``features``, sorted distinct feature
    indices (default: all features). The right child's histogram is
    obtained by subtracting the left child's from the parent's. A node
    gets a histogram and a split search only while the tree has room to
    split it: the two children of the split that reaches max_leaves stay
    leaves without either, so a tree that reaches L >= 2 leaves runs
    2L-3 searches. Regions are numbered in creation order, which breaks
    gain ties and numbers the leaves (module docstring).
    """
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

    rows: list[np.ndarray] = []  # each region's row indices, by region number
    heap: list[tuple] = []  # (-gain, region, hist, totals, best)

    def add(idx, hist=None, totals=None) -> int:
        region = len(rows)
        rows.append(idx)
        best = None if hist is None else find_best_split(hist, config, totals)
        if best is not None:
            heapq.heappush(heap, (-best[2], region, hist, totals, best))
        return region

    if config.max_leaves > 1:
        totals = (float(np.sum(g[indices])), float(np.sum(h[indices])), int(indices.size))
        add(indices, build_histogram(data.bins, g, h, indices, features, n_bins), totals)
    else:
        add(indices)

    splits: list[tuple[int, int, int, float, int, int]] = []
    while len(splits) + 1 < config.max_leaves and heap:
        _, region, hist, totals, (feature, threshold, gain) = heapq.heappop(heap)
        idx = rows[region]
        go_left = data.bins[idx, feature] <= threshold
        left_idx, right_idx = idx[go_left], idx[~go_left]
        if len(splits) + 2 < config.max_leaves:
            row = int(np.searchsorted(features, feature))
            left_totals = (
                float(np.cumsum(hist.g[row])[threshold]),
                float(np.cumsum(hist.h[row])[threshold]),
                int(np.cumsum(hist.count[row])[threshold]),
            )
            right_totals = tuple(t - lt for t, lt in zip(totals, left_totals))
            left_hist = build_histogram(data.bins, g, h, left_idx, features, n_bins)
            left = add(left_idx, left_hist, left_totals)
            right = add(right_idx, subtract_histogram(hist, left_hist), right_totals)
        else:
            left, right = add(left_idx), add(right_idx)
        splits.append((region, feature, threshold, gain, left, right))

    ref = {split[0]: node for node, split in enumerate(splits)}
    leaf_regions = [region for region in range(len(rows)) if region not in ref]
    ref.update((region, ~leaf) for leaf, region in enumerate(leaf_regions))
    nodes = [
        (feature, threshold, ref[left], ref[right], gain)
        for _, feature, threshold, gain, left, right in splits
    ]
    leaves = [leaf_stats(g[rows[r]], h[rows[r]], config.lam) for r in leaf_regions]
    return Tree(nodes=nodes, leaves=leaves)


def route_many(tree: Tree, bins: np.ndarray) -> np.ndarray:
    """Route every row of a binned matrix; returns a vector of leaf ids.

    A row goes left when its bin is <= the node's threshold.
    """
    n = bins.shape[0]
    nodes = tree.nodes
    if not len(nodes):
        return np.zeros(n, dtype=np.int64)
    feature = nodes["feature"]
    threshold = nodes["threshold"]
    left = nodes["left"]
    right = nodes["right"]

    position = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    while active.any():
        rows = np.nonzero(active)[0]
        at = position[rows]
        values = bins[rows, feature[at]]
        position[rows] = np.where(values <= threshold[at], left[at], right[at])
        active = position >= 0
    return ~position

"""Histogram decision trees with stochastic leaf weights.

One tree is grown per boosting iteration over binned features, and
rows move as whole blocks. A node's gradient, hessian and count
histograms, (features x bins) each, take one ``take`` of its rows of a
per-tree table of flat (feature, bin) keys and one ``bincount`` per
statistic; a region splits by one ``take`` from the feature's column
of the column-major bins and one ``compress`` per child. One split search
scores a stack of nodes, the root alone or a split's two children:
cumulative sums along the bin axis, one masked gain tensor and one
row-major argmax per node, whose winning cumulative sums are the left
child's totals. The tree expands best-first (the open leaf with the
largest qualifying gain splits next) until ``max_leaves`` is reached or
no leaf can improve. The children of the split that reaches
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
from typing import NamedTuple

import numpy as np

from ._value import Value
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


class TreeConfig(Value):
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


class Tree(Value, eq=False):
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


class NodeHistogram(NamedTuple):
    """Per-(feature, bin) sums of gradient, hessian and count for a stack
    of nodes: ``stats`` is a (3, nodes, features, bins) float64 array
    (counts are exact in float64) and ``g``, ``h`` and ``count`` are its
    views. ``features`` holds the actual feature indices of the feature
    axis; the bin axis is padded to the widest feature, with empty bins
    contributing zeros everywhere.
    """

    features: np.ndarray
    stats: np.ndarray

    g = property(lambda self: self.stats[0])
    h = property(lambda self: self.stats[1])
    count = property(lambda self: self.stats[2])


def build_histogram(
    keys: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    indices: np.ndarray,
    features: np.ndarray,
    n_bins: int,
) -> NodeHistogram:
    """Accumulate the (feature, bin) sums for one node's instance set, as
    a stack of one node.

    ``keys`` is the tree's key table: cell (row, j) holds the flat key
    ``bins[row, features[j]] + j * n_bins``, so one ``bincount`` per
    statistic fills every feature at once. ``take`` gathers whole rows,
    so each bin still adds its rows in the order of ``indices``.
    """
    width = len(features)
    node_keys = keys.take(indices, axis=0).ravel()
    size = width * n_bins
    stats = np.concatenate((
        np.bincount(node_keys, weights=np.repeat(g.take(indices), width), minlength=size),
        np.bincount(node_keys, weights=np.repeat(h.take(indices), width), minlength=size),
        np.bincount(node_keys, minlength=size),
    ))
    return NodeHistogram(features, stats.reshape(3, 1, width, n_bins))


def subtract_histogram(parent: NodeHistogram, left: NodeHistogram) -> NodeHistogram:
    """The sibling pair as a stack of two: ``left``, then the right child
    by subtraction from ``parent``, with its empty bins forced to zero.

    Counts subtract exactly, but the float sums keep rounding residue in
    bins whose rows all went left when the parent histogram is itself a
    subtraction result. Left uncleaned, that residue breaks the exact
    gain ties between thresholds that span empty bins, and the tie then
    resolves to an arbitrary bin instead of the lowest one.
    """
    stats = np.concatenate((left.stats, parent.stats - left.stats), axis=1)
    right = stats[:, 1]
    np.copyto(right[:2], 0.0, where=right[2] == 0)
    return NodeHistogram(parent.features, stats)


@np.errstate(all="ignore")  # an overflow is inf or NaN, refused as the docstring says
def find_best_split(
    hist: NodeHistogram,
    config: TreeConfig,
    node_totals: list[tuple[float, float, int]],
) -> list[tuple[int, int, float, tuple[float, float, int]] | None]:
    """Score every (feature, bin) candidate of a stack of nodes at once.

    Returns, per node, None or its best qualifying (feature, threshold,
    gain, left), with ``left`` the left child's (gradient, hessian,
    count) sums, as ``node_totals`` gives each node's. A candidate
    qualifies when its gain strictly exceeds min_split_gain, both
    children hold at least min_data_in_leaf samples, and both child
    hessian sums plus lam stay above the positivity guard. Ties break to
    the lowest feature index, then the lowest bin: each node's row-major
    argmax returns the first maximum. A node whose own objective
    overflows raises NonFiniteEstimate (it could never split); a NaN or
    +inf gain qualifies, and ``grow_tree`` refuses it as a node gain.
    """
    terms = []  # each node's parent objective; NaN for a node that cannot split
    for total_g, total_h, _ in node_totals:
        parent_denom = total_h + config.lam
        if parent_denom <= EPS_HESSIAN:
            terms.append(math.nan)
            continue
        terms.append(np.float64(total_g) ** 2 / parent_denom)
        if not np.isfinite(terms[-1]):
            raise NonFiniteEstimate(
                f"split search overflows: node gradient sum {total_g!r}, "
                f"hessian sum {total_h!r}"
            )

    # The last bin sends every row left; min_data_in_leaf >= 1 masks it.
    sums = hist.stats.cumsum(axis=-1)
    gl, hl, nl = sums
    gr, hr, nr = np.array(node_totals, dtype=np.float64).T[..., None, None] - sums
    dl = hl + config.lam
    dr = hr + config.lam
    ok = (np.minimum(nl, nr) >= config.min_data_in_leaf) & (np.minimum(dl, dr) > EPS_HESSIAN)
    gains = 0.5 * (gl**2 / dl + gr**2 / dr - np.array(terms)[:, None, None])
    gains = np.where(ok, gains, -np.inf).reshape(len(terms), -1)
    found = []
    for node, (term, node_gains) in enumerate(zip(terms, gains)):
        flat = int(node_gains.argmax())
        gain = float(node_gains[flat])
        if math.isnan(term) or gain <= config.min_split_gain:
            found.append(None)
            continue
        row, bin_idx = divmod(flat, sums.shape[-1])
        lg, lh, ln = sums[:, node, row, bin_idx].tolist()
        found.append((int(hist.features[row]), bin_idx, gain, (lg, lh, int(ln))))
    return found


def leaf_stats(g_slice: np.ndarray, h_slice: np.ndarray, lam: float) -> LeafStats:
    """Moments of the ratio of mean gradient to regularized mean hessian.

    Uses Bessel-corrected sample variances and the sample covariance of
    (g, h); with a single sample all three are zero and the leaf is
    deterministic. The moments are float64 scalars, whose ``**`` rounds
    as Python's (an array's does not): one that overflows is inf or NaN,
    never clamped, and ``grow_tree`` refuses it.
    """
    g_slice = np.asarray(g_slice, dtype=np.float64)
    h_slice = np.asarray(h_slice, dtype=np.float64)
    n = g_slice.size
    if n == 0:
        raise EmptyMask("leaf statistics need at least one sample")
    lam_bar = lam / n
    g_bar = g_slice.sum() / n
    h_bar = h_slice.sum() / n
    denom = h_bar + lam_bar
    if denom <= EPS_HESSIAN:
        raise DegenerateHessian(
            f"mean hessian plus lambda/n is {denom}, not positive"
        )
    if n > 1:
        dg = g_slice - g_bar
        dh = h_slice - h_bar
        var_g = (dg * dg).sum() / (n - 1)
        var_h = (dh * dh).sum() / (n - 1)
        cov_gh = (dg * dh).sum() / (n - 1)
    else:
        var_g = var_h = cov_gh = 0.0
    mu = g_bar / denom - cov_gh / denom**2 + g_bar * var_h / denom**3
    var = (
        var_g / denom**2
        + g_bar**2 * var_h / denom**4
        - 2.0 * g_bar * cov_gh / denom**3
    )
    return LeafStats(mu=mu, var=0.0 if var < 0 else var, n=n)


@np.errstate(all="ignore")  # an overflow is inf or NaN, refused below
def grow_tree(
    data: BinnedDataset,
    gh: GradHess,
    sample_mask: np.ndarray,
    config: TreeConfig,
    features: np.ndarray | None = None,
    leaf_ids: np.ndarray | None = None,
) -> Tree:
    """Grow one tree over the masked rows, best-first, up to max_leaves.

    ``sample_mask`` is an array of row indices (a boolean mask is also
    accepted). Splits use only ``features``, sorted distinct feature
    indices (default: all features). Given ``leaf_ids``, a vector with
    one slot per row of ``data``, the grower writes each masked row's
    leaf id into it, the id ``route_many`` gives that row, and leaves
    the other slots as they are. The right child's histogram is
    obtained by subtracting the left child's from the parent's, over a
    key table made once per tree. A node gets a histogram and a split
    search only while the tree has room to split it: the two children of
    the split that reaches max_leaves stay leaves without either, so a
    tree that reaches L >= 2 leaves searches 2L-3 nodes in L-1 calls,
    the root alone and then each split's children as one stack. Regions
    are numbered in creation order, which breaks gain ties and numbers
    the leaves (module docstring). A split gain or leaf moment that
    overflows float64 raises NonFiniteEstimate, without a numpy warning.
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
    keys = np.add(data.bins[:, features], np.arange(len(features)) * n_bins, order="C")

    rows: list[np.ndarray] = []  # each region's row indices, by region number
    heap: list[tuple] = []  # (-gain, region, hist, totals, best)

    def add(group, hist=None, totals=None) -> range:
        """Number the regions of ``group``; given their stacked histogram
        and totals, search them in one call and queue each that can split."""
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

    splits: list[tuple[int, int, int, float, int, int]] = []
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


def _split_rows(
    bins: np.ndarray, rows: np.ndarray | None, feature: int, threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split row indices by the routing rule: a row goes left when its bin
    of ``feature`` is <= ``threshold``. Each half keeps the order of
    ``rows``; None stands for every row of ``bins``."""
    column = bins[:, feature]
    go_left = (column if rows is None else column.take(rows)) <= threshold
    if rows is None:
        return np.flatnonzero(go_left), np.flatnonzero(~go_left)
    return rows.compress(go_left), rows.compress(~go_left)


def route_many(tree: Tree, bins: np.ndarray) -> np.ndarray:
    """Route every row of a binned matrix; returns a vector of leaf ids.

    The rows are partitioned node by node, in id order: a child's id
    follows its parent's (``Tree``), so each node's rows are known when
    it is visited. Each row is compared once per node it passes, and a
    node's row indices are dropped once they are split.
    """
    leaf_ids = np.zeros(bins.shape[0], dtype=np.int64)  # a tree without a split: leaf 0
    # None at the root stands for every row; a parent sets its children's.
    node_rows: list[np.ndarray | None] = [None] * len(tree.nodes)
    for node, (feature, threshold, left, right, _) in enumerate(tree.nodes.tolist()):
        halves = _split_rows(bins, node_rows[node], feature, threshold)
        node_rows[node] = None
        for ref, rows in zip((left, right), halves):
            if ref >= 0:
                node_rows[ref] = rows
            else:
                leaf_ids[rows] = ~ref
    return leaf_ids

"""Training loop and moment prediction for the boosted ensemble.

Training fits one tree per iteration on the gradient and hessian of the
loss at the current point estimates. Only the mean path advances during
training; the per-leaf variances are stored and consumed at prediction
time, where the accumulated moments follow

    mu_k  = mu_{k-1} - alpha * leaf.mu
    var_k = max(0, var_{k-1} + alpha^2 * leaf.var
                   - 2 * alpha * rho * sqrt(var_{k-1}) * sqrt(leaf.var))

with a single constant correlation rho between consecutive trees. Since
rho only enters prediction, it can be retuned after training without
refitting anything: ``predict_moments_by_rho`` routes each tree once and
advances the one mu, which does not depend on rho, and a var per rho,
in place. It holds no per-tree matrix, so sweeping a grid of k rhos
costs about k + 1 vectors of the rows, however many trees there are.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._value import Fresh, Value
from .data import BinEdges, RawDataset, apply_bins, compute_bin_edges
from .errors import (
    FeatureCountMismatch,
    FeatureNameMismatch,
    LengthMismatch,
    NonFiniteEstimate,
    TrainingDiverged,
)
from .loss import GradHess
from .tree import Tree, TreeConfig, grow_tree, route_many

LossProvider = Callable[[np.ndarray, np.ndarray], GradHess]

# Validation metrics see (y, mu, var) so that variance-aware scores such
# as closed-form normal CRPS can drive early stopping; point metrics
# simply ignore the last argument.
ValidMetric = Callable[[np.ndarray, np.ndarray, np.ndarray], float]

# Training stops when a tree leaves the objective this many times above
# the constant model's. A divergence grows geometrically and passes it
# within a few trees. A bagged fit stays far below it, although each
# bag's mean residual shifts the estimates by a constant that keeps the
# objective a little above the constant model's.
_DIVERGENCE_FACTOR = 10.0


def _check_rho(rho: float) -> float:
    """Return ``rho`` if it lies in [-1, 1]; NaN fails the test too."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho {rho} outside [-1, 1]")
    return rho


def _check_features(data: RawDataset, names: list[str], whose: str) -> None:
    """Raise unless ``data``'s features are ``names``, in this order."""
    if data.f != len(names):
        raise FeatureCountMismatch(f"data has {data.f} features, {whose} has {len(names)}")
    for position, (name, expected) in enumerate(zip(data.feature_names, names)):
        if name != expected:
            raise FeatureNameMismatch(f"feature {position} is {name!r}, {whose} has {expected!r}")


class BoostConfig(Value):
    n_estimators: int = 100
    learning_rate: float = 0.1
    bagging_fraction: float = 1.0
    feature_fraction: float = 1.0
    tree: TreeConfig = Fresh(TreeConfig)
    rho: float | str = "auto"
    early_stopping_rounds: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not 0 < self.bagging_fraction <= 1:
            raise ValueError("bagging_fraction must be in (0, 1]")
        if not 0 < self.feature_fraction <= 1:
            raise ValueError("feature_fraction must be in (0, 1]")
        if isinstance(self.rho, str):
            if self.rho != "auto":
                raise ValueError("rho must be a number in [-1, 1] or 'auto'")
        else:
            _check_rho(float(self.rho))
        if self.early_stopping_rounds is not None and self.early_stopping_rounds < 1:
            raise ValueError("early_stopping_rounds must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


class PredictiveMoments(Value):
    """Accumulated per-sample mean and variance of the prediction."""

    mu: np.ndarray
    var: np.ndarray


class Ensemble(Value, frozen=False):
    """A trained model: trees in boosting order plus everything needed
    to bin new data and accumulate moments."""

    trees: list[Tree]
    y0: float
    alpha: float
    rho_default: float
    edges: BinEdges
    config: BoostConfig
    n_train: int
    feature_names: list[str]
    target_name: str | None = None


def default_rho(n_train: int) -> float:
    """Data-size heuristic for the tree correlation: log10(n)/100."""
    if n_train < 1:
        raise ValueError("n_train must be at least 1")
    return math.log10(n_train) / 100.0


# The rhos whose variances advance together through one scratch buffer:
# a block of about this many cells keeps that buffer small, however wide
# the grid.
_RHO_BLOCK_CELLS = 1 << 16


class _Moments:
    """The running state of the moment recursion for ``n`` rows under
    each of ``rhos``: one mu, which does not depend on rho, and a
    (len(rhos), n) var, both advanced in place."""

    def __init__(self, y0: float, alpha: float, rhos: list[float], n: int):
        self.alpha = alpha
        self.mu = np.full(n, y0)
        self.var = np.zeros((len(rhos), n))
        self._cross = (2.0 * alpha) * np.array(rhos, dtype=np.float64).reshape(-1, 1)
        block = min(len(rhos), _RHO_BLOCK_CELLS // max(n, 1))
        self._scratch = np.empty((max(block, 1), n))

    def advance(self, leaf_mu: np.ndarray, leaf_var: np.ndarray) -> None:
        """One tree's step, with per-row leaf moments. Each var rounds as
        ``(var + alpha^2 * leaf_var) - ((2 * alpha * rho) * sqrt(var)) *
        sqrt(leaf_var)``, clamped at zero, since the correlation
        cross-term can push it slightly negative."""
        alpha = self.alpha
        self.mu -= alpha * leaf_mu
        scaled_leaf_var = (alpha * alpha) * leaf_var
        sqrt_leaf_var = np.sqrt(leaf_var)
        step = len(self._scratch)
        for start in range(0, len(self.var), step):
            var = self.var[start : start + step]
            cross = self._scratch[: len(var)]
            np.sqrt(var, out=cross)
            cross *= self._cross[start : start + step]
            cross *= sqrt_leaf_var
            var += scaled_leaf_var
            var -= cross
            np.maximum(var, 0.0, out=var)


def _accumulate(
    y0: float, alpha: float, rhos: list[float], leaf_moments, n: int
) -> list[PredictiveMoments]:
    """Run the recursion over ``leaf_moments``, each tree's (leaf mu, leaf
    var) for every row, under every one of ``rhos``. The moments share one
    mu array. Raises NonFiniteEstimate, and no numpy warning, when they
    overflow float64."""
    rhos = [_check_rho(rho) for rho in rhos]
    state = _Moments(y0, alpha, rhos, n)
    with np.errstate(all="ignore"):  # an overflow is refused below
        for leaf_mu, leaf_var in leaf_moments:
            state.advance(leaf_mu, leaf_var)
    if not (np.isfinite(state.mu).all() and np.isfinite(state.var).all()):
        raise NonFiniteEstimate("the predicted mean or variance overflows float64")
    return [PredictiveMoments(mu=state.mu, var=var) for var in state.var]


@np.errstate(all="ignore")  # an overflow is inf or NaN, refused as the docstring says
def train(
    data: RawDataset,
    loss: LossProvider,
    config: BoostConfig,
    valid: tuple[RawDataset, ValidMetric] | None = None,
    progress: Callable[[int, float | None], None] | None = None,
) -> Ensemble:
    """Fit an ensemble by sequential tree construction.

    ``loss(y, yhat)`` must return the per-sample GradHess at the current
    estimates; gradients are always evaluated on the full training set
    and bagging only restricts which rows the tree is built from. The
    grower hands back the leaf of each row in its bag, so only the
    out-of-bag and validation rows are routed through each tree. When
    ``valid`` is given as (dataset, metric), the metric (lower is
    better) is scored every iteration on the validation moments (arrays
    that the next tree advances in place, so a metric that keeps them
    must copy them), reported through ``progress``, and the returned
    ensemble is truncated at the best iteration;
    ``early_stopping_rounds`` additionally stops scanning after that
    many non-improving rounds.

    When the loss reports its objective, training raises
    TrainingDiverged as soon as a tree leaves the objective above
    ten times the constant model's. A number that overflows float64, in
    the loss and metric too, is inf or NaN without a numpy warning; a
    target mean, tree or estimates that overflow raise NonFiniteEstimate.
    """
    if valid is None and config.early_stopping_rounds is not None:
        raise ValueError("early stopping needs a validation set")

    edges = compute_bin_edges(data, config.tree.max_bins)
    binned = apply_bins(data, edges)
    n = data.n
    y = data.target
    y0 = float(np.mean(y))
    if not math.isfinite(y0):
        raise NonFiniteEstimate(f"the target mean overflows float64 ({y0!r})")
    alpha = config.learning_rate
    rho_default = (
        default_rho(n) if config.rho == "auto" else float(config.rho)
    )

    valid_binned = None
    valid_moments = None
    metric = None
    if valid is not None:
        valid_data, metric = valid
        _check_features(valid_data, data.feature_names, "the training set")
        valid_binned = apply_bins(valid_data, edges)
        valid_moments = _Moments(y0, alpha, [rho_default], valid_data.n)

    mu = np.full(n, y0)
    bag_size = int(np.ceil(config.bagging_fraction * n))
    trees: list[Tree] = []
    best_value = np.inf
    best_iteration = -1

    gh = loss(y, mu)
    objective0 = gh.objective
    for k in range(config.n_estimators):
        if bag_size < n:
            bag_rng = np.random.default_rng([config.seed, k, 0])
            mask = np.sort(bag_rng.choice(n, size=bag_size, replace=False))
        else:
            mask = np.arange(n)
        features = None
        if config.feature_fraction < 1.0:
            feature_rng = np.random.default_rng([config.seed, k, 1])
            n_sub = max(1, int(np.ceil(config.feature_fraction * data.f)))
            features = np.sort(feature_rng.choice(data.f, n_sub, replace=False))
        # The grower places its bag's rows; only the rest are routed.
        leaf_ids = np.full(n, -1, dtype=np.int64)
        tree = grow_tree(binned, gh, mask, config.tree, features, leaf_ids)
        trees.append(tree)
        unplaced = np.flatnonzero(leaf_ids < 0)
        if unplaced.size:
            leaf_ids[unplaced] = route_many(tree, binned.bins[unplaced])

        leaf_mu = tree.leaves["mu"]
        leaf_var = tree.leaves["var"]
        mu = mu - alpha * leaf_mu[leaf_ids]
        if not np.isfinite(mu).all():
            raise NonFiniteEstimate(f"the point estimates overflow float64 at iteration {k}")
        gh = loss(y, mu)
        if objective0 is not None and gh.objective > _DIVERGENCE_FACTOR * objective0:
            raise TrainingDiverged(
                f"training objective {gh.objective:.6g} after tree {k + 1} exceeds "
                f"{_DIVERGENCE_FACTOR:g} times the constant model's "
                f"{objective0:.6g}; lower the learning rate"
            )

        value = None
        if valid_binned is not None:
            valid_ids = route_many(tree, valid_binned.bins)
            valid_moments.advance(leaf_mu[valid_ids], leaf_var[valid_ids])
            value = float(
                metric(valid_binned.target, valid_moments.mu, valid_moments.var[0])
            )
            if value < best_value:
                best_value = value
                best_iteration = k
        if progress is not None:
            progress(k, value)
        if (
            config.early_stopping_rounds is not None
            and k - best_iteration >= config.early_stopping_rounds
        ):
            break

    if valid is not None and best_iteration >= 0:
        trees = trees[: best_iteration + 1]

    return Ensemble(
        trees=trees,
        y0=y0,
        alpha=alpha,
        rho_default=rho_default,
        edges=edges,
        config=config,
        n_train=n,
        feature_names=list(data.feature_names),
        target_name=data.target_name,
    )


def _routed_leaf_moments(model: Ensemble, data: RawDataset):
    """Yield each tree's (leaf mu, leaf var) for every row of ``data``,
    in boosting order, after binning the rows once."""
    _check_features(data, model.feature_names, "the model")
    bins = apply_bins(data, model.edges).bins
    for tree in model.trees:
        leaf_ids = route_many(tree, bins)
        yield tree.leaves["mu"][leaf_ids], tree.leaves["var"][leaf_ids]


def predict_moments(
    model: Ensemble,
    data: RawDataset,
    rho: float | None = None,
) -> PredictiveMoments:
    """Accumulate (mu, var) over all trees for every row of ``data``.

    ``rho`` overrides the stored default, which is how the correlation
    is retuned after training; it must lie in [-1, 1]. Raises
    NonFiniteEstimate when the moments overflow float64.
    """
    return predict_moments_by_rho(model, data, [model.rho_default if rho is None else rho])[0]


def predict_moments_by_rho(
    model: Ensemble, data: RawDataset, rhos: list[float]
) -> list[PredictiveMoments]:
    """``predict_moments`` under each of ``rhos``, bit for bit, in one pass:
    every tree is routed once, and the moments share one mu array. Every
    rho must lie in [-1, 1]."""
    return _accumulate(model.y0, model.alpha, rhos, _routed_leaf_moments(model, data), data.n)


def tree_contributions(
    model: Ensemble, data: RawDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree leaf moments for every row, shaped (n_trees, n_rows).

    ``accumulate_moments`` replays the recursion over them. They hold two
    float64 values per tree and row; to sweep rho, ``predict_moments_by_rho``
    routes each tree once as well and holds none of them.
    """
    contrib_mu = np.empty((len(model.trees), data.n))
    contrib_var = np.empty((len(model.trees), data.n))
    for k, (leaf_mu, leaf_var) in enumerate(_routed_leaf_moments(model, data)):
        contrib_mu[k] = leaf_mu
        contrib_var[k] = leaf_var
    return contrib_mu, contrib_var


def accumulate_moments(
    y0: float,
    alpha: float,
    rho: float,
    contrib_mu: np.ndarray,
    contrib_var: np.ndarray,
) -> PredictiveMoments:
    """Replay the moment recursion over precomputed tree contributions,
    shaped (n_trees, n_rows) as ``tree_contributions`` gives them.

    Raises LengthMismatch unless both are 2-D and of one shape, ValueError
    for a contribution that is not finite, a negative leaf variance or a
    ``rho`` outside [-1, 1], and NonFiniteEstimate when the moments
    overflow float64.
    """
    contrib_mu = np.asarray(contrib_mu, dtype=np.float64)
    contrib_var = np.asarray(contrib_var, dtype=np.float64)
    if contrib_mu.ndim != 2 or contrib_var.shape != contrib_mu.shape:
        raise LengthMismatch(
            f"contributions must be (n_trees, n_rows) arrays of one shape, got "
            f"{contrib_mu.shape} and {contrib_var.shape}"
        )
    if not (np.isfinite(contrib_mu).all() and np.isfinite(contrib_var).all()):
        raise ValueError("contributions must be finite")
    if (contrib_var < 0).any():
        raise ValueError("leaf variances must be nonnegative")
    pairs = zip(contrib_mu, contrib_var)
    return _accumulate(y0, alpha, [rho], pairs, contrib_mu.shape[1])[0]

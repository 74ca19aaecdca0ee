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
refitting anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import BinEdges, RawDataset, apply_bins, compute_bin_edges
from .errors import FeatureCountMismatch, NonFiniteEstimate, TrainingDiverged
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


@dataclass(frozen=True)
class BoostConfig:
    n_estimators: int = 100
    learning_rate: float = 0.1
    bagging_fraction: float = 1.0
    feature_fraction: float = 1.0
    tree: TreeConfig = field(default_factory=TreeConfig)
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


@dataclass(frozen=True)
class PredictiveMoments:
    """Accumulated per-sample mean and variance of the prediction."""

    mu: np.ndarray
    var: np.ndarray


@dataclass
class Ensemble:
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


def _update_vectors(mu, var, alpha, rho, leaf_mu, leaf_var):
    """One step of the moment recursion with per-sample leaf moments.

    The variance is clamped at zero after the correlation cross-term,
    which can push it slightly negative.
    """
    new_mu = mu - alpha * leaf_mu
    new_var = var + alpha * alpha * leaf_var - 2.0 * alpha * rho * np.sqrt(
        var
    ) * np.sqrt(leaf_var)
    np.maximum(new_var, 0.0, out=new_var)
    return new_mu, new_var


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
    better) is scored every iteration on the validation moments,
    reported through ``progress``, and the returned ensemble is
    truncated at the best iteration; ``early_stopping_rounds``
    additionally stops scanning after that many non-improving rounds.

    When the loss reports its objective, training raises
    TrainingDiverged as soon as a tree leaves the objective above
    ten times the constant model's.
    """
    if valid is None and config.early_stopping_rounds is not None:
        raise ValueError("early stopping needs a validation set")

    edges = compute_bin_edges(data, config.tree.max_bins)
    binned = apply_bins(data, edges)
    n = data.n
    y = data.target
    y0 = float(np.mean(y))
    alpha = config.learning_rate
    rho_default = (
        default_rho(n) if config.rho == "auto" else float(config.rho)
    )

    valid_binned = None
    valid_mu = None
    valid_var = None
    metric = None
    if valid is not None:
        valid_data, metric = valid
        if valid_data.f != data.f:
            raise FeatureCountMismatch(
                f"validation data has {valid_data.f} features, train has {data.f}"
            )
        valid_binned = apply_bins(valid_data, edges)
        valid_mu = np.full(valid_data.n, y0)
        valid_var = np.zeros(valid_data.n)

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
        if not np.all(np.isfinite(mu)):
            raise NonFiniteEstimate(
                f"point estimates became non-finite at iteration {k}"
            )
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
            valid_mu, valid_var = _update_vectors(
                valid_mu,
                valid_var,
                alpha,
                rho_default,
                leaf_mu[valid_ids],
                leaf_var[valid_ids],
            )
            value = float(metric(valid_binned.target, valid_mu, valid_var))
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
    if data.f != len(model.feature_names):
        raise FeatureCountMismatch(
            f"data has {data.f} features, model expects {len(model.feature_names)}"
        )
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
    is swept after training; it must lie in [-1, 1].
    """
    if rho is None:
        rho = model.rho_default
    _check_rho(rho)
    mu = np.full(data.n, model.y0)
    var = np.zeros(data.n)
    for leaf_mu, leaf_var in _routed_leaf_moments(model, data):
        mu, var = _update_vectors(mu, var, model.alpha, rho, leaf_mu, leaf_var)
    return PredictiveMoments(mu=mu, var=var)


def tree_contributions(
    model: Ensemble, data: RawDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree leaf moments for every row, shaped (n_trees, n_rows).

    Routing is the expensive part of prediction and is independent of
    rho, so sweeping rho should route once through this function and
    replay the recursion per value with ``accumulate_moments``.
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
    """Replay the moment recursion over precomputed tree contributions;
    ``rho`` must lie in [-1, 1]."""
    _check_rho(rho)
    n = contrib_mu.shape[1] if contrib_mu.ndim == 2 else 0
    mu = np.full(n, y0)
    var = np.zeros(n)
    for k in range(contrib_mu.shape[0]):
        mu, var = _update_vectors(mu, var, alpha, rho, contrib_mu[k], contrib_var[k])
    return PredictiveMoments(mu=mu, var=var)

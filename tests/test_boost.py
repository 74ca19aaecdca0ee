"""Boosting loop, moment accumulation, validation-based truncation."""

from __future__ import annotations

import numpy as np
import pytest

import pgbm.boost
from pgbm import (
    BoostConfig,
    Ensemble,
    GradHess,
    RawDataset,
    Tree,
    TreeConfig,
    accumulate_moments,
    crps_normal,
    default_rho,
    mse_gradhess,
    predict_moments,
    predict_moments_by_rho,
    rmse,
    train,
    tree_contributions,
)
from pgbm.errors import (
    FeatureCountMismatch,
    FeatureNameMismatch,
    LengthMismatch,
    NonFiniteEstimate,
    TrainingDiverged,
)

from conftest import make_regression


def rmse_metric(y, mu, var):
    return rmse(y, mu)


def small_config(**kwargs):
    defaults = dict(
        n_estimators=40,
        learning_rate=0.1,
        tree=TreeConfig(max_leaves=8, max_bins=32, lam=1.0),
        seed=0,
    )
    defaults.update(kwargs)
    return BoostConfig(**defaults)


class TestBoostConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.1])
    def test_learning_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="learning_rate"):
            BoostConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.5, -2.0])
    def test_rho_must_be_in_unit_interval(self, value):
        with pytest.raises(ValueError, match="rho"):
            BoostConfig(rho=value)

    def test_seed_must_be_nonnegative(self):
        assert BoostConfig(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            BoostConfig(seed=-1)


class TestDefaultRho:
    def test_values(self):
        assert default_rho(100) == pytest.approx(0.02)
        assert default_rho(1) == 0.0
        assert default_rho(10**6) == pytest.approx(0.06)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            default_rho(0)


class TestUpdateMoments:
    """One step of the moment recursion, replayed by ``accumulate_moments``.

    A first tree with leaf mean 0 and leaf variance ``prior_var`` leaves
    every row at (Y0, alpha^2 * prior_var); the second tree, with leaf
    (3, 2), is the step under test.
    """

    Y0 = 10.0

    def step(self, alpha, rho, prior_var=400.0):
        contrib_mu = np.array([[0.0], [3.0]])
        contrib_var = np.array([[prior_var], [2.0]])
        before = accumulate_moments(
            self.Y0, alpha, rho, contrib_mu[:1], contrib_var[:1]
        )
        after = accumulate_moments(self.Y0, alpha, rho, contrib_mu, contrib_var)
        return before, after

    def test_worked_example(self):
        before, after = self.step(0.1, 0.05)
        var_prev = before.var[0]
        assert before.mu[0] == self.Y0
        assert var_prev == pytest.approx(4.0, rel=1e-15)
        assert after.mu[0] == pytest.approx(10.0 - 0.1 * 3.0, rel=1e-15)
        cross = 2.0 * 0.1 * 0.05 * np.sqrt(var_prev) * np.sqrt(2.0)
        expected = var_prev + 0.1**2 * 2.0 - cross
        assert after.var[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_learning_rate_is_identity(self):
        before, after = self.step(0.0, 0.05)
        assert (before.mu[0], before.var[0]) == (self.Y0, 0.0)
        assert (after.mu[0], after.var[0]) == (self.Y0, 0.0)

    def test_zero_rho_drops_cross_term(self):
        before, after = self.step(0.1, 0.0)
        assert after.mu[0] == pytest.approx(9.7)
        assert after.var[0] == pytest.approx(before.var[0] + 0.01 * 2.0, rel=1e-15)

    def test_negative_rho_inflates_variance(self):
        _, neg = self.step(0.1, -0.05)
        _, pos = self.step(0.1, 0.05)
        _, zero = self.step(0.1, 0.0)
        assert neg.var[0] > zero.var[0] > pos.var[0]

    def test_array_inputs(self):
        # One tree over two rows, each starting from (0, 0).
        pm = accumulate_moments(
            0.0, 0.1, 0.05, np.array([[3.0, -1.0]]), np.array([[2.0, 0.5]])
        )
        assert pm.mu.shape == (2,)
        assert pm.var.shape == (2,)
        np.testing.assert_allclose(pm.mu, [-0.3, 0.1])
        np.testing.assert_allclose(pm.var, [0.01 * 2.0, 0.01 * 0.5])

    def test_variance_never_negative_property(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            alpha = float(rng.uniform(0.001, 1.0))
            rho = float(rng.uniform(-1.0, 1.0))
            prior_var = float(rng.uniform(0, 5)) / alpha**2
            _, after = self.step(alpha, rho, prior_var)
            assert after.var[0] >= 0.0

    @pytest.mark.parametrize("rho", [5.0, -1.5, float("nan"), float("inf")])
    def test_rho_outside_unit_interval_raises(self, rho):
        with pytest.raises(ValueError, match="outside"):
            accumulate_moments(0.0, 0.1, rho, np.zeros((1, 2)), np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "contrib_mu,contrib_var",
        [
            (np.zeros(3), np.zeros(3)),  # one row of contributions, not 2-D
            (np.zeros((2, 3)), np.zeros((2, 1))),  # would broadcast
            (np.zeros((2, 3)), np.zeros((3, 3))),  # tree counts differ
            (np.zeros((2, 3, 1)), np.zeros((2, 3, 1))),
        ],
        ids=["one_dimensional", "broadcast_var", "tree_counts", "three_dimensional"],
    )
    def test_malformed_shapes_raise(self, contrib_mu, contrib_var):
        with pytest.raises(LengthMismatch, match="of one shape"):
            accumulate_moments(0.0, 0.1, 0.0, contrib_mu, contrib_var)

    @pytest.mark.parametrize(
        "leaf_mu,leaf_var,message",
        [
            (0.0, -1e-300, "nonnegative"),
            (0.0, float("nan"), "finite"),
            (float("inf"), 1.0, "finite"),
            (float("nan"), 1.0, "finite"),
        ],
    )
    def test_bad_values_raise(self, leaf_mu, leaf_var, message):
        contrib_mu = np.array([[0.0, 0.0], [leaf_mu, 0.0]])
        contrib_var = np.array([[1.0, 1.0], [leaf_var, 1.0]])
        with pytest.raises(ValueError, match=message):
            accumulate_moments(0.0, 0.1, 0.5, contrib_mu, contrib_var)

    def test_overflow_raises_without_a_warning(self):
        # Each leaf is finite; their sum is not. Warnings fail the suite.
        with pytest.raises(NonFiniteEstimate, match="overflows float64"):
            accumulate_moments(0.0, 1.0, 0.5, np.full((2, 3), 1e308), np.ones((2, 3)))
        with pytest.raises(NonFiniteEstimate, match="overflows float64"):
            accumulate_moments(0.0, 1.0, -1.0, np.zeros((2, 3)), np.full((2, 3), 1e308))


class TestTrain:
    def test_constant_target(self):
        data = RawDataset(
            np.arange(20, dtype=float)[:, None], np.full(20, 7.0), ["x"]
        )
        model = train(data, mse_gradhess, small_config(n_estimators=5))
        pm = predict_moments(model, data)
        np.testing.assert_allclose(pm.mu, np.full(20, 7.0))
        np.testing.assert_allclose(pm.var, np.zeros(20))

    def test_training_reduces_rmse(self):
        data = make_regression(9, 400, 2)
        model = train(data, mse_gradhess, small_config())
        pm = predict_moments(model, data)
        baseline = rmse(data.target, np.full(data.n, data.target.mean()))
        fitted = rmse(data.target, pm.mu)
        assert fitted < 0.5 * baseline

    def test_loss_curve_monotone_in_iterations(self):
        data = make_regression(10, 300, 2)
        model = train(data, mse_gradhess, small_config(n_estimators=60))
        contrib_mu, _ = tree_contributions(model, data)
        path = model.y0 - model.alpha * np.cumsum(contrib_mu, axis=0)
        errors = [rmse(data.target, path[k]) for k in (4, 19, 59)]
        assert errors[0] > errors[1] > errors[2]

    def test_rho_resolution(self):
        data = make_regression(12, 100, 2)
        auto = train(data, mse_gradhess, small_config(n_estimators=2, rho="auto"))
        fixed = train(data, mse_gradhess, small_config(n_estimators=2, rho=0.3))
        assert auto.rho_default == pytest.approx(default_rho(100))
        assert fixed.rho_default == 0.3

    def test_early_stopping_needs_validation(self):
        data = make_regression(13, 50, 1)
        with pytest.raises(ValueError):
            train(
                data,
                mse_gradhess,
                small_config(early_stopping_rounds=3),
            )

    def test_validation_feature_mismatch(self):
        data = make_regression(14, 50, 2)
        other = make_regression(14, 50, 3)
        with pytest.raises(FeatureCountMismatch):
            train(data, mse_gradhess, small_config(), valid=(other, rmse_metric))

    def test_validation_features_are_checked_by_name(self):
        data = make_regression(14, 50, 3)
        swapped = RawDataset(data.features[:, [0, 2, 1]], data.target, ["x0", "x2", "x1"])
        message = "feature 1 is 'x2', the training set has 'x1'"
        with pytest.raises(FeatureNameMismatch, match=message):
            train(data, mse_gradhess, small_config(), valid=(swapped, rmse_metric))

    def test_non_finite_estimates_raise(self):
        data = make_regression(15, 30, 1)

        def exploding(y, yhat):
            return GradHess(np.full(y.size, np.inf), np.full(y.size, 2.0))

        with pytest.raises(NonFiniteEstimate):
            train(data, exploding, small_config(n_estimators=2))

    @pytest.mark.parametrize(
        "targets", [[1.7e308] * 3, [-1.7e308] * 3, [1.7e308, 1.7e308, -1.7e308, -1.7e308]]
    )
    def test_an_overflowing_target_mean_is_named(self, targets):
        # Each target is finite; their sum is not, before any tree is grown.
        data = RawDataset(np.arange(len(targets), dtype=float)[:, None], np.array(targets), ["x"])
        message = r"^the target mean overflows float64 \((-?inf|nan)\)$"
        with pytest.raises(NonFiniteEstimate, match=message):
            train(data, mse_gradhess, small_config(n_estimators=2))

    def test_rising_objective_raises(self):
        data = make_regression(17, 60, 1)

        def ascending(y, yhat):
            gh = mse_gradhess(y, yhat)
            return GradHess(-gh.g, gh.h, gh.objective)

        with pytest.raises(TrainingDiverged, match="exceeds 10 times the constant"):
            train(data, ascending, small_config(n_estimators=100))

    def test_last_tree_is_checked(self):
        data = make_regression(17, 60, 1)

        def overshooting(y, yhat):
            gh = mse_gradhess(y, yhat)
            return GradHess(gh.g, gh.h / 100.0, gh.objective)

        with pytest.raises(TrainingDiverged, match="after tree 1 exceeds"):
            train(data, overshooting, small_config(n_estimators=1, learning_rate=1.0))

    @pytest.mark.parametrize("fraction,rate", [(0.8, 0.1), (0.05, 1.0)])
    def test_bagged_trees_without_splits_train(self, fraction, rate):
        # Each tree fits its bag's mean residual, so every estimate moves
        # by a constant and the objective stays above the constant model's.
        data = make_regression(18, 200, 3)
        config = small_config(
            bagging_fraction=fraction, learning_rate=rate, tree=TreeConfig(max_leaves=1)
        )
        model = train(data, mse_gradhess, config)
        assert len(model.trees) == 40

    def test_loss_without_objective_is_not_guarded(self):
        data = make_regression(17, 60, 1)

        def ascending(y, yhat):
            return GradHess(2.0 * (y - yhat), np.full(y.size, 2.0))

        model = train(data, ascending, small_config(n_estimators=3))
        assert len(model.trees) == 3

    def test_truncates_to_best_validation_iteration(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-2, 2, size=(80, 1))
        y = np.sin(2 * x[:, 0]) + 0.6 * rng.normal(size=80)
        xv = rng.uniform(-2, 2, size=(200, 1))
        yv = np.sin(2 * xv[:, 0]) + 0.6 * rng.normal(size=200)
        data = RawDataset(x, y, ["x"])
        valid = RawDataset(xv, yv, ["x"])
        values = []
        model = train(
            data,
            mse_gradhess,
            small_config(
                n_estimators=300, tree=TreeConfig(max_leaves=16, lam=0.1)
            ),
            valid=(valid, rmse_metric),
            progress=lambda k, v: values.append(v),
        )
        best = int(np.argmin(values))
        assert len(model.trees) == best + 1
        assert len(model.trees) < 300

    def test_early_stopping_halts_scan(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-2, 2, size=(80, 1))
        y = np.sin(2 * x[:, 0]) + 0.6 * rng.normal(size=80)
        xv = rng.uniform(-2, 2, size=(200, 1))
        yv = np.sin(2 * xv[:, 0]) + 0.6 * rng.normal(size=200)
        data = RawDataset(x, y, ["x"])
        valid = RawDataset(xv, yv, ["x"])
        seen = []
        model = train(
            data,
            mse_gradhess,
            small_config(
                n_estimators=500,
                early_stopping_rounds=10,
                tree=TreeConfig(max_leaves=16, lam=0.1),
            ),
            valid=(valid, rmse_metric),
            progress=lambda k, v: seen.append((k, v)),
        )
        scanned = len(seen)
        assert scanned < 500
        best = int(np.argmin([v for _, v in seen]))
        assert scanned - 1 - best >= 10
        assert len(model.trees) == best + 1

    def test_validation_variance_matches_predict(self):
        data = make_regression(18, 200, 2)
        valid = make_regression(19, 100, 2)
        values = []

        def crps_metric(y, mu, var):
            return float(np.mean(crps_normal(y, mu, var)))

        model = train(
            data,
            mse_gradhess,
            small_config(n_estimators=25, rho=0.3),
            valid=(valid, crps_metric),
            progress=lambda k, v: values.append(v),
        )
        pm = predict_moments(model, valid)
        assert values[len(model.trees) - 1] == crps_metric(valid.target, pm.mu, pm.var)

    def test_validation_path_matches_predict(self):
        data = make_regression(18, 200, 2)
        valid = make_regression(19, 100, 2)
        values = []
        model = train(
            data,
            mse_gradhess,
            small_config(n_estimators=25),
            valid=(valid, rmse_metric),
            progress=lambda k, v: values.append(v),
        )
        pm = predict_moments(model, valid)
        replayed = rmse(valid.target, pm.mu)
        assert values[len(model.trees) - 1] == replayed


class TestPredict:
    def setup_method(self):
        self.data = make_regression(20, 250, 3)
        self.model = train(self.data, mse_gradhess, small_config())

    def test_feature_count_mismatch(self):
        bad = make_regression(21, 10, 2)
        with pytest.raises(FeatureCountMismatch):
            predict_moments(self.model, bad)

    @pytest.mark.parametrize("call", [predict_moments, tree_contributions])
    def test_features_are_checked_by_name(self, call):
        swapped = RawDataset(self.data.features[:, ::-1], self.data.target, ["x2", "x1", "x0"])
        with pytest.raises(FeatureNameMismatch, match="feature 0 is 'x2', the model has 'x0'"):
            call(self.model, swapped)
        renamed = RawDataset(self.data.features, self.data.target, ["x0", "x1", "z"])
        with pytest.raises(FeatureNameMismatch, match="feature 2 is 'z', the model has 'x2'"):
            call(self.model, renamed)

    def test_variance_nonnegative(self):
        pm = predict_moments(self.model, self.data)
        assert np.all(pm.var >= 0.0)

    def test_rho_zero_telescopes(self):
        pm = predict_moments(self.model, self.data, rho=0.0)
        _, contrib_var = tree_contributions(self.model, self.data)
        expected = self.model.alpha**2 * contrib_var.sum(axis=0)
        np.testing.assert_allclose(pm.var, expected, rtol=1e-12)

    def test_variance_nonincreasing_in_rho(self):
        grid = [0.0, 0.02, 0.05, 0.1, 0.5]
        variances = [
            predict_moments(self.model, self.data, rho=r).var for r in grid
        ]
        for lower, higher in zip(variances[1:], variances[:-1]):
            assert np.all(lower <= higher + 1e-12)

    def test_mu_independent_of_rho(self):
        a = predict_moments(self.model, self.data, rho=0.0)
        b = predict_moments(self.model, self.data, rho=0.08)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_default_rho_is_stored_rho(self):
        a = predict_moments(self.model, self.data)
        b = predict_moments(self.model, self.data, rho=self.model.rho_default)
        np.testing.assert_array_equal(a.var, b.var)

    def test_contributions_replay_bit_exact(self):
        contrib_mu, contrib_var = tree_contributions(self.model, self.data)
        assert contrib_mu.shape == (len(self.model.trees), self.data.n)
        for rho in (0.0, 0.03, 0.08):
            direct = predict_moments(self.model, self.data, rho=rho)
            replay = accumulate_moments(
                self.model.y0, self.model.alpha, rho, contrib_mu, contrib_var
            )
            np.testing.assert_array_equal(direct.mu, replay.mu)
            np.testing.assert_array_equal(direct.var, replay.var)

    @pytest.mark.parametrize("rho", [2.0, -1.5, float("nan"), float("inf")])
    def test_rho_outside_unit_interval_raises(self, rho):
        with pytest.raises(ValueError, match="outside"):
            predict_moments(self.model, self.data, rho=rho)

    def test_empty_ensemble_predicts_prior(self):
        empty = Ensemble(
            trees=[],
            y0=self.model.y0,
            alpha=self.model.alpha,
            rho_default=self.model.rho_default,
            edges=self.model.edges,
            config=self.model.config,
            n_train=self.model.n_train,
            feature_names=self.model.feature_names,
        )
        pm = predict_moments(empty, self.data)
        np.testing.assert_array_equal(pm.mu, np.full(self.data.n, self.model.y0))
        np.testing.assert_array_equal(pm.var, np.zeros(self.data.n))


def replay_per_rho(model, data, rho):
    """The moment recursion written out once per rho, each step a new
    array, over ``tree_contributions``: the rounding predictions keep."""
    contrib_mu, contrib_var = tree_contributions(model, data)
    alpha = model.alpha
    mu = np.full(data.n, model.y0)
    var = np.zeros(data.n)
    for leaf_mu, leaf_var in zip(contrib_mu, contrib_var):
        mu = mu - alpha * leaf_mu
        var = var + alpha * alpha * leaf_var - 2.0 * alpha * rho * np.sqrt(var) * np.sqrt(leaf_var)
        var = np.maximum(var, 0.0)
    return mu, var


class TestPredictByRho:
    RHOS = [-1.0, 0.0, 0.05, 1.0]

    def setup_method(self):
        self.data = make_regression(25, 300, 3)
        config = small_config(n_estimators=30, bagging_fraction=0.7, feature_fraction=0.7)
        self.model = train(self.data, mse_gradhess, config)

    def assert_per_rho(self, grid, rhos):
        contributions = tree_contributions(self.model, self.data)
        assert len(grid) == len(rhos)
        for moments, rho in zip(grid, rhos):
            alone = predict_moments(self.model, self.data, rho=rho)
            replayed = accumulate_moments(self.model.y0, self.model.alpha, rho, *contributions)
            written_out = replay_per_rho(self.model, self.data, rho)
            for mu, var in [(alone.mu, alone.var), (replayed.mu, replayed.var), written_out]:
                assert np.array_equal(moments.mu, mu)
                assert np.array_equal(moments.var, var)

    def test_bit_equal_to_each_rho_alone(self):
        grid = predict_moments_by_rho(self.model, self.data, self.RHOS)
        self.assert_per_rho(grid, self.RHOS)
        assert len({id(moments.mu) for moments in grid}) == 1
        assert not np.array_equal(grid[0].var, grid[-1].var)

    def test_a_grid_longer_than_one_block(self, monkeypatch):
        # Blocks of two rhos: the grid of five takes three, the last short.
        monkeypatch.setattr(pgbm.boost, "_RHO_BLOCK_CELLS", 2 * self.data.n + 1)
        rhos = [0.3, *self.RHOS]
        self.assert_per_rho(predict_moments_by_rho(self.model, self.data, rhos), rhos)

    def test_an_empty_grid(self):
        assert predict_moments_by_rho(self.model, self.data, []) == []

    @pytest.mark.parametrize("rho", [1.5, float("nan")])
    def test_every_rho_is_checked(self, rho):
        with pytest.raises(ValueError, match="outside"):
            predict_moments_by_rho(self.model, self.data, [0.0, rho])

    def test_an_overflowing_model_raises(self):
        trees = []
        for tree in self.model.trees:
            leaves = tree.leaves.copy()
            leaves["mu"] = 1e308
            trees.append(Tree(tree.nodes, leaves))
        model = Ensemble(**{**vars(self.model), "trees": trees})
        with pytest.raises(NonFiniteEstimate, match="overflows float64"):
            predict_moments_by_rho(model, self.data, self.RHOS)


class TestSubsampling:
    def test_bagging_changes_trees_but_stays_deterministic(self):
        data = make_regression(22, 200, 3)
        cfg = small_config(bagging_fraction=0.7, n_estimators=10)
        a = train(data, mse_gradhess, cfg)
        b = train(data, mse_gradhess, cfg)
        full = train(data, mse_gradhess, small_config(n_estimators=10))
        pa = predict_moments(a, data)
        pb = predict_moments(b, data)
        pf = predict_moments(full, data)
        np.testing.assert_array_equal(pa.mu, pb.mu)
        assert not np.array_equal(pa.mu, pf.mu)

    def test_seed_changes_bagged_run(self):
        data = make_regression(23, 200, 3)
        a = train(
            data, mse_gradhess, small_config(bagging_fraction=0.6, seed=1)
        )
        b = train(
            data, mse_gradhess, small_config(bagging_fraction=0.6, seed=2)
        )
        pa = predict_moments(a, data)
        pb = predict_moments(b, data)
        assert not np.array_equal(pa.mu, pb.mu)

    def test_feature_fraction_subsets_features(self):
        data = make_regression(24, 300, 5)
        model = train(
            data,
            mse_gradhess,
            small_config(feature_fraction=0.4, n_estimators=6),
        )
        per_tree_features = [
            set(tree.nodes["feature"].tolist()) for tree in model.trees
        ]
        for used in per_tree_features:
            assert len(used) <= 2
        assert len(set().union(*per_tree_features)) > 2


class TestTrainRouting:
    """The grower places its bag's rows, so train routes only the rest."""

    def routed_rows(self, monkeypatch, config, valid=None):
        """Train on 200 rows and return the model and the row count of each
        ``route_many`` call, grouped by tree. The training estimates must
        equal the model's predictions, bit for bit."""
        data = make_regression(25, 200, 3)
        per_tree, estimates = [], []
        grow, route = pgbm.boost.grow_tree, pgbm.boost.route_many

        def counting_grow(*args):
            per_tree.append([])
            return grow(*args)

        def counting_route(tree, bins):
            per_tree[-1].append(bins.shape[0])
            return route(tree, bins)

        def loss(y, yhat):
            estimates.append(yhat)
            return mse_gradhess(y, yhat)

        monkeypatch.setattr(pgbm.boost, "grow_tree", counting_grow)
        monkeypatch.setattr(pgbm.boost, "route_many", counting_route)
        model = train(data, loss, config, valid=valid)
        monkeypatch.undo()
        # estimates[k] is the training estimate after k trees.
        kept = estimates[len(model.trees)]
        np.testing.assert_array_equal(kept, predict_moments(model, data).mu)
        return model, per_tree

    def test_without_bagging_no_row_is_routed(self, monkeypatch):
        _, per_tree = self.routed_rows(monkeypatch, small_config(n_estimators=6))
        assert per_tree == [[]] * 6

    def test_bagging_routes_the_out_of_bag_rows(self, monkeypatch):
        config = small_config(n_estimators=6, bagging_fraction=0.8, feature_fraction=0.7)
        _, per_tree = self.routed_rows(monkeypatch, config)
        assert per_tree == [[200 - 160]] * 6

    @pytest.mark.parametrize("fraction, out_of_bag", [(1.0, []), (0.8, [40])])
    def test_validation_rows_are_routed_too(self, monkeypatch, fraction, out_of_bag):
        valid = make_regression(26, 70, 3)
        config = small_config(n_estimators=6, bagging_fraction=fraction)
        model, per_tree = self.routed_rows(monkeypatch, config, (valid, rmse_metric))
        assert per_tree == [out_of_bag + [70]] * 6

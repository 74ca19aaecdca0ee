"""Acceptance criteria for the probabilistic boosting engine.

Each test is one pass/fail line of the acceptance checklist:

1. leaf moment formulas track a bootstrap oracle on synthetic leaves,
2. with constant hessians the engine reproduces an independently written
   classic GBM to 1e-9,
3. hierarchical analytic gradients match finite differences,
4. moment matching round-trips analytically and empirically,
5. the predicted scale recovers heteroscedastic noise and beats a
   constant-variance baseline on CRPS,
6. red-wine benchmark lands in the published RMSE/CRPS bands,
7. the CRPS-vs-correlation curve has an interior optimum,
8. hierarchy-weighted training improves the total aggregation level,
9. the CLI is byte-deterministic across runs and thread counts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from pgbm import (
    BoostConfig,
    DistSpec,
    HierarchyLevel,
    HierarchySpec,
    PredictiveMoments,
    RawDataset,
    TreeConfig,
    accumulate_moments,
    crps_empirical_rows,
    crps_normal,
    hier_wmse_gradhess,
    hier_wmse_loss,
    hierarchical_report,
    leaf_stats,
    match_params,
    mse_gradhess,
    predict_moments,
    rmse,
    sample,
    train,
    tree_contributions,
)
from pgbm.dist import FAMILIES

from conftest import make_regression
from reference_impl import reference_fit_predict
from test_dist import CONTINUOUS, analytic_moments


def test_criterion_1_leaf_moments_track_bootstrap_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    lam = 1.0
    sizes = (10, 100, 1000)
    mu_errors = []
    var_errors = []
    for i in range(1000):
        n = sizes[i % 3]
        z = rng.normal(size=n)
        g = 3.0 + 1.0 * z + 0.5 * rng.normal(size=n)
        h = np.maximum(2.0 + 0.3 * z + 0.2 * rng.normal(size=n), 0.05)
        stats = leaf_stats(g, h, lam)
        lam_bar = lam / n
        draws = rng.integers(0, n, size=10_000)
        ratios = g[draws] / (h[draws] + lam_bar)
        boot_mu = float(ratios.mean())
        boot_var = float(ratios.var())
        mu_errors.append(abs(stats.mu - boot_mu) / abs(boot_mu))
        var_errors.append(abs(stats.var - boot_var) / boot_var)
    assert float(np.median(mu_errors)) < 0.05
    assert float(np.median(var_errors)) < 0.15
    assert time.monotonic() - start < 60.0


def test_criterion_2_classic_mode_matches_reference_impl():
    cases = [
        (
            201,
            120,
            2,
            BoostConfig(
                n_estimators=25,
                learning_rate=0.1,
                tree=TreeConfig(max_leaves=8, max_bins=16, lam=1.0),
            ),
        ),
        (
            202,
            60,
            1,
            BoostConfig(
                n_estimators=40,
                learning_rate=0.3,
                tree=TreeConfig(max_leaves=4, max_bins=8, lam=0.0),
            ),
        ),
        (
            203,
            500,
            5,
            BoostConfig(
                n_estimators=20,
                learning_rate=0.05,
                tree=TreeConfig(
                    max_leaves=16, max_bins=32, lam=2.5, min_data_in_leaf=5
                ),
            ),
        ),
        (
            204,
            200,
            3,
            BoostConfig(
                n_estimators=30,
                learning_rate=0.1,
                bagging_fraction=0.7,
                feature_fraction=0.5,
                seed=11,
                tree=TreeConfig(max_leaves=8, max_bins=16, lam=1.0),
            ),
        ),
        (
            205,
            150,
            2,
            BoostConfig(
                n_estimators=25,
                learning_rate=0.2,
                tree=TreeConfig(
                    max_leaves=12, max_bins=64, lam=0.5, min_split_gain=0.01
                ),
            ),
        ),
    ]
    for seed, n, f, config in cases:
        data = make_regression(seed, n, f)
        holdout = make_regression(seed + 1000, 50, f)
        model = train(data, mse_gradhess, config)
        lib_train = predict_moments(model, data).mu
        lib_test = predict_moments(model, holdout).mu
        ref_train, ref_test = reference_fit_predict(data, holdout.features, config)
        np.testing.assert_allclose(lib_train, ref_train, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(lib_test, ref_test, rtol=1e-9, atol=1e-9)


def test_criterion_3_hierarchical_gradients_match_finite_differences():
    rng = np.random.default_rng(301)
    for _ in range(5):
        n = int(rng.integers(20, 51))
        cuts = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
        groups = {}
        lo = 0
        for gi, hi in enumerate([*cuts, n]):
            groups[f"g{gi}"] = np.arange(lo, hi)
            lo = hi
        weights = rng.uniform(0.1, 1.0, size=3)
        spec = HierarchySpec(
            [
                HierarchyLevel(weight=float(weights[0]), identity=True),
                HierarchyLevel(weight=float(weights[1]), groups=groups),
                HierarchyLevel(
                    weight=float(weights[2]), groups={"all": np.arange(n)}
                ),
            ]
        )
        y = 2.0 * rng.normal(size=n)
        yhat = 2.0 * rng.normal(size=n)
        gh = hier_wmse_gradhess(y, yhat, spec)
        mid = hier_wmse_loss(y, yhat, spec)
        g_fd = np.empty(n)
        h_fd = np.empty(n)
        for i in range(n):
            delta = 1e-5 * max(1.0, abs(yhat[i]))
            bump = np.zeros(n)
            bump[i] = delta
            up = hier_wmse_loss(y, yhat + bump, spec)
            down = hier_wmse_loss(y, yhat - bump, spec)
            g_fd[i] = (up - down) / (2.0 * delta)
            # The second difference divides by delta squared, so it needs
            # a wider step than the gradient to stay above the rounding
            # noise of the full loss sum.
            delta_h = 1e-3 * max(1.0, abs(yhat[i]))
            bump[i] = delta_h
            up_h = hier_wmse_loss(y, yhat + bump, spec)
            down_h = hier_wmse_loss(y, yhat - bump, spec)
            h_fd[i] = (up_h - 2.0 * mid + down_h) / (delta_h * delta_h)
        np.testing.assert_allclose(gh.g, g_fd, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(gh.h, h_fd, rtol=1e-3, atol=1e-4)


def test_criterion_4_moment_matching_round_trips():
    # Analytic: matched parameters reproduce (mu, var) in closed form.
    for family in CONTINUOUS:
        params = match_params(family, 2.0, 0.5)
        mean_back, var_back = analytic_moments(family, params)
        assert mean_back == pytest.approx(2.0, rel=1e-9)
        assert var_back == pytest.approx(0.5, rel=1e-9)
    params = match_params("negativebinomial", 2.0, 4.0)
    mean_back, var_back = analytic_moments("negativebinomial", params)
    assert mean_back == pytest.approx(2.0, rel=1e-9)
    assert var_back == pytest.approx(4.0, rel=1e-9)
    # Poisson is mean-only: its variance is pinned to mu by the family.
    params = match_params("poisson", 2.0, 0.5)
    assert analytic_moments("poisson", params) == (2.0, 2.0)

    # Empirical: 1e5 draws per family land within 3.5 standard errors.
    from pgbm import PredictiveMoments

    for family in FAMILIES:
        mu, var = (2.0, 4.0) if family == "negativebinomial" else (2.0, 0.5)
        moments = PredictiveMoments(np.array([mu]), np.array([var]))
        draws = sample(moments, DistSpec(family=family), 100_000, seed=41).samples[
            :, 0
        ]
        m = draws.size
        se_mean = draws.std() / np.sqrt(m)
        assert draws.mean() == pytest.approx(mu, abs=3.5 * se_mean)
        target_var = mu if family == "poisson" else var
        s2 = draws.var()
        m4 = float(np.mean((draws - draws.mean()) ** 4))
        se_var = np.sqrt(max(m4 - s2 * s2, 0.0) / m)
        assert s2 == pytest.approx(target_var, abs=3.5 * se_var)


RHO_GRID = [round(0.01 * i, 2) for i in range(10)]


@pytest.fixture(scope="module")
def hetero():
    """Shared heteroscedastic problem: y = sin(x) + (0.1 + |x|) * noise.

    Laplace-distributed inputs concentrate most rows at small noise with
    a heavy-scale tail; under uniform inputs the noise-scale spread is so
    mild that even exact per-point variances barely beat a constant one.
    The correlation prediction uses rho tuned by CRPS on a validation
    split, the same workflow the sweep command automates.
    """
    start = time.monotonic()
    rng = np.random.default_rng(501)
    n_train, n_valid, n_test = 10_000, 2_000, 2_000
    x = rng.laplace(0.0, 1.5, size=n_train + n_valid + n_test)
    scale = 0.1 + np.abs(x)
    y = np.sin(x) + scale * rng.normal(size=x.size)
    train_data = RawDataset(x[:n_train, None], y[:n_train], ["x"])
    valid_data = RawDataset(
        x[n_train:n_train + n_valid, None], y[n_train:n_train + n_valid], ["x"]
    )
    test_data = RawDataset(x[-n_test:, None], y[-n_test:], ["x"])
    config = BoostConfig(
        n_estimators=300,
        learning_rate=0.1,
        tree=TreeConfig(max_leaves=32, max_bins=64, lam=1.0),
        rho="auto",
        seed=5,
    )
    model = train(train_data, mse_gradhess, config)
    contrib_mu, contrib_var = tree_contributions(model, valid_data)
    valid_crps = []
    for rho in RHO_GRID:
        pm = accumulate_moments(
            model.y0, model.alpha, rho, contrib_mu, contrib_var
        )
        valid_crps.append(
            float(np.mean(crps_normal(valid_data.target, pm.mu, pm.var)))
        )
    return {
        "model": model,
        "train": train_data,
        "test": test_data,
        "true_scale": scale[-n_test:],
        "rho_star": RHO_GRID[int(np.argmin(valid_crps))],
        "train_seconds": time.monotonic() - start,
    }


def test_criterion_5_heteroscedastic_scale_recovery(hetero):
    start = time.monotonic()
    model = hetero["model"]
    test_data = hetero["test"]
    pm = predict_moments(model, test_data, rho=hetero["rho_star"])
    sigma = np.sqrt(pm.var)
    corr = float(np.corrcoef(sigma, hetero["true_scale"])[0, 1])
    assert corr >= 0.8

    train_mu = predict_moments(model, hetero["train"]).mu
    resid_var = float(np.var(hetero["train"].target - train_mu))
    crps_model = float(np.mean(crps_normal(test_data.target, pm.mu, pm.var)))
    crps_const = float(
        np.mean(
            crps_normal(
                test_data.target, pm.mu, np.full(test_data.n, resid_var)
            )
        )
    )
    assert crps_model <= 0.9 * crps_const
    assert hetero["train_seconds"] + (time.monotonic() - start) < 120.0


def test_criterion_6_wine_benchmark_bands(wine):
    start = time.monotonic()
    rng = np.random.default_rng(601)
    order = rng.permutation(wine.n)
    n_test = wine.n // 10
    test_idx = order[:n_test]
    rest_idx = order[n_test:]
    n_valid = rest_idx.size // 5
    valid_idx = rest_idx[:n_valid]
    fit_idx = rest_idx[n_valid:]

    def subset(idx):
        return RawDataset(
            wine.features[idx],
            wine.target[idx],
            wine.feature_names,
            target_name=wine.target_name,
        )

    def rmse_metric(y, mu, var):
        return rmse(y, mu)

    params = dict(
        n_estimators=2000,
        learning_rate=0.1,
        tree=TreeConfig(
            max_leaves=16,
            max_bins=64,
            lam=1.0,
            min_split_gain=0.0,
            min_data_in_leaf=1,
        ),
        rho="auto",
        seed=1,
    )
    stage1 = train(
        subset(fit_idx),
        mse_gradhess,
        BoostConfig(**params),
        valid=(subset(valid_idx), rmse_metric),
    )
    best_count = len(stage1.trees)
    assert 1 <= best_count <= 2000
    final = train(
        subset(rest_idx),
        mse_gradhess,
        BoostConfig(**{**params, "n_estimators": best_count}),
    )
    test_data = subset(test_idx)
    pm = predict_moments(final, test_data)
    test_rmse = rmse(test_data.target, pm.mu)
    draws = sample(pm, DistSpec(family="normal"), 1000, seed=1)
    test_crps = float(np.mean(crps_empirical_rows(draws.samples, test_data.target)))
    assert 0.60 * 0.8 <= test_rmse <= 0.60 * 1.2
    assert 0.33 * 0.8 <= test_crps <= 0.33 * 1.2
    assert time.monotonic() - start < 300.0


def test_criterion_7_rho_sweep_has_interior_optimum(hetero):
    model = hetero["model"]
    test_data = hetero["test"]
    contrib_mu, contrib_var = tree_contributions(model, test_data)
    scores = []
    for rho in RHO_GRID:
        pm = accumulate_moments(
            model.y0, model.alpha, rho, contrib_mu, contrib_var
        )
        scores.append(float(np.mean(crps_normal(test_data.target, pm.mu, pm.var))))
    best = int(np.argmin(scores))
    assert 0 < best < len(RHO_GRID) - 1
    assert scores[0] >= 1.01 * scores[best]
    assert scores[-1] >= 1.01 * scores[best]


def test_criterion_8_hierarchy_weighted_training_helps_total_level():
    # 20 noisy series share a seasonal component that is faint per cell
    # (amplitude/20 vs unit noise) but strong in the per-step total. The
    # series levels span +-30, so a small plain-MSE ensemble spends its
    # splits separating levels; the weighted objective amplifies the
    # total-level gradient and fits the shared component first.
    rng = np.random.default_rng(801)
    n_series, horizon, reps = 20, 60, 10
    n = n_series * horizon
    series = np.repeat(np.arange(n_series), horizon)
    t = np.tile(np.arange(horizon), n_series)
    base = rng.uniform(-30.0, 30.0, size=n_series)
    common = 20.0 * np.sin(2.0 * np.pi * t / horizon) + 10.0 * np.cos(
        4.0 * np.pi * t / horizon
    )
    signal = base[series] + common / n_series
    y_fit = signal + rng.normal(size=n)
    features = np.column_stack([series.astype(float), t.astype(float)])
    fit_data = RawDataset(features, y_fit, ["series", "t"])

    def hierarchy_over(offsets):
        """Identity / 4 series-blocks per step / total per step, with the
        group tables repeated at each row offset."""
        blocks, totals = {}, {}
        for off in offsets:
            tag = "" if len(offsets) == 1 else f"r{off // n}"
            for gi in range(4):
                for ti in range(horizon):
                    rows = np.flatnonzero((series // 5 == gi) & (t == ti))
                    blocks[f"g{gi}t{ti}{tag}"] = off + rows
            for ti in range(horizon):
                totals[f"t{ti}{tag}"] = off + np.flatnonzero(t == ti)
        return HierarchySpec(
            [
                HierarchyLevel(weight=0.25, identity=True),
                HierarchyLevel(weight=0.25, groups=blocks),
                HierarchyLevel(weight=0.5, groups=totals),
            ]
        )

    spec = hierarchy_over([0])

    config = BoostConfig(
        n_estimators=60,
        learning_rate=0.1,
        tree=TreeConfig(max_leaves=6, max_bins=64, lam=1.0),
        rho="auto",
        seed=7,
    )
    model_mse = train(fit_data, mse_gradhess, config)
    model_hier = train(
        fit_data, lambda y, yhat: hier_wmse_gradhess(y, yhat, spec), config
    )

    # Score against several fresh noise realizations of the same process
    # so the comparison is not dominated by one draw of the irreducible
    # aggregate noise. The cells repeat; only the noise is new.
    y_eval = np.tile(signal, reps) + rng.normal(size=n * reps)
    eval_spec = hierarchy_over([r * n for r in range(reps)])

    def total_level_scores(model):
        pm = predict_moments(model, fit_data)
        tiled = PredictiveMoments(
            mu=np.tile(pm.mu, reps), var=np.tile(pm.var, reps)
        )
        draws = sample(tiled, DistSpec(family="normal"), 400, seed=3)
        rmse_report = hierarchical_report(y_eval, tiled.mu, eval_spec, metric="rmse")
        crps_report = hierarchical_report(
            y_eval, draws.samples, eval_spec, metric="crps"
        )
        return rmse_report.breakdown["2"], crps_report.breakdown["2"]

    mse_rmse, mse_crps = total_level_scores(model_mse)
    hier_rmse, hier_crps = total_level_scores(model_hier)
    assert hier_rmse <= mse_rmse
    assert hier_crps < mse_crps


def write_csv(path, data):
    lines = [",".join(data.feature_names + ["y"])]
    for i in range(data.n):
        cells = [repr(float(v)) for v in data.features[i]]
        cells.append(repr(float(data.target[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_criterion_9_cli_byte_determinism_across_thread_counts(tmp_path):
    train_csv = write_csv(tmp_path / "train.csv", make_regression(901, 300, 3))
    test_csv = write_csv(tmp_path / "test.csv", make_regression(902, 60, 3))
    artifacts = []

    def pgbm(threads, *argv):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        result = subprocess.run(
            [sys.executable, "-m", "pgbm.cli", *map(str, argv)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout + result.stderr

    for threads in ("1", "4"):
        for run in ("a", "b"):
            model = tmp_path / f"model_{threads}_{run}.txt"
            pred = tmp_path / f"pred_{threads}_{run}.csv"
            pgbm(threads, "train", "--data", train_csv, "--target", "y", "--model-out", model,
                 "--n-estimators", 25, "--max-leaves", 8, "--bagging-fraction", 0.8,
                 "--seed", 12)
            pgbm(threads, "predict", "--model", model, "--data", test_csv, "--out", pred,
                 "--n-samples", 20, "--seed", 3)
            # CRPS, and the Weibull and discrete rows' streams (negative
            # binomial rows of this data all fall back; Poisson rows do not).
            evaluate = pgbm(threads, "evaluate", "--pred", pred, "--actual", test_csv,
                            "--target", "y", "--metrics", "crps,rmse")
            sweep = pgbm(threads, "sweep", "--model", model, "--data", test_csv,
                         "--target", "y", "--dists", "normal,weibull,poisson,negativebinomial",
                         "--rhos", "0,0.05", "--n-samples", 20, "--seed", 3)
            artifacts.append((model.read_bytes(), pred.read_bytes(), evaluate, sweep))
    assert all(outputs == artifacts[0] for outputs in artifacts[1:])

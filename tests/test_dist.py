"""Moment matching and posterior sampling for the output families."""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgbm import (
    FAMILIES,
    DistSpec,
    PredictiveMoments,
    dist,
    match_params,
    sample,
)
from pgbm.errors import InfeasibleMoments, PgbmError

EULER_GAMMA = float(np.euler_gamma)


def analytic_moments(family: str, params: dict[str, float]) -> tuple[float, float]:
    """Closed-form (mean, variance) of each family from its parameters."""
    if family == "normal":
        return params["loc"], params["scale"] ** 2
    if family == "studentt3":
        return params["loc"], 3.0 * params["scale"] ** 2
    if family == "logistic":
        return params["loc"], math.pi**2 * params["scale"] ** 2 / 3.0
    if family == "laplace":
        return params["loc"], 2.0 * params["scale"] ** 2
    if family == "lognormal":
        s2 = params["sigma"] ** 2
        mean = math.exp(params["mean"] + s2 / 2.0)
        return mean, (math.exp(s2) - 1.0) * math.exp(2.0 * params["mean"] + s2)
    if family == "gumbel":
        beta = params["scale"]
        return (
            params["loc"] + EULER_GAMMA * beta,
            math.pi**2 * beta**2 / 6.0,
        )
    if family == "weibull":
        k = params["shape"]
        c = params["scale"]
        g1 = math.gamma(1.0 + 1.0 / k)
        g2 = math.gamma(1.0 + 2.0 / k)
        return c * g1, c * c * (g2 - g1 * g1)
    if family == "poisson":
        return params["rate"], params["rate"]
    if family == "negativebinomial":
        r = params["r"]
        p = params["p"]
        return r * (1.0 - p) / p, r * (1.0 - p) / (p * p)
    raise AssertionError(family)


CONTINUOUS = (
    "normal",
    "studentt3",
    "logistic",
    "laplace",
    "lognormal",
    "gumbel",
    "weibull",
)


def moments(mu, var) -> PredictiveMoments:
    return PredictiveMoments(np.asarray(mu, dtype=float), np.asarray(var, dtype=float))


def reference_weibull_shape(mu: float, var: float) -> float:
    """The scalar bisection, with ``math.gamma`` at every midpoint, whose
    feasibility the vectorized solver must reproduce exactly and whose
    shapes it must reproduce within 1e-10 relative."""

    def ratio(k: float) -> float:
        return math.gamma(1.0 + 2.0 / k) / math.gamma(1.0 + 1.0 / k) ** 2

    target = 1.0 + var / (mu * mu)
    lo, hi = 0.1, 50.0
    f_lo = ratio(lo) - target
    f_hi = ratio(hi) - target
    if f_lo < 0 or f_hi > 0:
        raise InfeasibleMoments("weibull", mu, var)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = ratio(mid) - target
        if abs(f_mid) <= 1e-10:
            return mid
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Moments that are feasible for some families and not for others:
# nonpositive means, zero and underdispersed variances, and extremes.
MU_VALUES = (-2.0, 0.0, 1e-200, 0.3, 2.0, 7.5, 1e300)
VAR_VALUES = (0.0, 0.2, 1.0, 4.0, 60.0, 1e10, 1e300)
ROWS = st.lists(
    st.tuples(st.sampled_from(MU_VALUES), st.sampled_from(VAR_VALUES)),
    min_size=1,
    max_size=9,
)


class TestMatchParams:
    def test_normal_example(self):
        params = match_params("normal", 2.0, 9.0)
        assert params == {"loc": 2.0, "scale": 3.0}

    def test_laplace_example(self):
        params = match_params("laplace", 0.0, 8.0)
        assert params["scale"] == pytest.approx(2.0)

    def test_negativebinomial_example(self):
        params = match_params("negativebinomial", 2.0, 4.0)
        assert params["r"] == pytest.approx(2.0)
        assert params["p"] == pytest.approx(0.5)

    @pytest.mark.parametrize("family", CONTINUOUS + ("negativebinomial",))
    @pytest.mark.parametrize("mu,var", [(2.0, 0.9), (0.7, 0.25), (5.0, 4.0)])
    def test_analytic_round_trip(self, family, mu, var):
        if family == "negativebinomial" and var <= mu:
            pytest.skip("needs overdispersion")
        params = match_params(family, mu, var)
        mean_back, var_back = analytic_moments(family, params)
        assert mean_back == pytest.approx(mu, rel=1e-9)
        assert var_back == pytest.approx(var, rel=1e-9)

    @pytest.mark.parametrize("mu,var", [(2.0, 4.0), (1.5, 6.0), (0.4, 0.5)])
    def test_negativebinomial_round_trip(self, mu, var):
        params = match_params("negativebinomial", mu, var)
        mean_back, var_back = analytic_moments("negativebinomial", params)
        assert mean_back == pytest.approx(mu, rel=1e-12)
        assert var_back == pytest.approx(var, rel=1e-12)

    def test_poisson_matches_mean_only(self):
        params = match_params("poisson", 3.0, 0.5)
        assert params == {"rate": 3.0}
        mean_back, var_back = analytic_moments("poisson", params)
        assert mean_back == 3.0
        assert var_back == 3.0
        assert var_back != 0.5

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            match_params("normal", 0.0, -1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            match_params("cauchy", 0.0, 1.0)

    @pytest.mark.parametrize(
        "family,mu,var",
        [
            ("lognormal", -1.0, 1.0),
            ("lognormal", 0.0, 1.0),
            ("weibull", -2.0, 1.0),
            ("weibull", 1.0, 0.0),
            ("poisson", -3.0, 1.0),
            ("poisson", 0.0, 1.0),
            ("negativebinomial", 2.0, 2.0),
            ("negativebinomial", 2.0, 1.0),
            ("negativebinomial", -1.0, 4.0),
        ],
    )
    def test_infeasible_moments(self, family, mu, var):
        with pytest.raises(InfeasibleMoments) as info:
            match_params(family, mu, var)
        assert info.value.family == family
        assert info.value.mu == mu
        assert info.value.var == var

    def test_zero_variance_normal_is_point_mass(self):
        params = match_params("normal", 1.5, 0.0)
        assert params["scale"] == 0.0

    def test_weibull_extreme_skew_out_of_bracket(self):
        # Relative variance far beyond what shape=0.1 can express.
        with pytest.raises(InfeasibleMoments):
            match_params("weibull", 1.0, 1e12)

    @pytest.mark.parametrize(
        "family,mu,var,infeasible",
        [
            ("lognormal", 1e-200, 1.0, True),
            ("weibull", 1e-200, 1.0, True),
            ("lognormal", 1e-160, 1e10, True),
            ("gumbel", 0.0, 1e308, False),
            ("logistic", 0.0, 1e308, False),
            ("poisson", 1e300, 1.0, True),
            ("negativebinomial", 1e-300, 1.0, True),
        ],
    )
    def test_extreme_moments(self, family, mu, var, infeasible):
        # Matching these naively raises (ZeroDivisionError, numpy's domain
        # checks) or draws NaN/inf.
        if infeasible:
            with pytest.raises(InfeasibleMoments):
                match_params(family, mu, var)
        else:
            assert all(map(math.isfinite, match_params(family, mu, var).values()))
        result = sample(moments([mu], [var]), DistSpec(family), 50, seed=1)
        assert result.fallback_rows == int(infeasible)
        assert np.all(np.isfinite(result.samples))

    def test_poisson_rate_at_numpy_limit(self):
        limit = float(dist._POISSON_LAM_MAX)
        assert match_params("poisson", limit, 1.0) == {"rate": limit}
        with pytest.raises(InfeasibleMoments):
            match_params("poisson", float(np.nextafter(limit, np.inf)), 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_moments_rejected(self, value):
        with pytest.raises(ValueError):
            match_params("normal", value, 1.0)
        with pytest.raises(ValueError):
            sample(moments([0.0, 1.0], [1.0, value]), DistSpec(), 4)

    @given(
        st.lists(
            st.tuples(
                st.floats(1e-6, 1e6),
                st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(1e6, 1e18)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_weibull_shape_matches_scalar_bisection(self, rows):
        mu, var = (np.array(column) for column in zip(*rows))
        params, ok = dist._match("weibull", mu, var)
        for i, (mu_i, var_i) in enumerate(rows):
            try:
                expected = reference_weibull_shape(mu_i, var_i)
            except InfeasibleMoments:
                assert not ok[i]
            else:
                assert ok[i]
                assert params["shape"][i] == pytest.approx(expected, rel=1e-10)

    def test_weibull_shape_on_many_rows(self):
        rng = np.random.default_rng(11)
        mu = np.exp(rng.uniform(-5.0, 5.0, 3000))
        var = mu * mu * np.exp(rng.uniform(-12.0, 14.0, 3000))
        params, ok = dist._match("weibull", mu, var)
        for i in range(3000):
            try:
                expected = reference_weibull_shape(float(mu[i]), float(var[i]))
            except InfeasibleMoments:
                assert not ok[i]
            else:
                assert ok[i] and params["shape"][i] == pytest.approx(expected, rel=1e-10)
        assert 0 < ok.sum() < 3000

    def test_weibull_shape_with_every_decision_exact(self):
        # With math.gamma at every midpoint the vectorized bisection, stop
        # rule included, is the scalar one bit for bit.
        rng = np.random.default_rng(11)
        mu = np.exp(rng.uniform(-5.0, 5.0, 3000))
        var = mu * mu * np.exp(rng.uniform(-12.0, 14.0, 3000))

        def exact_ratio(k):
            return np.array([dist._moment_ratio(x) for x in k.tolist()])

        with mock.patch.object(dist, "_moment_ratio_fast", exact_ratio):
            params, ok = dist._match("weibull", mu, var)
        for i in range(3000):
            try:
                expected = reference_weibull_shape(float(mu[i]), float(var[i]))
            except InfeasibleMoments:
                assert not ok[i]
            else:
                assert ok[i] and params["shape"][i] == expected

    def test_log_gamma_matches_math_lgamma(self):
        # [1, 21] holds every argument of the Weibull ratio and scale.
        x = np.linspace(1.0, 21.0, 200_001)
        exact = np.array([math.lgamma(v) for v in x.tolist()])
        assert np.abs(dist._log_gamma(x) - exact).max() <= 1e-13

    def test_weibull_match_calls_math_gamma_only_for_the_bracket(self):
        rng = np.random.default_rng(11)
        mu = np.exp(rng.uniform(-5.0, 5.0, 3000))
        var = mu * mu * np.exp(rng.uniform(-7.0, 10.0, 3000))
        with mock.patch.object(dist, "_moment_ratio", wraps=dist._moment_ratio) as ratio, \
                mock.patch.object(dist.math, "gamma", wraps=math.gamma) as gamma:
            params, ok = dist._match("weibull", mu, var)
        assert ok.all()
        # The two bracket-end ratios, each of two math.gamma calls; no
        # midpoint or scale calls it.
        assert ratio.call_count <= 2 and gamma.call_count <= 4

    def test_weibull_bisection_ends_before_its_cap(self):
        # Near the top of the bracket the ratio's rounding exceeds the
        # tolerance; such rows stop once their bracket is two adjacent
        # floats, about 60 halvings from [0.1, 50].
        rng = np.random.default_rng(11)
        target = 1.0 + np.exp(rng.uniform(-7.0, 10.0, 3000))
        with mock.patch.object(dist, "_moment_ratio_fast", wraps=dist._moment_ratio_fast) as fast:
            shape = dist._weibull_shape(target)
        assert np.isfinite(shape).all()
        assert fast.call_count < 100 < dist._WEIBULL_MAX_ITER


class TestSampling:
    @pytest.mark.parametrize("family", CONTINUOUS + ("poisson", "negativebinomial"))
    def test_empirical_moments(self, family):
        mu, var = (2.0, 0.9)
        if family == "negativebinomial":
            mu, var = (2.0, 4.0)
        moments = PredictiveMoments(np.array([mu]), np.array([var]))
        result = sample(moments, DistSpec(family=family), 100_000, seed=5)
        draws = result.samples[:, 0]
        assert result.fallback_rows == 0
        m = draws.size
        mean = draws.mean()
        s2 = draws.var()
        se_mean = draws.std() / math.sqrt(m)
        assert mean == pytest.approx(mu, abs=3.5 * se_mean)
        if family == "poisson":
            target_var = mu
        else:
            target_var = var
        m4 = np.mean((draws - mean) ** 4)
        se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / m)
        assert s2 == pytest.approx(target_var, abs=3.5 * se_var)

    def test_deterministic_given_seed(self):
        moments = PredictiveMoments(np.array([1.0, 2.0]), np.array([0.5, 2.0]))
        a = sample(moments, DistSpec(), 64, seed=9)
        b = sample(moments, DistSpec(), 64, seed=9)
        c = sample(moments, DistSpec(), 64, seed=10)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_row_streams_independent_of_batch(self):
        a = PredictiveMoments(np.array([1.0, 2.0]), np.array([0.5, 2.0]))
        first_only = PredictiveMoments(np.array([1.0]), np.array([0.5]))
        full = sample(a, DistSpec(), 32, seed=3)
        solo = sample(first_only, DistSpec(), 32, seed=3)
        np.testing.assert_array_equal(full.samples[:, 0], solo.samples[:, 0])

    @pytest.mark.parametrize("family", FAMILIES)
    @given(rows=ROWS, others=ROWS, data=st.data())
    def test_row_draws_ignore_other_rows(self, family, rows, others, data):
        # Other rows change moments, feasibility and blocks of 3 rows.
        i = data.draw(st.integers(0, len(rows) - 1))
        changed = [others[j % len(others)] if j != i else rows[i] for j in range(len(rows) + 4)]
        spec = DistSpec(family)
        with mock.patch.object(dist, "_BLOCK_ROWS", 3):
            a = sample(moments(*zip(*rows)), spec, 6, seed=4).samples
            b = sample(moments(*zip(*changed)), spec, 6, seed=4).samples
        np.testing.assert_array_equal(a[:, i], b[:, i])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_prefix_of_rows_reproduces_across_blocks(self, family):
        rng = np.random.default_rng(2)
        mu = rng.uniform(-1.0, 6.0, 700)
        var = rng.uniform(0.0, 9.0, 700)
        full = sample(moments(mu, var), DistSpec(family), 7, seed=8)
        head = sample(moments(mu[:300], var[:300]), DistSpec(family), 7, seed=8)
        if family in ("lognormal", "weibull", "poisson", "negativebinomial"):
            assert 0 < head.fallback_rows < 300
        np.testing.assert_array_equal(full.samples[:, :300], head.samples)

    def test_shared_stream_is_keyed_apart_from_row_streams(self):
        seed, m = 7, 64
        draws = sample(moments([0.0], [1.0]), DistSpec(), m, seed=seed).samples[:, 0]
        rows = np.random.SeedSequence(seed, spawn_key=(dist._ROWS,))
        assert not np.array_equal(draws, np.random.default_rng(rows).standard_normal(m))
        shared = np.random.SeedSequence(seed, spawn_key=(dist._SHARED,))
        np.testing.assert_array_equal(draws, np.random.default_rng(shared).standard_normal(m))

    def test_fallback_stream_is_keyed_apart_from_shared_stream(self):
        seed, m = 7, 64
        fell = sample(moments([-1.0], [1.0]), DistSpec("weibull"), m, seed=seed)
        normal = sample(moments([-1.0], [1.0]), DistSpec(), m, seed=seed)
        assert fell.fallback_rows == 1
        assert not np.array_equal(fell.samples, normal.samples)
        key = np.random.SeedSequence(seed, spawn_key=(dist._FALLBACK, 0))
        expected = -1.0 + np.random.default_rng(key).standard_normal(m)
        np.testing.assert_array_equal(fell.samples[:, 0], expected)

    @pytest.mark.parametrize("family", ["poisson", "negativebinomial"])
    def test_feasible_discrete_rows_keep_their_own_stream(self, family):
        # Row i's draws are the _ROWS stream's from i * 2**64 on. Row 1
        # falls back; row 2**32, past the call's rows, is read through the
        # seek that sample uses.
        mu, var = np.full(257, 3.0), np.full(257, 7.0)
        mu[1] = -1.0
        params = match_params(family, 3.0, 7.0)

        def draws(rng):
            return rng.poisson(3.0, 40) if family == "poisson" else rng.negative_binomial(
                params["r"], params["p"], 40)

        for seed in (0, 2**64, 2**128 + 1):
            result = sample(moments(mu, var), DistSpec(family), 40, seed=seed)
            assert result.fallback_rows == 1
            row_rng, seek = dist._row_streams(seed)
            for i in (0, 255, 256, 2**32):
                bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(dist._ROWS,)))
                bits.advance(i << 64)
                expected = draws(np.random.Generator(bits))
                if i < mu.size:
                    np.testing.assert_array_equal(result.samples[:, i], expected)
                seek(i)
                np.testing.assert_array_equal(draws(row_rng), expected)
            # The row stream is keyed apart from the shared and fallback streams.
            keys = [(dist._ROWS,), (dist._SHARED,), (dist._FALLBACK, 0)]
            heads = {tuple(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
                           .random_raw(4).tolist()) for key in keys}
            assert len(heads) == 3

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128 + 1])
    def test_row_states_equal_default_rng(self, seed):
        # Row i's state is default_rng on the _ROWS key, advanced by i * 2**64,
        # whatever row was sought before it.
        rows = [0, 1, 255, 256, 2**32 - 1, 2**32, 1]
        row_rng, seek = dist._row_streams(seed)
        for i in rows:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(dist._ROWS,)))
            rng.bit_generator.advance(i << 64)
            row_rng.poisson(3.0, 5)  # draws since the last seek must not carry over
            seek(i)
            assert row_rng.bit_generator.state == rng.bit_generator.state

    @given(
        st.sampled_from(FAMILIES),
        st.lists(
            st.tuples(st.floats(-1e300, 1e300), st.floats(0.0, 1e300)),
            min_size=1,
            max_size=5,
        ),
    )
    @example("lognormal", [(1e-160, 1e10)])
    @example("gumbel", [(1e300, 1e300)])
    @example("poisson", [(1e300, 0.0)])
    @example("negativebinomial", [(1e-300, 1e300)])
    def test_draws_are_finite(self, family, rows):
        try:
            result = sample(moments(*zip(*rows)), DistSpec(family), 20, seed=3)
        except PgbmError:
            return
        assert np.all(np.isfinite(result.samples))

    def test_shape_and_seed_recorded(self):
        moments = PredictiveMoments(np.zeros(3), np.ones(3))
        result = sample(moments, DistSpec(), 17, seed=2)
        assert result.samples.shape == (17, 3)
        assert result.seed == 2

    def test_infeasible_row_falls_back_to_normal(self):
        moments = PredictiveMoments(np.array([2.0, 1.0]), np.array([4.0, 0.0]))
        result = sample(moments, DistSpec(family="weibull"), 50, seed=0)
        assert result.fallback_rows == 1
        np.testing.assert_array_equal(result.samples[:, 1], np.full(50, 1.0))
        assert np.all(result.samples[:, 0] >= 0.0)

    def test_clamp_nonneg(self):
        moments = PredictiveMoments(np.array([0.2]), np.array([4.0]))
        spec = DistSpec(family="normal", clamp_nonneg=True)
        clamped = sample(moments, spec, 500, seed=1)
        raw = sample(moments, DistSpec(family="normal"), 500, seed=1)
        assert np.all(clamped.samples >= 0.0)
        assert np.any(raw.samples < 0.0)
        np.testing.assert_array_equal(
            clamped.samples, np.maximum(raw.samples, 0.0)
        )

    def test_counts_are_float_arrays(self):
        moments = PredictiveMoments(np.array([4.0]), np.array([6.0]))
        result = sample(moments, DistSpec(family="poisson"), 10, seed=0)
        assert result.samples.dtype == np.float64

    def test_rejects_nonpositive_sample_count(self):
        moments = PredictiveMoments(np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            sample(moments, DistSpec(), 0)

    @pytest.mark.parametrize("family", ["normal", "poisson"])
    def test_rejects_negative_seed(self, family):
        moments = PredictiveMoments(np.array([4.0]), np.array([6.0]))
        with pytest.raises(ValueError, match="seed must be nonnegative, got -5"):
            sample(moments, DistSpec(family=family), 10, seed=-5)


class TestSampleBlocks:
    """`sample_blocks` is `sample`'s one draw loop: its blocks of rows,
    joined, are `sample`'s matrix, bit for bit, from any first block and
    with `_BLOCK_ROWS` set to any size."""

    @staticmethod
    def case(n, data):
        rng = np.random.default_rng(n)
        mu, var = rng.uniform(-1.0, 6.0, n), rng.uniform(0.0, 9.0, n)
        # Rows that the positive families cannot match, some at block edges.
        edges = [i for i in (0, 254, 255, 256, 257, 511, 512, n - 1) if i < n]
        rows = st.one_of(st.sampled_from(edges), st.integers(0, n - 1))
        mu[data.draw(st.lists(rows, max_size=6))] = -2.0
        return mu, var

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=15)
    @given(n=st.sampled_from([1, 255, 256, 257, 700]), data=st.data())
    def test_joined_blocks_are_the_sample_matrix(self, family, clamp, n, data):
        mu, var = self.case(n, data)
        spec = DistSpec(family, clamp_nonneg=clamp)
        whole = sample(moments(mu, var), spec, 5, seed=6)
        fallback_rows, blocks = dist.sample_blocks(moments(mu, var), spec, 5, seed=6)
        blocks = list(blocks())
        assert [b.shape for b in blocks] == [(5, min(256, n - k)) for k in range(0, n, 256)]
        assert np.concatenate(blocks, axis=1).tobytes() == whole.samples.tobytes()
        assert fallback_rows == whole.fallback_rows
        if family in ("lognormal", "weibull", "poisson", "negativebinomial"):
            assert fallback_rows >= np.sum(mu == -2.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=20)
    @given(
        n=st.sampled_from([1, 7, 255, 256, 257, 700]),
        rows=st.sampled_from([1, 3, 7, 255, 256, 257, 300]),
        clamp=st.booleans(),
        data=st.data(),
    )
    def test_any_first_block_gives_its_columns_of_the_sample_matrix(
        self, family, n, rows, clamp, data
    ):
        """Each iterator starts afresh: two from different blocks, drawn in
        turns, give the columns of `sample`'s matrix from their first row,
        in blocks of ``rows`` rows, each a new array."""
        mu, var = self.case(n, data)
        spec = DistSpec(family, clamp_nonneg=clamp)
        with mock.patch.object(dist, "_BLOCK_ROWS", rows):
            whole = sample(moments(mu, var), spec, 4, seed=9)
            fallback_rows, blocks = dist.sample_blocks(moments(mu, var), spec, 4, 9)
            assert fallback_rows == whole.fallback_rows
            n_blocks = -(-n // rows)
            firsts = [data.draw(st.integers(0, n_blocks - 1)) for _ in range(2)]
            drawn = [[], []]
            for pair in itertools.zip_longest(blocks(firsts[0]), blocks(firsts[1])):
                for part, block in zip(drawn, pair):
                    if block is not None:
                        assert not any(np.shares_memory(block, old) for old in part)
                        part.append(block)
        for first, part in zip(firsts, drawn):
            assert [b.shape for b in part] == [
                (4, min(rows, n - start)) for start in range(first * rows, n, rows)
            ]
            expected = np.ascontiguousarray(whole.samples[:, first * rows :])
            assert np.concatenate(part, axis=1).tobytes() == expected.tobytes()

    def test_checks_its_arguments_when_called(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            dist.sample_blocks(moments([1.0], [1.0]), DistSpec(), 5, seed=-1)
        with pytest.raises(ValueError, match="mu and var must be finite"):
            dist.sample_blocks(moments([np.nan], [1.0]), DistSpec(), 5)


class TestDistSpec:
    def test_family_list(self):
        assert len(FAMILIES) == 9
        assert "normal" in FAMILIES
        assert "negativebinomial" in FAMILIES

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            DistSpec(family="triangular")

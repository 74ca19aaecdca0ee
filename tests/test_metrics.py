"""CRPS estimators, RMSE, and per-level hierarchical reports."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgbm import (
    HierarchyLevel,
    HierarchySpec,
    MetricReport,
    crps_empirical,
    crps_empirical_rows,
    crps_normal,
    hierarchical_report,
    report_rows,
    rmse,
)
from pgbm.errors import EmptySamples, LengthMismatch
from pgbm.metrics import erf, mean_crps

_math_erf = np.frompyfunc(math.erf, 1, 1)
EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).smallest_subnormal


def crps_normal_with_math_erf(y, mu, var):
    """The closed form with the standard library's erf, one call per row."""
    sigma = np.sqrt(var)
    dev = y - mu
    positive = sigma > 0
    z = np.divide(dev, sigma, out=np.zeros_like(dev), where=positive)
    cdf_term = _math_erf(z / math.sqrt(2.0)).astype(np.float64)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    value = sigma * (z * cdf_term + 2.0 * pdf - 1.0 / math.sqrt(math.pi))
    return np.where(positive, value, np.abs(dev))


def crps_naive(samples, y):
    """Direct double-loop evaluation of the sample-based CRPS."""
    samples = np.asarray(samples, dtype=float)
    m = samples.size
    term1 = np.mean(np.abs(samples - y))
    term2 = 0.0
    for a in samples:
        for b in samples:
            term2 += abs(a - b)
    return term1 - term2 / (2.0 * m * m)


class TestCrpsEmpirical:
    def test_point_mass_at_truth(self):
        assert crps_empirical(np.array([1.5, 1.5, 1.5]), 1.5) == 0.0

    def test_single_sample_absolute_error(self):
        assert crps_empirical(np.array([4.0]), 1.0) == pytest.approx(3.0)

    def test_two_point_example(self):
        assert crps_empirical(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            m = int(rng.integers(2, 40))
            samples = rng.normal(size=m) * rng.uniform(0.5, 3)
            y = float(rng.normal())
            assert crps_empirical(samples, y) == pytest.approx(
                crps_naive(samples, y), rel=1e-12, abs=1e-14
            )

    def test_nonnegative_property(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            samples = rng.normal(size=int(rng.integers(1, 30)))
            assert crps_empirical(samples, float(rng.normal())) >= 0.0

    def test_empty_samples(self):
        with pytest.raises(EmptySamples):
            crps_empirical(np.array([]), 0.0)

    def test_rows_match_scalar_calls(self):
        rng = np.random.default_rng(32)
        samples = rng.normal(size=(25, 6))
        y = rng.normal(size=6)
        before = samples.copy()
        per_row = crps_empirical_rows(samples, y)
        np.testing.assert_array_equal(samples, before)  # scored in a work copy
        for j in range(6):
            assert per_row[j] == pytest.approx(
                crps_empirical(samples[:, j], float(y[j])), rel=1e-12
            )

    def test_rows_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            crps_empirical_rows(np.zeros((4, 3)), np.zeros(2))

    def test_sharper_calibrated_forecast_wins(self):
        rng = np.random.default_rng(33)
        wins = 0
        trials = 100
        for _ in range(trials):
            y = rng.normal(size=50)
            good = rng.normal(size=(200, 50))
            biased = rng.normal(size=(200, 50)) + 1.5
            score_good = crps_empirical_rows(good, y).mean()
            score_biased = crps_empirical_rows(biased, y).mean()
            wins += score_good < score_biased
        assert wins >= 95


class TestMeanCrps:
    """`mean_crps` of a matrix given in column blocks is the mean of its
    whole-matrix row scores, bit for bit, however it is cut."""

    @given(
        n=st.integers(1, 40),
        cuts=st.lists(st.integers(1, 39), max_size=8),
        fortran=st.booleans(),
    )
    def test_any_blocks_give_the_whole_matrix_bits(self, n, cuts, fortran):
        rng = np.random.default_rng(n)
        samples = rng.lognormal(size=(17, n)) * 10.0 ** rng.integers(-3, 4, n)
        y = rng.normal(size=n)
        whole = float(np.mean(crps_empirical_rows(samples, y)))
        if fortran:  # evaluate's blocks: column views of a row-major file
            samples = np.ascontiguousarray(samples.T).T
        blocks = np.hsplit(samples, sorted({c for c in cuts if c < n}))
        assert mean_crps(iter(blocks), y) == whole

    @pytest.mark.parametrize("n", [1, 2, 257])
    def test_row_scores_do_not_depend_on_the_layout(self, n):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(300, n)) * 1e3
        y = rng.normal(size=n)
        expected = crps_empirical_rows(samples, y)
        fortran = np.asfortranarray(samples)
        assert crps_empirical_rows(fortran, y).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("columns, rows", [(3, 5), (5, 3)])
    def test_blocks_that_miss_rows_are_refused(self, columns, rows):
        blocks = np.hsplit(np.zeros((4, columns)), [2])
        with pytest.raises(LengthMismatch):
            mean_crps(blocks, np.zeros(rows))


class TestCrpsNormal:
    def test_standard_normal_at_center(self):
        expected = 2.0 / math.sqrt(2.0 * math.pi) - 1.0 / math.sqrt(math.pi)
        value = crps_normal(np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert value[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_variance_absolute_error(self):
        value = crps_normal(np.array([3.0]), np.array([1.0]), np.array([0.0]))
        assert value[0] == pytest.approx(2.0)

    def test_scale_equivariance(self):
        y = np.array([0.7])
        a = crps_normal(y, np.array([0.2]), np.array([1.3]))
        scale = 4.0
        b = crps_normal(
            y * scale, np.array([0.2 * scale]), np.array([1.3 * scale**2])
        )
        assert b[0] == pytest.approx(scale * a[0], rel=1e-12)

    def test_matches_the_formula_with_math_erf(self):
        rng = np.random.default_rng(35)
        n = 20_000
        y = rng.normal(0.0, 3.0, n)
        mu = rng.normal(0.0, 3.0, n)
        var = rng.lognormal(0.0, 2.0, n)
        var[::7] = 0.0
        got = crps_normal(y, mu, var)
        # Near z = 0 the bracket z(2 Phi - 1) + 2 phi - 1/sqrt(pi) cancels
        # 3.4-fold, so an erf one ulp apart can move the result by 5 eps.
        np.testing.assert_allclose(got, crps_normal_with_math_erf(y, mu, var), rtol=2e-15, atol=0)
        np.testing.assert_array_equal(got[::7], np.abs(y - mu)[::7])

    def test_against_empirical_sampler(self):
        rng = np.random.default_rng(34)
        mu, sd, y = 0.4, 1.7, -0.9
        draws = rng.normal(mu, sd, size=400_000)
        closed = crps_normal(np.array([y]), np.array([mu]), np.array([sd**2]))[0]
        estimate = crps_empirical(draws, y)
        assert closed == pytest.approx(estimate, abs=5e-3)


class TestErf:
    def assert_within_two_eps(self, x):
        """|erf(x) - math.erf(x)| <= 2 eps |math.erf(x)|, and at most two
        steps of the smallest subnormal where erf(x) is subnormal."""
        got = erf(x)
        want = _math_erf(x).astype(np.float64)
        tolerance = 2.0 * np.maximum(EPS * np.abs(want), TINY)
        worst = np.argmax(np.abs(got - want) - tolerance)
        assert np.all(np.abs(got - want) <= tolerance), (x[worst], got[worst], want[worst])

    def test_dense_grid(self):
        self.assert_within_two_eps(np.linspace(-40.0, 40.0, 400_001))
        self.assert_within_two_eps(np.linspace(-8.5, 8.5, 170_001))

    def test_subnormals_and_tiny_normals(self):
        x = np.concatenate([np.arange(1, 2000) * TINY, np.geomspace(TINY, 1e-300, 2000)])
        self.assert_within_two_eps(np.concatenate([x, -x]))

    def test_branch_boundaries(self):
        edges = np.array([1.0, 8.0])  # where erf changes form
        x = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
        self.assert_within_two_eps(np.concatenate([x, -x]))

    def test_signed_zeros_infinities_and_nan(self):
        got = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -1e300]))
        np.testing.assert_array_equal(got, [0.0, -0.0, 1.0, -1.0, np.nan, 1.0, -1.0])
        assert np.signbit(got[:2]).tolist() == [False, True]

    def test_zero_dimensional_input(self):
        assert erf(0.5) == math.erf(0.5)
        assert erf(np.array(2.0)).shape == ()


class TestRmse:
    def test_examples(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            math.sqrt(12.5)
        )
        assert rmse(np.array([1.0]), np.array([3.0])) == pytest.approx(2.0)

    def test_zero_for_exact(self):
        y = np.array([1.0, -2.0])
        assert rmse(y, y.copy()) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse(np.zeros(2), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))


class TestMetricReport:
    def test_rows_format(self):
        report = MetricReport(
            name="rmse",
            value=1.5,
            n=10,
            breakdown={"0": 1.25, "1": 0.5},
            breakdown_n={"0": 10, "1": 2},
        )
        rows = report_rows(report)
        assert rows[0] == "rmse,global,all,1.5,10"
        assert rows[1] == "rmse,0,all,1.25,10"
        assert rows[2] == "rmse,1,all,0.5,2"

    def test_rows_without_breakdown(self):
        report = MetricReport(name="crps", value=0.25, n=4)
        assert report_rows(report) == ["crps,global,all,0.25,4"]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MetricReport(name="rmse", value=float("nan"), n=3)

    def test_rejects_a_non_finite_level(self):
        with pytest.raises(ValueError, match="must be finite"):
            MetricReport(name="rmse", value=1.0, n=3, breakdown={"0": 1.0, "1": float("inf")})

    @pytest.mark.parametrize("metric", ["rmse", "crps"])
    def test_a_level_that_overflows_is_refused_without_a_warning(self, metric):
        """Each row scores 0, but the sums of its one group overflow."""
        y = np.array([1e308, 1e308])
        pred = y.copy() if metric == "rmse" else y[None, :].copy()
        with pytest.raises(ValueError, match="must be finite"):
            hierarchical_report(y, pred, two_level_spec(2), metric=metric)


def two_level_spec(n):
    return HierarchySpec(
        [
            HierarchyLevel(weight=0.5, identity=True),
            HierarchyLevel(weight=0.5, groups={"all": np.arange(n)}),
        ]
    )


class TestHierarchicalReport:
    def test_identity_level_equals_global_rmse(self):
        rng = np.random.default_rng(35)
        y = rng.normal(size=8)
        pred = rng.normal(size=8)
        spec = HierarchySpec([HierarchyLevel(weight=1.0, identity=True)])
        report = hierarchical_report(y, pred, spec, metric="rmse")
        assert report.value == pytest.approx(rmse(y, pred))
        assert report.breakdown["0"] == pytest.approx(report.value)
        assert report.breakdown_n["0"] == 8

    def test_cancellation_at_total_level(self):
        y = np.array([1.0, -1.0])
        pred = np.array([-1.0, 1.0])
        report = hierarchical_report(y, pred, two_level_spec(2), metric="rmse")
        assert report.value == pytest.approx(2.0)
        assert report.breakdown["1"] == 0.0

    def test_total_level_rmse_of_sums(self):
        rng = np.random.default_rng(36)
        y = rng.normal(size=6)
        pred = rng.normal(size=6)
        report = hierarchical_report(y, pred, two_level_spec(6), metric="rmse")
        expected = abs(y.sum() - pred.sum())
        assert report.breakdown["1"] == pytest.approx(expected)
        assert report.breakdown_n["1"] == 1

    def test_crps_identity_matches_rowwise_mean(self):
        rng = np.random.default_rng(37)
        y = rng.normal(size=5)
        samples = rng.normal(size=(64, 5))
        spec = HierarchySpec([HierarchyLevel(weight=1.0, identity=True)])
        report = hierarchical_report(y, samples, spec, metric="crps")
        assert report.value == pytest.approx(
            crps_empirical_rows(samples, y).mean(), rel=1e-12
        )

    def test_crps_total_level_sums_sample_paths(self):
        rng = np.random.default_rng(38)
        y = rng.normal(size=4)
        samples = rng.normal(size=(128, 4))
        report = hierarchical_report(y, samples, two_level_spec(4), metric="crps")
        total_draws = samples.sum(axis=1)
        expected = crps_empirical(total_draws, float(y.sum()))
        assert report.breakdown["1"] == pytest.approx(expected, rel=1e-12)

    def test_rmse_on_samples_uses_column_means(self):
        rng = np.random.default_rng(39)
        y = rng.normal(size=5)
        samples = rng.normal(size=(50, 5)) + 0.3
        spec = HierarchySpec([HierarchyLevel(weight=1.0, identity=True)])
        report = hierarchical_report(y, samples, spec, metric="rmse")
        assert report.value == pytest.approx(rmse(y, samples.mean(axis=0)))

    def test_crps_requires_sample_matrix(self):
        spec = HierarchySpec([HierarchyLevel(weight=1.0, identity=True)])
        with pytest.raises(ValueError):
            hierarchical_report(np.zeros(3), np.zeros(3), spec, metric="crps")

    def test_unknown_metric(self):
        spec = HierarchySpec([HierarchyLevel(weight=1.0, identity=True)])
        with pytest.raises(ValueError):
            hierarchical_report(np.zeros(3), np.zeros(3), spec, metric="mae")

    def test_grouped_level_aggregation(self):
        rng = np.random.default_rng(40)
        y = rng.normal(size=6)
        pred = rng.normal(size=6)
        spec = HierarchySpec(
            [
                HierarchyLevel(weight=0.5, identity=True),
                HierarchyLevel(
                    weight=0.5,
                    groups={
                        "left": np.array([0, 1, 2]),
                        "right": np.array([3, 4, 5]),
                    },
                ),
            ]
        )
        report = hierarchical_report(y, pred, spec, metric="rmse")
        agg_y = np.array([y[:3].sum(), y[3:].sum()])
        agg_p = np.array([pred[:3].sum(), pred[3:].sum()])
        assert report.breakdown["1"] == pytest.approx(rmse(agg_y, agg_p))
        assert report.breakdown_n["1"] == 2


def loop_group_sums(values, ids, n_groups):
    """Per-group Python loop: each group sums its members in row order."""
    rows = values.reshape(-1, values.shape[-1])
    out = np.zeros((rows.shape[0], n_groups))
    for s in range(rows.shape[0]):
        for g in range(n_groups):
            total = 0.0
            for i in np.flatnonzero(ids == g):
                total += float(rows[s, i])
            out[s, g] = total
    return out.reshape(values.shape[:-1] + (n_groups,))


def spec_of(ids, n_groups):
    """An identity level and the level that puts row i in group ids[i]."""
    groups = {str(g): np.flatnonzero(ids == g) for g in range(n_groups)}
    return HierarchySpec(
        [HierarchyLevel(weight=1.0, identity=True), HierarchyLevel(weight=0.5, groups=groups)]
    )


def layouts(samples):
    """The same sample matrix row-major, column-major, and as evaluate
    reads it: the transposed sample columns of a row-major file."""
    file = np.zeros((samples.shape[1], samples.shape[0] + 3))
    file[:, 3:] = samples.T
    return {"C": samples, "F": np.asfortranarray(samples), "file": file[:, 3:].T}


@st.composite
def grouped_values(draw):
    n = draw(st.integers(1, 24))
    n_groups = draw(st.integers(1, 8))
    # Ids drawn freely: groups may be empty and members need not be
    # contiguous or sorted.
    ids = np.array(draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n)))
    m = draw(st.one_of(st.none(), st.integers(1, 4)))
    shape = (n,) if m is None else (m, n)
    # Mixed magnitudes make the summation order visible in the last bits.
    reals = st.floats(-1e12, 1e12, allow_nan=False) | st.floats(-1.0, 1.0)
    cells = draw(
        st.lists(reals, min_size=math.prod(shape), max_size=math.prod(shape))
    )
    return np.array(cells).reshape(shape), ids, n_groups


class TestGroupSums:
    """`HierarchySpec.group_sums`, the one group-sum rule of the loss and
    the reports."""

    @given(grouped_values(), st.sampled_from(["C", "F", "file"]))
    def test_equals_sequential_per_group_loop(self, case, layout):
        values, ids, n_groups = case
        expected = loop_group_sums(values, ids, n_groups)
        if values.ndim == 2:
            values = layouts(values)[layout]
        sums = spec_of(ids, n_groups).group_sums(1, values)
        assert sums.shape == values.shape[:-1] + (n_groups,)
        np.testing.assert_array_equal(sums, expected)

    def test_crps_report_allocates_no_dense_one_hot(self):
        """Nor a key matrix or a copy of the samples: the report's traced
        peak stays below the sample matrix, in every layout."""
        n, n_groups, m = 4000, 1000, 20
        rng = np.random.default_rng(42)
        y = rng.normal(size=n)
        spec = spec_of(np.arange(n) % n_groups, n_groups)
        for samples in layouts(rng.normal(size=(m, n))).values():
            tracemalloc.start()
            try:
                hierarchical_report(y, samples, spec, metric="crps")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # An (n, n_groups) one-hot alone would take 32 MB here.
            assert peak < samples.nbytes


class TestCrpsReportLayouts:
    """A crps report reads its sample matrix in 256-row blocks, in place:
    every layout gives the bits of the whole matrix's row scores, with
    and without levels, a last block one row wide included."""

    @given(
        n=st.sampled_from([1, 255, 256, 257, 513]),
        m=st.integers(1, 6),
        n_groups=st.none() | st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_layout_gives_the_whole_matrix_bits(self, n, m, n_groups, seed):
        rng = np.random.default_rng(seed)
        samples = rng.lognormal(size=(m, n)) * 10.0 ** rng.integers(-3, 4, n)
        y = rng.normal(size=n)
        ids = rng.integers(0, n_groups or 1, n)
        spec = None if n_groups is None else spec_of(ids, n_groups)
        reports = {
            name: hierarchical_report(y, matrix, spec, metric="crps")
            for name, matrix in layouts(samples).items()
        }
        assert len(set(map(repr, reports.values()))) == 1
        report = reports["C"]
        assert report.value == float(np.mean(crps_empirical_rows(samples, y)))
        if spec is None:
            assert report.breakdown is None
        else:
            level_rows = crps_empirical_rows(
                loop_group_sums(samples, ids, n_groups), loop_group_sums(y, ids, n_groups)
            )
            assert report.breakdown == {"0": report.value, "1": float(np.mean(level_rows))}
            assert report.breakdown_n == {"0": n, "1": n_groups}


def sequential_means(samples):
    """Each row's mean, its draws summed one after another in order."""
    total = samples[0].copy()
    for draws in samples[1:]:
        total += draws
    return total / len(samples)


class TestRmseReportLayouts:
    """An rmse report on a sample matrix sums each row's draws in order,
    reading 256-row blocks in place: every layout gives the same bits,
    those of `np.mean` on the C-ordered matrix, with and without levels."""

    @given(
        n=st.sampled_from([1, 2, 255, 256, 257, 513]),
        m=st.integers(1, 40),
        n_groups=st.none() | st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_layout_gives_the_same_bits(self, n, m, n_groups, seed):
        rng = np.random.default_rng(seed)
        # Mixed magnitudes make the summation order visible in the last bits.
        samples = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4, (m, n))
        y = rng.normal(size=n)
        ids = rng.integers(0, n_groups or 1, n)
        spec = None if n_groups is None else spec_of(ids, n_groups)
        reports = {
            name: hierarchical_report(y, matrix, spec, metric="rmse")
            for name, matrix in layouts(samples).items()
        }
        assert len(set(map(repr, reports.values()))) == 1
        report = reports["C"]
        means = sequential_means(samples)
        assert report.value == rmse(y, means)
        if n >= 2:  # one row alone numpy sums pairwise
            assert means.tobytes() == np.mean(samples, axis=0).tobytes()
        if spec is not None:
            level_means = sequential_means(loop_group_sums(samples, ids, n_groups))
            assert report.breakdown["1"] == rmse(loop_group_sums(y, ids, n_groups), level_means)

    def test_an_empty_sample_matrix_is_refused(self):
        with pytest.raises(EmptySamples):
            hierarchical_report(np.zeros(3), np.zeros((0, 3)), metric="rmse")

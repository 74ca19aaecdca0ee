"""Tests of the benchmark's own logic: span self time, summaries, metric
names, input generation and every output check failing on a corrupted
output. They run no benchmark workload."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent


# --- spans and self time -------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span("root", 0.0, 10.0, -1),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("a.inner", 2.0, 3.0, 1),
        tracing.Span("b", 5.0, 6.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        tracing.Span("root", 0.0, 10.0, -1),
        tracing.Span("a", 2.0, 6.0, 0),
        tracing.Span("b", 4.0, 8.0, 0),
        tracing.Span("c", 9.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_excludes_per_row_counter_time():
    span = tracing.Span("sample", 0.0, 5.0, -1, covered={"match_params": 1.5})
    assert tracing.self_times([span]) == pytest.approx([3.5])


def test_tracer_nests_spans_and_counters():
    tracer = tracing.Tracer()
    leaf = tracer.counter("per_row", lambda x: x + 1)
    inner = tracer.span("inner", lambda xs: [leaf(x) for x in xs],
                        counts=lambda a, r: {"rows": len(a["xs"])})
    outer = tracer.span("outer", lambda n: inner(range(n)))
    assert outer(4) == [1, 2, 3, 4]
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    totals = tracing.layer_totals(tracer)
    assert totals["inner"]["rows"] == 4
    assert totals["per_row"]["calls"] == 4
    assert totals["inner"]["self_s"] <= totals["inner"]["s"]
    assert tracing.command_breakdown(tracer)["outer"].keys() == {"outer", "inner", "per_row"}


def test_family_seconds_skips_a_sample_call_that_raised():
    tracer = tracing.Tracer()

    def sample(spec):
        if spec == "bad":
            raise ValueError(spec)
        return spec

    traced = tracer.span(
        "dist.sample", sample, counts=lambda a, r: {"family." + a["spec"]: 1.0})
    traced("normal")
    with pytest.raises(ValueError):
        traced("bad")
    assert tracing.family_seconds(tracer).keys() == {"normal"}


def test_instrumented_sees_calls_through_every_name_and_restores():
    import pgbm
    import pgbm.cli

    original = pgbm.tree.find_best_split
    handler = pgbm.cli._HANDLERS["train"]
    tracer = tracing.Tracer()
    x = np.random.default_rng(0).uniform(size=(60, 3))
    data = pgbm.RawDataset(x, x[:, 0] + x[:, 1], ["a", "b", "c"])
    with tracing.Instrumented(tracer):
        assert pgbm.find_best_split is not original
        assert pgbm.cli._HANDLERS["train"] is not handler
        model = pgbm.train(data, pgbm.mse_gradhess, pgbm.BoostConfig(n_estimators=2))
    assert pgbm.tree.find_best_split is original and pgbm.find_best_split is original
    assert pgbm.cli._HANDLERS["train"] is handler
    totals = tracing.layer_totals(tracer)
    assert totals["tree.grow_tree"]["calls"] == 2
    assert totals["tree.grow_tree"]["splits"] == sum(len(t.nodes) for t in model.trees)
    assert totals["tree.find_best_split"]["calls"] >= 2
    by_name = {s.name: s for s in tracer.spans}
    parent = tracer.spans[by_name["tree.find_best_split"].parent]
    assert parent.name == "tree.grow_tree"


def test_reference_workload_is_fixed_and_imports_no_pgbm():
    import ast

    import reference

    tree = ast.parse((ROOT / "benchmarks" / "reference.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "numpy"}
    first = reference.kernel(1)
    assert np.isfinite(first) and reference.kernel(1) == first


# --- summaries and names -------------------------------------------------

def test_summary_reports_median_count_and_no_percentile_for_few_samples():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary["n"] == 3 and summary["median"] == 2.0
    assert summary["min"] == 1.0 and summary["max"] == 3.0
    assert summary["percentile"] is None


@pytest.mark.parametrize("n, p", [(100, 90.0), (1000, 99.0), (40, 75.0), (10000, 99.9)])
def test_summary_percentile_has_ten_samples_beyond_it(n, p):
    values = [float(i) for i in range(n)]
    summary = stats.summarize(values)
    assert summary["percentile"]["p"] == p
    beyond = sum(v > summary["percentile"]["value"] for v in values)
    assert beyond >= 10


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # quantiles(n=4, exclusive) gives 11.75 and 17.25; median 14.5
    assert stats.quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


@pytest.mark.parametrize("name", ["setup_s", "tree.find_best_split.s", "a-b.c_1", "9lives"])
def test_valid_metric_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".s", "has space", "x/y", "é", "a" * 65])
def test_invalid_metric_names(name):
    assert not stats.valid_name(name)


def test_declared_metrics_have_valid_unique_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(n) for n in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(stats.valid_unit(u) for u in units)


# --- inputs --------------------------------------------------------------

def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    def make(seed, tag):
        paths = [tmp_path / f"{tag}-{i}" for i in range(5)]
        inputs.synth(seed, 40, 10, 6, paths[0], paths[1])
        inputs.hier(seed, 100, (5, 20), paths[2], paths[3], paths[4])
        return [p.read_bytes() for p in paths]

    assert make(7, "a") == make(7, "b")
    assert make(7, "a")[0] != make(8, "c")[0]


def test_hierarchy_file_partitions_the_rows():
    import pgbm

    spec = pgbm.parse_hierarchy(inputs.hierarchy_text(100, (10, 50), (1.0, 0.5, 0.1)))
    assert [level.weight for level in spec.levels] == [1.0, 0.5, 0.1]
    ids, keys = spec.group_ids(2, 100)
    assert len(keys) == 2 and ids[49] == 0 and ids[50] == 1


# --- output checks, each failing on a corrupted output -------------------

EVALUATE_OUT = "metric,level,group,value,n\ncrps,global,all,0.25,10\nrmse,global,all,0.5,10\n"
SWEEP_OUT = "dist,rho,crps\nnormal,0.0,0.3\nnormal,0.05,0.25\nbest: dist=normal rho=0.05 crps=0.25\n"


def test_exit_code_check():
    checks.exit_code("train", 0)
    with pytest.raises(checks.CheckFailed, match="exit code 3: error: boom"):
        checks.exit_code("train", 3, "error: boom\n")


def test_row_count_check(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("row,mu,var\n0,1.0,0.1\n1,2.0,0.2\n")
    checks.row_count("predict", path, 2)
    path.write_text("row,mu,var\n0,1.0,0.1\n")
    with pytest.raises(checks.CheckFailed, match="1 rows, expected 2"):
        checks.row_count("predict", path, 2)


def test_evaluate_scores_check():
    assert checks.evaluate_scores(EVALUATE_OUT, ("crps", "rmse")) == {"crps": 0.25, "rmse": 0.5}
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.evaluate_scores(EVALUATE_OUT.replace("0.25", "nan"), ("crps",))
    with pytest.raises(checks.CheckFailed, match="no global rmse"):
        checks.evaluate_scores(EVALUATE_OUT.replace("rmse,global", "rmse,0"), ("rmse",))


def test_sweep_scores_check():
    cells, best = checks.sweep_scores(SWEEP_OUT, 2)
    assert best == 0.25 and cells[("normal", 0.05)] == 0.25
    with pytest.raises(checks.CheckFailed, match="grid cells"):
        checks.sweep_scores(SWEEP_OUT, 3)
    with pytest.raises(checks.CheckFailed, match="not the grid minimum"):
        checks.sweep_scores(SWEEP_OUT.replace("crps=0.25", "crps=0.3"), 2)
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.sweep_scores(SWEEP_OUT.replace("0.0,0.3", "0.0,inf"), 2)


def test_sweep_cell_check():
    cells, _ = checks.sweep_scores(SWEEP_OUT, 2)
    checks.sweep_cell_matches(cells, "normal", 0.05, 0.25)
    with pytest.raises(checks.CheckFailed, match="predict\\+evaluate gave"):
        checks.sweep_cell_matches(cells, "normal", 0.05, 0.25000000000000006)


@pytest.fixture
def tiny_model(tmp_path):
    import pgbm

    x = np.random.default_rng(1).uniform(size=(80, 2))
    data = pgbm.RawDataset(x, np.sin(3 * x[:, 0]), ["a", "b"])
    model = pgbm.train(data, pgbm.mse_gradhess, pgbm.BoostConfig(n_estimators=3))
    path = tmp_path / "model.txt"
    pgbm.save(model, path)
    csv = tmp_path / "data.csv"
    inputs.write_csv(csv, {"a": x[:, 0], "b": x[:, 1]})
    return pgbm, path, csv


def test_model_roundtrip_check(tiny_model, tmp_path):
    pgbm, path, _ = tiny_model
    checks.model_roundtrip(pgbm, path, tmp_path / "copy.txt")
    path.write_text(path.read_text().replace("learning_rate = 0.1", "learning_rate = 0.10"))
    with pytest.raises(checks.CheckFailed, match="changes under load -> save"):
        checks.model_roundtrip(pgbm, path, tmp_path / "copy.txt")


def test_moments_check(tiny_model, tmp_path):
    pgbm, path, csv = tiny_model
    mu, var = checks.library_moments(pgbm, path, csv, 0.05)
    pred = tmp_path / "pred.csv"
    rows = [f"{i},{float(m)!r},{float(v)!r},1.0" for i, (m, v) in enumerate(zip(mu, var))]
    pred.write_text("row,mu,var,s0\n" + "\n".join(rows) + "\n")
    checks.moments_match(pred, mu, var)
    nudged = mu.copy()
    nudged[5] = np.nextafter(nudged[5], np.inf)
    with pytest.raises(checks.CheckFailed, match="mu of row 5"):
        checks.moments_match(pred, nudged, var)


def test_digest_check(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("a\n")
    first = checks.sha256(path)
    checks.same_digests("train", "model", [first, checks.sha256(path)])
    path.write_text("b\n")
    with pytest.raises(checks.CheckFailed, match="model differs across repeats"):
        checks.same_digests("train", "model", [first, checks.sha256(path)])

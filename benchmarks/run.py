"""Run one benchmark workload against the pgbm in this checkout.

    python3 benchmarks/run.py --workload wine --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (or anywhere: paths resolve from this
file). The workload's inputs are generated from ``--seed``, then its
`train`, `predict`, `evaluate` and `sweep` commands run one after
another as `python3 -m pgbm.cli` subprocesses (closed loop, one client),
repeated until ``--seconds`` is used up and at least three times.

With ``--trace 0`` the end-to-end metrics are the medians over those
repeats. Before each command the fixed reference workload
(reference.py) runs as a subprocess too, and the gated times divide
each command's time by that reference run's time. With ``--trace 1``
untraced and traced repeats alternate; the traced ones run the same
argv through ``pgbm.cli.main`` in this process with timing wrappers
around the layers (see tracing.py) and give the per-layer metrics.

Every repeat's outputs are checked (checks.py). Stdout gets one line per
metric with its unit, then a last line of JSON with ``correct``,
``attempted``, ``failed`` and the metrics that BENCHMARK.json declares
for the mode. The exit code is 0 when every check passed, 1 when one
failed and 2 when the checkout has no pgbm to run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# numpy's BLAS starts one thread per core at import, and they spin on
# the other core while the main thread works. Every process of the
# benchmark, this one and its children, runs them on one thread, so the
# timings do not depend on whether the other core is busy. Set before
# numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WINE_CSV, WORKLOADS, Plan  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_REPEATS = 3
# Stop starting repeats past this many seconds even below MIN_REPEATS,
# so that a much slower program still ends within the run limit.
HARD_STOP_S = 100.0
SAMPLED_FAMILIES = ("normal", "lognormal", "weibull", "negativebinomial")
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# setup_s is reported in seconds of a machine on which one reference run
# takes this long, about its median on a 2-vCPU Xeon at 2.1 GHz.
REFERENCE_S = 0.3
# Printed for reading but absent from the JSON line. Times in seconds
# drift with the machine's load by more than any useful bound between
# runs; divided by the reference's time they drift less (setup_s), and
# their sum over the commands (pipeline_ref, pipeline_cpu_ref) least. crps has no
# value on a workload whose predict writes no samples, and
# failed_ops_ratio is 0 on a correct run (the JSON line carries it as
# failed / attempted).
REPORT_ONLY_UNITS = {"setup_wall_s": "s", "pipeline_s": "s", "pipeline_cpu_s": "s",
                     "reference_s": "s", "reference_cpu_s": "s", "crps": "y",
                     "failed_ops_ratio": "ratio"}
for _op in ("train", "predict", "evaluate", "sweep"):
    REPORT_ONLY_UNITS |= {f"{_op}_s": "s", f"{_op}_ref": "ref", f"{_op}_cpu_ref": "ref"}


class CheckoutError(Exception):
    """The directory holds no runnable pgbm."""


@dataclass
class Outcome:
    op: str
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Commands attempted and failed, with the reasons."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: set[tuple[int, str]] = field(default_factory=set)

    def fail(self, repeat: int, error: checks.CheckFailed) -> None:
        self.failures.append(f"repeat {repeat}: {error}")
        self.failed_ops.add((repeat, error.op))

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(op: str, command: list[str], env: dict[str, str], scratch: Path) -> Outcome:
    """Run ``command``; wall time, CPU time and peak RSS of the child
    come from wait4."""
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"))


def run_cli(op: str, argv: list[str], env: dict[str, str], scratch: Path) -> Outcome:
    """Run `python3 -m pgbm.cli <argv>`."""
    return run_child(op, [sys.executable, "-m", "pgbm.cli", *argv], env, scratch)


def run_reference(env: dict[str, str], scratch: Path) -> Outcome:
    """Run reference.py. It is not the program under test, so a failure
    ends the benchmark instead of counting as a failed command."""
    outcome = run_child("reference", [sys.executable, str(REFERENCE)], env, scratch)
    if outcome.code != 0:
        raise RuntimeError(f"reference.py exited {outcome.code}: {outcome.stderr.strip()}")
    return outcome


def import_pgbm():
    """Import pgbm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pgbm" / "cli.py").is_file():
        raise CheckoutError(f"no pgbm package under {src}")
    sys.path.insert(0, str(src))
    import pgbm
    import pgbm.cli

    if Path(pgbm.__file__).resolve().parent != (src / "pgbm").resolve():
        raise CheckoutError(f"imported pgbm from {pgbm.__file__}, not from {src}")
    return pgbm


class Runner:
    """One workload at one seed: its plan, and the checks over repeats."""

    def __init__(self, plan: Plan, pgbm, work: Path):
        self.plan = plan
        self.pgbm = pgbm
        self.work = work
        self.env = child_env()
        self.tally = Tally()
        self.digests: dict[str, list[str]] = {}
        self.scores: dict[str, float] = {}

    def run_untraced(self, setup: list[float] | None = None, every: int = 4,
                     reference: list[Outcome] | None = None) -> list[Outcome]:
        """Run the commands once; with ``setup``, time one `--version`
        before every ``every``-th command and append it there; with
        ``reference``, run the reference workload before every command
        and append its outcome there."""
        outcomes = []
        for index, (op, argv) in enumerate(self.plan.steps):
            if setup is not None and index % every == 0:
                setup.append(run_cli("setup", ["--version"], self.env, self.work).wall)
            if reference is not None:
                reference.append(run_reference(self.env, self.work))
            outcomes.append(run_cli(op, argv, self.env, self.work))
        return outcomes

    def run_traced(self, tracer: tracing.Tracer) -> list[Outcome]:
        outcomes = []
        with tracing.Instrumented(tracer):
            for op, argv in self.plan.steps:
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = self.pgbm.cli.main(list(argv))
                    except Exception:  # an uncaught error; the CLI would exit 1
                        traceback.print_exc()
                        code = 1
                outcomes.append(Outcome(op, time.perf_counter() - start, 0.0, 0.0, code,
                                        out.getvalue(), err.getvalue()))
        return outcomes

    def check(self, repeat: int, outcomes: list[Outcome]) -> None:
        """Check the outputs of one repeat."""
        plan = self.plan
        by_op = {o.op: o for o in outcomes}
        self.tally.attempted += len(outcomes)
        for o in outcomes:
            self._guard(repeat, o.op, checks.exit_code, o.op, o.code, o.stderr)
        self._guard(repeat, "predict", checks.row_count, "predict", plan.pred, plan.pred_rows)
        scores = self._guard(repeat, "evaluate", checks.evaluate_scores,
                             by_op["evaluate"].stdout, plan.eval_metrics) or {}
        swept = self._guard(repeat, "sweep", checks.sweep_scores, by_op["sweep"].stdout,
                            plan.sweep_cells)
        if swept is not None:
            scores["sweep_best_crps"] = swept[1]
            if plan.sweep_check is not None and "crps" in scores:
                self._guard(repeat, "sweep", checks.sweep_cell_matches, swept[0],
                            plan.sweep_check, plan.pred_rho, scores["crps"])
        if repeat == 0:
            self.scores = scores
        for op, name, digest in (
            ("train", "model", lambda: checks.sha256(plan.model)),
            ("predict", "predict_csv", lambda: checks.sha256(plan.pred)),
            ("evaluate", "evaluate_stdout", lambda: checks.sha256_text(by_op["evaluate"].stdout)),
            ("sweep", "sweep_stdout", lambda: checks.sha256_text(by_op["sweep"].stdout)),
        ):
            values = self.digests.setdefault(name, [])
            value = self._guard(repeat, op, digest)
            if value is not None:
                values.append(value)
                self._guard(repeat, op, checks.same_digests, op, name, values)

    def check_against_library(self, repeat: int) -> None:
        """After the measured repeats: the last model survives load -> save
        and the last predict CSV holds the library's moments."""
        plan = self.plan
        self._guard(repeat, "train", checks.model_roundtrip, self.pgbm, plan.model,
                    self.work / "model-resaved.txt")
        self._guard(repeat, "predict", self._check_moments)

    def _check_moments(self) -> None:
        mu, var = checks.library_moments(self.pgbm, self.plan.model, self.plan.pred_data,
                                         self.plan.pred_rho)
        checks.moments_match(self.plan.pred, mu, var)

    def _guard(self, repeat: int, op: str, check, *args):
        """Run one check; a failure, or an error reading an output, counts
        against command ``op``."""
        try:
            return check(*args)
        except checks.CheckFailed as error:
            self.tally.fail(repeat, error)
        except (OSError, ValueError, self.pgbm.errors.PgbmError) as error:
            self.tally.fail(repeat, checks.CheckFailed(op, repr(error)))
        return None


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced repeats: returns (metrics, per-metric samples and summary).

    Every repeat runs the reference workload before each command. A
    command's time divided by that reference run's time cancels the
    machine's speed at that moment. ``pipeline_ref`` sums over the
    commands the median of those ratios over the repeats, so it reads
    in multiples of one reference run; ``pipeline_cpu_ref`` does the
    same with CPU times."""
    setup: list[float] = []
    repeats: list[list[Outcome]] = []
    references: list[list[Outcome]] = []
    run_cli("setup", ["--version"], runner.env, runner.work)  # warm the bytecode cache
    run_reference(runner.env, runner.work)
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        reference: list[Outcome] = []
        outcomes = runner.run_untraced(setup, reference=reference)
        runner.check(len(repeats), outcomes)
        repeats.append(outcomes)
        references.append(reference)
        now = time.perf_counter()
        elapsed, last = now - start, now - begun
        if elapsed > HARD_STOP_S or (len(repeats) >= MIN_REPEATS and elapsed + last > seconds):
            break
    runner.check_against_library(len(repeats) - 1)
    ops = [op for op, _ in runner.plan.steps]
    # Each command paired with the reference run just before it.
    pairs = [(o, ref) for rep, refs in zip(repeats, references) for o, ref in zip(rep, refs)]
    # The one `--version` of each repeat runs just before its first
    # reference run.
    samples: dict[str, list[float]] = {
        "setup_wall_s": setup,
        "setup_s": [s / refs[0].wall * REFERENCE_S for s, refs in zip(setup, references)],
    }
    for op in ops:
        samples[f"{op}_s"] = [o.wall for o, _ in pairs if o.op == op]
        samples[f"{op}_ref"] = [o.wall / ref.wall for o, ref in pairs if o.op == op]
        samples[f"{op}_cpu_ref"] = [o.cpu / ref.cpu for o, ref in pairs if o.op == op]
    samples["pipeline_s"] = [sum(o.wall for o in rep) for rep in repeats]
    samples["pipeline_cpu_s"] = [sum(o.cpu for o in rep) for rep in repeats]
    samples["reference_s"] = [ref.wall for _, ref in pairs]
    samples["reference_cpu_s"] = [ref.cpu for _, ref in pairs]
    samples["peak_rss_mb"] = [max(o.rss_mb for o in rep) for rep in repeats]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["pipeline_ref"] = sum(metrics[f"{op}_ref"] for op in ops)
    metrics["pipeline_cpu_ref"] = sum(metrics[f"{op}_cpu_ref"] for op in ops)
    metrics.update(runner.scores)
    metrics["failed_ops_ratio"] = runner.tally.failed / runner.tally.attempted
    return metrics, {name: stats.summarize(values) | {"samples": values}
                     for name, values in samples.items()}


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    totals = tracing.layer_totals(tracer)

    def get(name: str, key: str) -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name, keys in (
        ("data.load_csv", ("s", "rows")),
        ("data.compute_bin_edges", ("s",)),
        ("data.apply_bins", ("s", "cells")),
        ("tree.find_best_split", ("s", "calls", "candidates")),
        ("tree.build_histogram", ("s", "calls", "cells")),
        ("tree.subtract_histogram", ("s",)),
        ("tree.leaf_stats", ("s",)),
        ("tree.route_many", ("s", "rows")),
        ("tree.grow_tree", ("self_s", "calls")),
        ("loss.hier_wmse_gradhess", ("s", "calls")),
        ("loss.mse_gradhess", ("s",)),
        ("boost.train", ("self_s",)),
        ("boost.predict_moments", ("s",)),
        ("boost.tree_contributions", ("s",)),
        ("boost.accumulate_moments", ("s", "calls")),
        ("dist.sample", ("draws",)),
        ("dist.match_params", ("s", "calls")),
        ("metrics.crps_empirical_rows", ("s", "rows")),
        ("metrics.crps_normal", ("s", "calls")),
        ("metrics.hierarchical_report", ("s",)),
        ("model_io.save", ("s",)),
        ("model_io.load", ("s",)),
        ("cli.cmd_train", ("self_s",)),
        ("cli.cmd_predict", ("self_s", "out_bytes")),
        ("cli.cmd_evaluate", ("self_s",)),
        ("cli.cmd_sweep", ("self_s",)),
    ):
        for key in keys:
            metrics[f"{name}.{key}"] = get(name, key)
    metrics["tree.find_best_split.used_ratio"] = ratio(
        get("tree.grow_tree", "splits"), get("tree.find_best_split", "calls"))
    metrics["dist.sample.s"] = get("dist.sample", "self_s")
    metrics["dist.sample.fallback_ratio"] = ratio(
        get("dist.sample", "fallback_rows"), get("dist.sample", "rows"))
    by_family = tracing.family_seconds(tracer)
    for family in SAMPLED_FAMILIES:
        metrics[f"dist.sample.{family}.s"] = by_family.get(family, 0.0)
    metrics["model_io.model_bytes"] = ratio(get("model_io.save", "bytes"),
                                            get("model_io.save", "calls"))
    return metrics


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced repeats: returns (per-layer metrics
    as medians over traced repeats, plus the untraced wall time of each
    command, and the command breakdown of the first traced repeat).

    The traced repeat runs in this process, so it pays no interpreter
    start. Each untraced repeat therefore times one `--version` before
    every command, and ``trace.overhead_ratio`` divides the traced wall
    time by the untraced wall time minus those start-up times."""
    untraced: list[list[Outcome]] = []
    overhead: list[float] = []
    per_repeat: list[dict[str, float]] = []
    breakdown: dict = {}
    start = time.perf_counter()
    while True:
        setup: list[float] = []
        plain = runner.run_untraced(setup, every=1)
        runner.check(2 * len(untraced), plain)
        untraced.append(plain)
        tracer = tracing.Tracer()
        outcomes = runner.run_traced(tracer)
        runner.check(2 * len(untraced) - 1, outcomes)
        plain_s, traced_s = sum(o.wall for o in plain), sum(o.wall for o in outcomes)
        overhead.append(traced_s / (plain_s - sum(setup)))
        per_repeat.append(layer_metrics(tracer))
        if not breakdown:
            breakdown = tracing.command_breakdown(tracer)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S or elapsed + plain_s + sum(setup) + traced_s > seconds:
            break
    runner.check_against_library(2 * len(untraced) - 1)
    metrics = {name: statistics.median(rep[name] for rep in per_repeat)
               for name in per_repeat[0]}
    for op, _ in runner.plan.steps:
        metrics[f"cli.{op}.wall_s"] = statistics.median(
            o.wall for rep in untraced for o in rep if o.op == op)
    metrics["trace.overhead_ratio"] = statistics.median(overhead)
    return metrics, breakdown


def machine_info() -> dict:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: info.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    threads = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_thread_env": threads,
            "platform": platform.platform()}


def write_result(path: Path, key: str, record: dict) -> None:
    """Merge one run's record into a results file under ``key``."""
    results = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    results.setdefault("machine", record["machine"])
    results.setdefault("runs", {})[key] = record
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _terminate(signum, frame):
    # KeyboardInterrupt, unlike SystemExit, is not caught by pgbm.cli.main,
    # so it unwinds through the finally blocks that stop the running child
    # and delete the work directory.
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="merge the full run record into this JSON file")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / WINE_CSV).is_file():
            raise CheckoutError(f"missing {WINE_CSV}")
        pgbm = import_pgbm()
    except (OSError, CheckoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        plan = WORKLOADS[args.workload](args.seed, ROOT, work)
        generation_s = time.perf_counter() - start
        runner = Runner(plan, pgbm, work)
        if args.trace:
            metrics, extra = measure_layers(runner, args.seconds)
        else:
            metrics, extra = measure_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    units = {m["name"]: m["unit"] for m in declared}
    invalid = [name for name in metrics if not stats.valid_name(name)]
    if invalid:
        raise RuntimeError(f"invalid metric names {invalid}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    units.update({k: v for k, v in REPORT_ONLY_UNITS.items() if k not in units})
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if args.trace:
        for command, layers in extra.items():
            top = sorted(layers.items(), key=lambda item: -item[1])[:4]
            print(f"self time in {command}: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    for failure in runner.tally.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = not runner.tally.failures

    if args.out is not None:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_info(), "generation_s": generation_s,
            "metrics": metrics, "correct": correct, "failures": runner.tally.failures,
            "sha256": {name: values[0] for name, values in runner.digests.items() if values},
            ("command_breakdown" if args.trace else "timings"): extra,
        }
        write_result(args.out, f"{args.workload}/seed{args.seed}/trace{args.trace}", record)

    print(json.dumps({
        "correct": correct,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)

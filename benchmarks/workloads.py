"""The four benchmark workloads.

Each workload generates its inputs for a seed and returns a ``Plan``:
the CLI commands to run, one after another, and what their outputs are
checked against. Every workload runs all four commands, so every
end-to-end metric exists on every workload; each workload gives most of
its time to different layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import inputs

WINE_CSV = Path("tests/data/winequality-red.csv")
WINE_ROWS = 1599

# Sizes are chosen so that each workload still spends most of its time
# in its own layers while several repeats fit in one 25-second run.
SYNTH_ROWS, SYNTH_TEST_ROWS, SYNTH_FEATURES = 50_000, 10_000, 20
FORECAST_ROWS = 5_000
HIER_ROWS, HIER_GROUPS = 10_000, (10, 100)

# The rho that `predict` is given and that one sweep cell repeats.
CHECK_RHO = 0.05


@dataclass(frozen=True)
class Plan:
    steps: list[tuple[str, list[str]]]  # (command, argv after `pgbm`)
    model: Path
    pred: Path
    pred_data: Path          # CSV that predict read
    pred_rows: int
    pred_rho: float | None   # --rho given to predict
    eval_metrics: tuple[str, ...]
    sweep_cells: int
    sweep_check: str | None  # family whose (family, CHECK_RHO) cell must equal evaluate's crps


def _common(work: Path, train_args: list[str], data: Path, target: str,
            predict_args: list[str], eval_args: list[str],
            sweep_args: list[str]) -> list[tuple[str, list[str]]]:
    model, pred = work / "model.txt", work / "pred.csv"
    return [
        ("train", ["train", "--model-out", str(model), "--target", target, *train_args]),
        ("predict", ["predict", "--model", str(model), "--data", str(data),
                     "--out", str(pred), *predict_args]),
        ("evaluate", ["evaluate", "--pred", str(pred), "--actual", str(data),
                      "--target", target, *eval_args]),
        ("sweep", ["sweep", "--model", str(model), "--target", target, *sweep_args]),
    ]


def wine(seed: int, root: Path, work: Path) -> Plan:
    data = root / WINE_CSV
    steps = _common(
        work,
        ["--data", str(data), "--n-estimators", "300", "--max-leaves", "16",
         "--bagging-fraction", "0.8", "--feature-fraction", "0.7", "--seed", str(seed)],
        data, "quality",
        ["--dist", "normal", "--n-samples", "200", "--rho", str(CHECK_RHO), "--seed", str(seed)],
        ["--metrics", "crps,rmse"],
        ["--data", str(data), "--dists", "normal", "--rhos", f"0,{CHECK_RHO},0.1",
         "--n-samples", "200", "--seed", str(seed)],
    )
    return Plan(steps, work / "model.txt", work / "pred.csv", data, WINE_ROWS,
                CHECK_RHO, ("crps", "rmse"), 3, "normal")


def synth(seed: int, root: Path, work: Path) -> Plan:
    train, test = work / "synth.csv", work / "synth_test.csv"
    inputs.synth(seed, SYNTH_ROWS, SYNTH_TEST_ROWS, SYNTH_FEATURES, train, test)
    steps = _common(
        work,
        ["--data", str(train), "--n-estimators", "20", "--max-leaves", "16",
         "--seed", str(seed)],
        train, "y",
        ["--point-only"],
        ["--metrics", "rmse"],
        ["--data", str(test), "--dists", "normal", "--rhos", f"0,{CHECK_RHO}",
         "--n-samples", "50", "--seed", str(seed)],
    )
    return Plan(steps, work / "model.txt", work / "pred.csv", train, SYNTH_ROWS,
                None, ("rmse",), 2, None)


def forecast(seed: int, root: Path, work: Path) -> Plan:
    train, test = work / "train.csv", work / "test.csv"
    inputs.forecast(seed, FORECAST_ROWS, train, test)
    steps = _common(
        work,
        ["--data", str(train), "--n-estimators", "100", "--seed", str(seed)],
        test, "y",
        ["--dist", "lognormal", "--n-samples", "200", "--rho", str(CHECK_RHO),
         "--seed", str(seed)],
        ["--metrics", "crps,rmse"],
        ["--data", str(test), "--dists", "lognormal,weibull,negativebinomial",
         "--rhos", f"0,{CHECK_RHO},0.1", "--n-samples", "200", "--seed", str(seed)],
    )
    return Plan(steps, work / "model.txt", work / "pred.csv", test, FORECAST_ROWS,
                CHECK_RHO, ("crps", "rmse"), 9, "lognormal")


def hier(seed: int, root: Path, work: Path) -> Plan:
    train, test, spec = work / "train.csv", work / "test.csv", work / "hierarchy.txt"
    inputs.hier(seed, HIER_ROWS, HIER_GROUPS, train, test, spec)
    steps = _common(
        work,
        ["--data", str(train), "--loss", "hierwmse", "--hierarchy", str(spec),
         "--valid", str(test), "--valid-metric", "crps", "--early-stopping-rounds", "20",
         "--learning-rate", "0.05", "--n-estimators", "80", "--seed", str(seed)],
        test, "y",
        ["--dist", "normal", "--n-samples", "100", "--rho", str(CHECK_RHO), "--seed", str(seed)],
        ["--metrics", "crps,rmse", "--hierarchy", str(spec)],
        ["--data", str(test), "--dists", "normal", "--rhos", f"0,{CHECK_RHO}",
         "--n-samples", "100", "--seed", str(seed)],
    )
    return Plan(steps, work / "model.txt", work / "pred.csv", test, HIER_ROWS,
                CHECK_RHO, ("crps", "rmse"), 2, "normal")


WORKLOADS = {"wine": wine, "synth": synth, "forecast": forecast, "hier": hier}

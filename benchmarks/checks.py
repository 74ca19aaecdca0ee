"""Output checks for benchmark runs.

Each check raises ``CheckFailed`` naming the command whose output was
wrong; the runner counts that command as failed. The checks read only
files and printed text, plus the library's public functions where an
output must equal what the library computes in-process.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of command ``op`` failed a check."""

    def __init__(self, op: str, message: str):
        self.op = op
        super().__init__(f"{op}: {message}")


def exit_code(op: str, code: int, stderr: str = "") -> None:
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise CheckFailed(op, f"exit code {code}: {last[0]}")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_count(op: str, path: Path, expected: int) -> None:
    """A headed CSV holds exactly ``expected`` data rows."""
    with open(path, "rb") as handle:
        lines = sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))
    if lines - 1 != expected:
        raise CheckFailed(op, f"{path.name} has {lines - 1} rows, expected {expected}")


def _finite(op: str, name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(op, f"{name} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(op, f"{name} is not finite: {text!r}")
    return value


def evaluate_scores(stdout: str, metrics: tuple[str, ...]) -> dict[str, float]:
    """Global scores from `evaluate` output, each present and finite."""
    scores: dict[str, float] = {}
    for line in stdout.splitlines():
        cells = line.split(",")
        if len(cells) == 5 and cells[1:3] == ["global", "all"]:
            scores[cells[0]] = _finite("evaluate", cells[0], cells[3])
    for name in metrics:
        if name not in scores:
            raise CheckFailed("evaluate", f"no global {name} in the output")
    return scores


def sweep_scores(stdout: str, n_cells: int) -> tuple[dict[tuple[str, float], float], float]:
    """Grid cells and the `best:` CRPS from `sweep` output; every cell
    finite, the expected number of cells, and best equal to their minimum."""
    cells: dict[tuple[str, float], float] = {}
    best = None
    for line in stdout.splitlines():
        parts = line.split(",")
        if line.startswith("best:"):
            best = _finite("sweep", "best crps", line.rsplit("crps=", 1)[-1])
        elif len(parts) == 3 and parts[0] != "dist":
            cells[(parts[0], float(parts[1]))] = _finite("sweep", "cell crps", parts[2])
    if len(cells) != n_cells:
        raise CheckFailed("sweep", f"{len(cells)} grid cells, expected {n_cells}")
    if best is None or best != min(cells.values()):
        raise CheckFailed("sweep", f"best crps {best!r} is not the grid minimum")
    return cells, best


def sweep_cell_matches(cells: dict[tuple[str, float], float], dist: str,
                       rho: float, evaluate_crps: float) -> None:
    """The sweep cell for (dist, rho) equals predict followed by evaluate
    with the same family, rho, sample count and seed, exactly."""
    value = cells.get((dist, rho))
    if value != evaluate_crps:
        raise CheckFailed(
            "sweep", f"cell ({dist}, {rho}) is {value!r}, predict+evaluate gave {evaluate_crps!r}"
        )


def model_roundtrip(pgbm, model_path: Path, copy_path: Path) -> None:
    """load -> save reproduces the model file byte for byte."""
    pgbm.save(pgbm.load(model_path), copy_path)
    if copy_path.read_bytes() != model_path.read_bytes():
        raise CheckFailed("train", f"{model_path.name} changes under load -> save")


def library_moments(pgbm, model_path: Path, data_path: Path, rho: float | None):
    """(mu, var) from ``predict_moments`` on the model's feature columns."""
    model = pgbm.load(model_path)
    raw = pgbm.load_csv(data_path, None)
    columns = [raw.feature_names.index(name) for name in model.feature_names]
    data = pgbm.RawDataset(raw.features[:, columns], np.zeros(raw.n),
                           list(model.feature_names))
    moments = pgbm.predict_moments(model, data, rho=rho)
    return moments.mu, moments.var


def moments_match(pred_path: Path, mu: np.ndarray, var: np.ndarray) -> None:
    """The `mu,var` columns of a predict CSV equal the given vectors bit
    for bit."""
    with open(pred_path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",", 3)[:3]
        if header != ["row", "mu", "var"]:
            raise CheckFailed("predict", f"unexpected header {header!r}")
        parsed = [line.split(",", 3)[1:3] for line in handle]
    if len(parsed) != len(mu):
        raise CheckFailed("predict", f"{len(parsed)} rows, library gave {len(mu)}")
    got = np.array(parsed, dtype=np.float64).reshape(-1, 2)
    for column, expected, name in ((0, mu, "mu"), (1, var, "var")):
        differ = got[:, column].view(np.uint64) != np.asarray(expected, np.float64).view(np.uint64)
        if differ.any():
            row = int(np.argmax(differ))
            raise CheckFailed(
                "predict",
                f"{name} of row {row} is {float(got[row, column])!r}, "
                f"predict_moments gave {float(expected[row])!r}",
            )


def same_digests(op: str, name: str, digests: list[str]) -> None:
    """Repeats of one seed write identical bytes."""
    if len(set(digests)) > 1:
        raise CheckFailed(op, f"{name} differs across repeats: {sorted(set(digests))}")

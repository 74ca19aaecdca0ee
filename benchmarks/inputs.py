"""Seeded input generators for the benchmark workloads.

Every generator draws from ``numpy.random.default_rng([seed, stream])``
only, so one seed always gives byte-identical files. The program under
test sees nothing but these CSV and hierarchy files.
"""

from __future__ import annotations

from pathlib import Path
from statistics import NormalDist

import numpy as np

_FORMAT = "%.10g"


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length numeric columns as a headed CSV."""
    matrix = np.column_stack(list(columns.values()))
    np.savetxt(path, matrix, fmt=_FORMAT, delimiter=",",
               header=",".join(columns), comments="")


def _feature_columns(x: np.ndarray) -> dict[str, np.ndarray]:
    return {f"x{j}": x[:, j] for j in range(x.shape[1])}


def synth(seed: int, n_rows: int, n_test: int, n_features: int,
          train_path: Path, test_path: Path) -> None:
    """Heteroscedastic regression: a smooth mean plus noise whose scale
    depends on two of the features. The first ``n_rows`` rows go to the
    training file, the next ``n_test`` to the test file."""
    rng = np.random.default_rng([seed, 1])
    n = n_rows + n_test
    x = rng.uniform(-2.0, 2.0, size=(n, n_features))
    mean = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 + x[:, 2] * x[:, 3]
    for j in range(4, n_features):
        mean += 0.2 * np.cos(x[:, j]) * (1 if j % 2 else -1)
    scale = 0.2 + 0.4 * np.abs(x[:, 0]) + 0.3 * (x[:, 4] > 0)
    y = mean + scale * rng.standard_normal(n)
    write_csv(train_path, {**_feature_columns(x[:n_rows]), "y": y[:n_rows]})
    write_csv(test_path, {**_feature_columns(x[n_rows:]), "y": y[n_rows:]})


def forecast(seed: int, n_rows: int, train_path: Path, test_path: Path) -> None:
    """Positive, right-skewed target: lognormal noise around a log-mean
    that depends on four of five features; the fifth sets the spread.
    Each file's noise is a permutation of the same normal scores, so the
    heavy tail is the same for every seed and scores vary less between
    seeds."""
    rng = np.random.default_rng([seed, 2])
    for path in (train_path, test_path):
        x = rng.uniform(0.0, 1.0, size=(n_rows, 5))
        log_mean = 1.0 + 0.8 * x[:, 0] + 0.5 * np.sin(3.0 * x[:, 1]) + 0.3 * x[:, 2] * x[:, 3]
        log_scale = 0.2 + 0.4 * x[:, 4]
        y = np.exp(log_mean + log_scale * _normal_scores(rng, n_rows))
        write_csv(path, {**_feature_columns(x), "y": y})


def hier(seed: int, n_rows: int, sizes: tuple[int, int], train_path: Path,
         test_path: Path, hierarchy_path: Path) -> None:
    """Rows in contiguous nested groups of ``sizes[0]`` and ``sizes[1]``
    rows, each group adding a shared offset to the target (scale 0.3 for
    the small groups, 1 for the large). Feature x4 is
    a noisy view of the coarse group's offset, so the trees can learn
    part of it. Train and test share one group layout and hence one
    hierarchy file."""
    small, large = sizes
    if n_rows % large or large % small:
        raise ValueError("group sizes must nest and divide the row count")
    rng = np.random.default_rng([seed, 3])
    rows = np.arange(n_rows)
    for path in (train_path, test_path):
        x = rng.uniform(-1.0, 1.0, size=(n_rows, 5))
        fine = 0.3 * _normal_scores(rng, n_rows // small)[rows // small]
        coarse = _normal_scores(rng, n_rows // large)[rows // large]
        x[:, 4] = coarse + 0.3 * rng.standard_normal(n_rows)
        y = (np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + fine + coarse
             + 0.3 * rng.standard_normal(n_rows))
        write_csv(path, {**_feature_columns(x), "y": y})
    hierarchy_path.write_text(hierarchy_text(n_rows, sizes, (1.0, 0.5, 0.1)),
                              encoding="utf-8")


def _normal_scores(rng: np.random.Generator, k: int) -> np.ndarray:
    """The standard normal quantiles at (i + 0.5) / k, in a seeded random
    order: every seed gets the same set of values, so scores vary less
    from seed to seed than with independent draws."""
    quantile = NormalDist().inv_cdf
    return rng.permutation([quantile((i + 0.5) / k) for i in range(k)])


def hierarchy_text(n_rows: int, sizes: tuple[int, ...],
                   weights: tuple[float, ...]) -> str:
    """An identity level followed by one level of contiguous groups per
    size, in the ``levels=<k>`` text format the package parses."""
    lines = [f"levels={len(sizes) + 1}", f"level 0 weight={weights[0]!r} identity"]
    for a, size in enumerate(sizes, start=1):
        lines.append(f"level {a} weight={weights[a]!r}")
        for start in range(0, n_rows, size):
            members = ",".join(str(i) for i in range(start, start + size))
            lines.append(f"group g{start // size}: {members}")
    return "\n".join(lines) + "\n"

"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from pgbm import RawDataset, _shares, load_csv

DATA_DIR = pathlib.Path(__file__).parent / "data"

# Property tests draw the same examples on every run and never time out,
# so a slow or busy host cannot make them flaky.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=150, database=None
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def wine() -> RawDataset:
    """Red wine quality table: 1599 rows, 11 features, integer target."""
    return load_csv(DATA_DIR / "winequality-red.csv", "quality")


def make_regression(seed: int, n: int, f: int, noise: float = 0.1) -> RawDataset:
    """Small nonlinear regression problem used across tree/boost tests."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, f))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 0] ** 2
    for j in range(1, f):
        y = y + 0.3 * np.cos(x[:, j]) * (j % 2 * 2 - 1)
    y = y + noise * rng.normal(size=n)
    names = [f"x{j}" for j in range(f)]
    return RawDataset(x, y, names)


def load_outcome(load, path, target_column):
    """Everything a caller can observe of one load: the arrays' bits and
    names, or the exception's class, message, row and column."""
    try:
        data = load(path, target_column)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None))
    return (
        data.features.shape, data.features.tobytes(), data.target.tobytes(),
        data.feature_names, data.target_name,
    )


def use_workers(monkeypatch, n: int) -> None:
    """Act as if this process may run on ``n`` CPUs, and let a share be as
    small as one value, so that small test inputs are split over forked
    workers (`pgbm._shares`). The processes keep their real affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setattr(_shares, "_MIN_SHARE_VALUES", 1)

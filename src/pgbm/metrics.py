"""Probabilistic and point scoring: CRPS, RMSE, hierarchical reports.

CRPS is estimated from Monte-Carlo samples by the energy form

    (1/m) sum_i |x_i - y| - (1/(2 m^2)) sum_i sum_j |x_i - x_j|

where the double sum is computed in O(m log m) from the sorted samples:
sum_ij |x_i - x_j| = 2 * sum_k (2k - m + 1) x_(k) with k zero-based.
A closed-form normal CRPS is also provided so validation-time stopping
can score the learned (mu, var) without sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySamples, LengthMismatch
from .loss import HierarchySpec

_erf = np.frompyfunc(math.erf, 1, 1)

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def crps_empirical(samples: np.ndarray, y: float) -> float:
    """Energy-form CRPS of one forecast sample set against a scalar."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("samples must be a 1-D vector")
    if samples.size == 0:
        raise EmptySamples("need at least one sample")
    return float(crps_empirical_rows(samples[:, None], np.array([y]))[0])


def crps_empirical_rows(samples: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row CRPS for a sample matrix shaped (m, n) against y [n]."""
    samples = np.asarray(samples, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("samples must be a matrix shaped (n_samples, n_rows)")
    m = samples.shape[0]
    if m == 0:
        raise EmptySamples("need at least one sample")
    if samples.shape[1] != y.shape[0]:
        raise LengthMismatch(
            f"sample matrix has {samples.shape[1]} rows, y has {y.shape[0]}"
        )
    term1 = np.mean(np.abs(samples - y[None, :]), axis=0)
    xs = np.sort(samples, axis=0)
    weights = 2.0 * np.arange(m) - m + 1.0
    term2 = (weights @ xs) / (m * m)
    return term1 - term2


def rmse(y: np.ndarray, yhat: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise LengthMismatch(f"y has shape {y.shape}, yhat has shape {yhat.shape}")
    if y.size == 0:
        raise ValueError("need at least one pair")
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def crps_normal(y, mu, var) -> np.ndarray:
    """Closed-form CRPS of a normal forecast N(mu, var), elementwise.

    CRPS = sigma * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)) with
    z = (y - mu)/sigma; degenerate sigma = 0 reduces to |y - mu|.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.sqrt(np.asarray(var, dtype=np.float64))
    dev = y - mu
    positive = sigma > 0
    z = np.divide(dev, sigma, out=np.zeros_like(dev), where=positive)
    cdf_term = _erf(z / math.sqrt(2.0)).astype(np.float64)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    value = sigma * (z * cdf_term + 2.0 * pdf - _INV_SQRT_PI)
    return np.where(positive, value, np.abs(dev))


@dataclass(frozen=True)
class MetricReport:
    """One scored metric, optionally broken down by hierarchy level."""

    name: str
    value: float
    n: int
    breakdown: dict[str, float] | None = None
    breakdown_n: dict[str, int] | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("metric value must be finite")
        if self.n < 1:
            raise ValueError("n must be at least 1")


def report_rows(report: MetricReport) -> list[str]:
    """CSV data rows `metric,level,group,value,n` for one report.

    The ungrouped score appears as level `global`; per-level rows use
    the level index with n set to the group count the score ran over.
    """
    rows = [f"{report.name},global,all,{report.value!r},{report.n}"]
    if report.breakdown is not None:
        for key in sorted(report.breakdown, key=int):
            count = report.breakdown_n[key] if report.breakdown_n else report.n
            rows.append(f"{report.name},{key},all,{report.breakdown[key]!r},{count}")
    return rows


def _group_sums(values: np.ndarray, ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Sum the last axis of ``values`` by group, in row order.

    A vector [n] gives [n_groups]; a sample matrix (m, n) gives
    (m, n_groups) and keeps paths aligned: path s of a group is the sum
    of its members' path-s draws. One bincount over the flat keys
    ``ids + n_groups * path`` does both, so no (n, n_groups) matrix is
    built, and every group sum is the exact sequential sum of its
    members in row order.
    """
    rows = np.atleast_2d(values)
    keys = ids + n_groups * np.arange(rows.shape[0])[:, None]
    sums = np.bincount(
        keys.ravel(), weights=rows.ravel(), minlength=rows.shape[0] * n_groups
    )
    return sums.reshape(values.shape[:-1] + (n_groups,))


def hierarchical_report(
    y: np.ndarray,
    pred: np.ndarray,
    spec: HierarchySpec,
    metric: str = "rmse",
) -> MetricReport:
    """Score a metric globally and per aggregation level.

    ``pred`` is a point vector [n] for rmse or a sample matrix (m, n)
    for crps (rmse on a sample matrix scores the per-row sample means).
    Per level, targets and predictions are summed over each group, as
    exact sequential sums in row order, and the metric is scored across
    that level's groups. An identity level scores the rows themselves,
    which is the global score.
    """
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    n = y.shape[0]
    if metric not in ("rmse", "crps"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "crps" and pred.ndim != 2:
        raise ValueError("crps needs a sample matrix, not a point vector")
    if pred.ndim not in (1, 2) or pred.shape[-1] != n:
        raise LengthMismatch(f"predictions do not align with {n} targets")

    def score(y_part: np.ndarray, pred_part: np.ndarray) -> float:
        if metric == "crps":
            return float(np.mean(crps_empirical_rows(pred_part, y_part)))
        point = pred_part if pred_part.ndim == 1 else np.mean(pred_part, axis=0)
        return rmse(y_part, point)

    value = score(y, pred)
    breakdown: dict[str, float] = {}
    breakdown_n: dict[str, int] = {}
    for a, level in enumerate(spec.levels):
        if level.identity:
            breakdown[str(a)] = value
            breakdown_n[str(a)] = n
            continue
        ids, keys = spec.group_ids(a, n)
        n_groups = len(keys)
        breakdown[str(a)] = score(
            _group_sums(y, ids, n_groups), _group_sums(pred, ids, n_groups)
        )
        breakdown_n[str(a)] = n_groups

    return MetricReport(
        name=metric,
        value=value,
        n=n,
        breakdown=breakdown,
        breakdown_n=breakdown_n,
    )

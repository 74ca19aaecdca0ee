"""Probabilistic and point scoring: CRPS, RMSE, hierarchical reports.

CRPS is estimated from Monte-Carlo samples by the energy form

    (1/m) sum_i |x_i - y| - (1/(2 m^2)) sum_i sum_j |x_i - x_j|

where the double sum is computed in O(m log m) from the sorted samples:
sum_ij |x_i - x_j| = 2 * sum_k (2k - m + 1) x_(k) with k zero-based.
A closed-form normal CRPS is also provided so validation-time stopping
can score the learned (mu, var) without sampling.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

import numpy as np

from ._value import Value
from .errors import EmptySamples, LengthMismatch
from .loss import HierarchySpec

# Rational forms of erf from Cephes ndtr.c (W. J. Cody, Math. Comp. 23,
# 1969), highest power first; U and Q are monic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
           2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)

# Rows per block that `hierarchical_report` scores CRPS in; any width gives the same bits.
_CRPS_BLOCK_ROWS = 256

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def crps_empirical(samples: np.ndarray, y: float) -> float:
    """Energy-form CRPS of one forecast sample set against a scalar."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("samples must be a 1-D vector")
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
    # One work matrix, C-ordered whatever the layout: |samples - y|, then sorted.
    work = np.subtract(samples, y[None, :], order="C")
    term1 = np.mean(np.abs(work, out=work), axis=0)
    np.copyto(work, samples)
    work.sort(axis=0)
    weights = 2.0 * np.arange(m) - m + 1.0
    # einsum's own loop, not BLAS, whose worker threads would spin on
    # other CPUs between calls.
    term2 = np.einsum("i,ij->j", weights, work) / (m * m)
    return term1 - term2


def mean_crps(blocks: Iterable[np.ndarray], y: np.ndarray) -> float:
    """The mean over rows of `crps_empirical_rows` of the sample matrix whose
    column blocks, in row order, are ``blocks``, bit for bit for any blocks.
    As `rmse`, inf or nan, unwarned, where it overflows (`MetricReport` refuses it)."""
    crps, stop, held = np.empty(len(y)), 0, None
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy sums one column pairwise, more column by column: join a 1-wide block.
        for block in itertools.chain(blocks, [None]):
            if held is not None and block is not None and 1 in (held.shape[1], block.shape[1]):
                block = np.concatenate((held, block), axis=1)
            elif held is not None:
                start, stop = stop, stop + held.shape[1]
                crps[start:stop] = crps_empirical_rows(held, y[start:stop])
            held = block
        if stop != len(y):
            raise LengthMismatch(f"sample matrix has {stop} rows, y has {len(y)}")
        return float(np.mean(crps))


def rmse(y: np.ndarray, yhat: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise LengthMismatch(f"y has shape {y.shape}, yhat has shape {yhat.shape}")
    if y.size == 0:
        raise ValueError("need at least one pair")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(np.mean((y - yhat) ** 2)))


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    value = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        value = value * x + c
    return value


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise, without a Python call per element.

    x T(x^2)/U(x^2) for |x| < 1 and sign(x) (1 - exp(-x^2) P(|x|)/Q(|x|))
    for 1 <= |x| < 8, each form evaluated on its own elements only; beyond
    that, and at the infinities, sign(x), which also keeps NaN. -0.0 stays
    -0.0. The relative error against the standard library's erf stays
    below two machine epsilons.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    value = np.sign(x, out=np.empty_like(x))
    small = ax < 1.0
    mid = ~small & (ax < 8.0)
    xs = x[small]
    zs = xs * xs
    value[small] = xs * _horner(_ERF_T, zs) / _horner(_ERF_U, zs)
    xm, am = x[mid], ax[mid]
    tail = np.exp(-xm * xm) * _horner(_ERFC_P, am) / _horner(_ERFC_Q, am)
    value[mid] = np.copysign(1.0 - tail, xm)
    return value


def crps_normal(y, mu, var) -> np.ndarray:
    """Closed-form CRPS of a normal forecast N(mu, var), elementwise.

    CRPS = sigma * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)) with
    z = (y - mu)/sigma; degenerate sigma = 0 reduces to |y - mu|.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan where it overflows
        sigma = np.sqrt(np.asarray(var, dtype=np.float64))
        dev = y - mu
        positive = sigma > 0
        z = np.divide(dev, sigma, out=np.zeros_like(dev), where=positive)
        cdf_term = erf(z / math.sqrt(2.0))
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
        value = sigma * (z * cdf_term + 2.0 * pdf - _INV_SQRT_PI)
    return np.where(positive, value, np.abs(dev))


class MetricReport(Value):
    """One scored metric, optionally broken down by hierarchy level."""

    name: str
    value: float
    n: int
    breakdown: dict[str, float] | None = None
    breakdown_n: dict[str, int] | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, [self.value, *(self.breakdown or {}).values()])):
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


def hierarchical_report(
    y: np.ndarray,
    pred: np.ndarray,
    spec: HierarchySpec | None = None,
    metric: str = "rmse",
) -> MetricReport:
    """Score a metric globally and, given a ``spec``, per aggregation level.

    ``pred`` is a point vector [n] for rmse or a sample matrix (m, n) for
    crps (rmse on a sample matrix scores the per-row sample means). A
    matrix is read in place, never copied, in blocks of 256 rows, so any
    memory layout gives the same bits: CRPS goes through `mean_crps` and
    scores the bits of the whole matrix; a row's mean sums its draws in
    order, as `np.mean` does in a C-ordered matrix of two rows or more.
    Per level, targets and predictions are summed over each group
    (`HierarchySpec.group_sums`) and the metric is scored across that
    level's groups. An identity level scores the rows themselves, which is
    the global score. Without a spec the report holds the global score only.
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
    if pred.ndim == 2 and not len(pred):
        raise EmptySamples("need at least one sample")

    def score(y_part: np.ndarray, pred_part: np.ndarray) -> float:
        starts = range(0, len(y_part), _CRPS_BLOCK_ROWS)
        blocks = [pred_part[..., s : s + _CRPS_BLOCK_ROWS] for s in starts]
        if metric == "crps":
            return mean_crps(blocks, y_part)
        if pred_part.ndim == 2:  # each row's draws summed in order
            pred_part = np.empty(len(y_part))
            for s, block in zip(starts, blocks):
                pred_part[s : s + _CRPS_BLOCK_ROWS] = np.add.accumulate(block)[-1] / len(block)
        return rmse(y_part, pred_part)

    value = score(y, pred)
    if spec is None:
        return MetricReport(metric, value, n)
    breakdown: dict[str, float] = {}
    breakdown_n: dict[str, int] = {}
    for a, level in enumerate(spec.levels):
        if level.identity:
            breakdown[str(a)], breakdown_n[str(a)] = value, n
        else:
            y_sums = spec.group_sums(a, y)
            breakdown[str(a)] = score(y_sums, spec.group_sums(a, pred))
            breakdown_n[str(a)] = len(y_sums)
    return MetricReport(metric, value, n, breakdown, breakdown_n)

"""Moment-matched output distributions and the sampler.

All rows' (mu, var) are matched at once to one of nine families (Poisson
matches mu only); a row whose parameters are not all finite and inside
numpy's sampler domain falls back to a normal draw.

Row i's draws depend only on (seed, i, n_samples) and its own moments.
Continuous families transform standard draws from one shared stream, of
which row i reads the stretch [i*m, (i+1)*m) for m samples; a fallback
row reads its stretch of a normal stream keyed to its block of rows.
Poisson and negative binomial use a parameter-dependent number of bits,
so their feasible rows keep ``default_rng([seed, i])``, which the shared
streams' ``SeedSequence`` spawn keys set apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boost import PredictiveMoments
from .errors import InfeasibleMoments

FAMILIES = ("normal", "studentt3", "logistic", "laplace", "lognormal", "gumbel", "weibull",
            "poisson", "negativebinomial")

# Weibull shape bisection: bracket, tolerance on the moment ratio, cap.
_WEIBULL_K_LO, _WEIBULL_K_HI, _WEIBULL_TOL, _WEIBULL_MAX_ITER = 0.1, 50.0, 1e-10, 200

# Rows per block, as in predict's writer; spawn keys of the shared streams.
_BLOCK_ROWS, _SHARED, _FALLBACK = 256, 0, 1
# The largest rate numpy's Poisson sampler accepts (int64 max less 10 sqrt of it).
_POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10

# Variance of the standard draw of each location-scale family.
_STANDARD_VAR = {"normal": 1.0, "studentt3": 3.0, "laplace": 2.0,
                 "logistic": math.pi**2 / 3.0, "gumbel": math.pi**2 / 6.0}
# Generator method and arguments of each continuous family's standard draw.
_STANDARD = {
    "normal": ("standard_normal",), "lognormal": ("standard_normal",),
    "studentt3": ("standard_t", 3), "weibull": ("standard_exponential",),
    "logistic": ("logistic",), "laplace": ("laplace",), "gumbel": ("gumbel",),
}
# Elementwise math.gamma: Python float arithmetic on its results keeps scalar bits.
_gamma = np.frompyfunc(math.gamma, 1, 1)


@dataclass(frozen=True)
class DistSpec:
    family: str = "normal"
    clamp_nonneg: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {', '.join(FAMILIES)}")


@dataclass(frozen=True)
class SampleMatrix:
    """Draws shaped (n_samples, n_rows); column i holds row i's draws."""

    samples: np.ndarray
    seed: int
    fallback_rows: int = 0


def _weibull_shape(target: np.ndarray) -> np.ndarray:
    """Solve Gamma(1+2/k)/Gamma(1+1/k)^2 = target for the shape k, per row,
    by bisection (the ratio is strictly decreasing in k); a row stops at
    its first midpoint within the tolerance. A target out of the bracket's
    reach, var = 0 included (it needs k = infinity), gives NaN."""
    def ratio(k: np.ndarray) -> np.ndarray:
        return (_gamma(1.0 + 2.0 / k) / _gamma(1.0 + 1.0 / k) ** 2).astype(np.float64)

    r_lo, r_hi = ratio(np.array([_WEIBULL_K_LO, _WEIBULL_K_HI]))
    shape = np.full(target.shape, np.nan)
    rows = np.flatnonzero((r_lo - target >= 0) & (r_hi - target <= 0))
    t = target[rows]
    lo, hi = np.full(rows.size, _WEIBULL_K_LO), np.full(rows.size, _WEIBULL_K_HI)
    for _ in range(_WEIBULL_MAX_ITER):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        f = ratio(mid) - t
        done = np.abs(f) <= _WEIBULL_TOL
        shape[rows[done]] = mid[done]
        rows, t, f, mid, lo, hi = (a[~done] for a in (rows, t, f, mid, lo, hi))
        lo, hi = np.where(f > 0, mid, lo), np.where(f > 0, hi, mid)
    shape[rows] = 0.5 * (lo + hi)
    return shape


def _match(family: str, mu: np.ndarray, var: np.ndarray):
    """Parameter arrays whose analytic mean/variance equal (mu, var), row
    by row, and the mask of feasible rows, without warning for the rest."""
    if not (np.isfinite(mu).all() and np.isfinite(var).all() and np.all(var >= 0)):
        raise ValueError("mu and var must be finite and var nonnegative")
    ok = True  # lognormal: log(mu) is not finite at mu <= 0
    with np.errstate(all="ignore"):
        if family in _STANDARD_VAR:
            scale = np.sqrt(var / _STANDARD_VAR[family])
            loc = mu - scale * np.euler_gamma if family == "gumbel" else mu
            params = {"loc": loc, "scale": scale}
        elif family == "lognormal":
            sigma2 = np.log1p(var / (mu * mu))
            params = {"mean": np.log(mu) - 0.5 * sigma2, "sigma": np.sqrt(sigma2)}
        elif family == "weibull":
            k = _weibull_shape(1.0 + var / (mu * mu))
            params = {"shape": k, "scale": mu / _gamma(1.0 + 1.0 / k).astype(np.float64)}
            ok = mu > 0
        elif family == "poisson":
            params, ok = {"rate": mu}, (mu > 0) & (mu <= _POISSON_LAM_MAX)
        elif family == "negativebinomial":
            r, p = mu * mu / (var - mu), mu / var
            params = {"r": r, "p": p}
            # numpy's own bound on the Poisson rate of its gamma mixture.
            lam = (1 - p) / p * (r + 10 * np.sqrt(r))
            ok = (mu > 0) & (var > mu) & (r > 0) & (lam <= _POISSON_LAM_MAX)
        else:
            raise ValueError(f"unknown family {family!r}")
        ok &= np.logical_and.reduce([np.isfinite(v) for v in params.values()])
    return params, ok


def match_params(family: str, mu: float, var: float) -> dict[str, float]:
    """Parameters whose analytic mean/variance equal (mu, var).

    Feasibility: lognormal, weibull and poisson need mu > 0, negative binomial
    also var > mu; the weibull bracket bounds var/mu^2; every parameter must be
    finite and in numpy's sampler domain. Violations raise InfeasibleMoments."""
    params, ok = _match(family, np.array([mu], np.float64), np.array([var], np.float64))
    if not ok[0]:
        raise InfeasibleMoments(family, mu, var)
    return {name: float(value[0]) for name, value in params.items()}


def sample(
    moments: PredictiveMoments, spec: DistSpec, n_samples_out: int, seed: int = 0
) -> SampleMatrix:
    """Draw n_samples_out values per row from the matched distribution. No
    other row's moments or feasibility move row i's draws, and a prefix of
    the rows reproduces (module docstring). Sample columns differ from
    versions that gave every row its own stream."""
    if n_samples_out < 1:
        raise ValueError("n_samples_out must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    mu, var = np.asarray(moments.mu, np.float64), np.asarray(moments.var, np.float64)
    family, m = spec.family, n_samples_out
    params, ok = _match(family, mu, var)
    out = np.empty((m, len(mu)))
    shared = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SHARED,)))
    for b, start in enumerate(range(0, len(mu), _BLOCK_ROWS)):
        rows = slice(start, start + _BLOCK_ROWS)
        block, p = out[:, rows], {name: value[rows] for name, value in params.items()}
        size = block.shape[::-1]  # (rows, m): each row's stretch is contiguous
        if family not in _STANDARD:
            for i in np.flatnonzero(ok[rows]).tolist():
                rng = np.random.default_rng([seed, start + i])
                draw = rng.poisson if family == "poisson" else rng.negative_binomial
                block[:, i] = draw(*(value[i] for value in p.values()), m)
        else:
            name, *args = _STANDARD[family]
            z = getattr(shared, name)(*args, size=size).T
            # Infeasible rows' values are overwritten by the fallback below.
            with np.errstate(all="ignore"):
                if family == "weibull":
                    np.power(z, 1.0 / p["shape"], out=block)
                    block *= p["scale"]
                else:
                    loc, scale = p.values()  # lognormal: (mean, sigma) of the log
                    np.multiply(z, scale, out=block)
                    block += loc
                    if family == "lognormal":
                        np.exp(block, out=block)
        bad = np.flatnonzero(~ok[rows])
        if bad.size:
            key = np.random.SeedSequence(seed, spawn_key=(_FALLBACK, b))
            z = np.random.default_rng(key).standard_normal(size)[bad].T
            block[:, bad] = mu[rows][bad] + np.sqrt(var[rows][bad]) * z
    if spec.clamp_nonneg:
        np.maximum(out, 0.0, out=out)
    return SampleMatrix(samples=out, seed=seed, fallback_rows=int(np.sum(~ok)))

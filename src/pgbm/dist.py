"""Moment-matched output distributions and the sampler.

All rows' (mu, var) are matched at once to one of nine families (Poisson
matches mu only); a row whose parameters are not all finite and inside
numpy's sampler domain falls back to a normal draw.

Weibull shapes come from a bisection on the moment ratio
Gamma(1+2/k)/Gamma(1+1/k)^2, evaluated in numpy from a log-gamma
(Stirling's series) within about 1e-13; the scale mu/Gamma(1+1/k) uses the
same log-gamma. Only the two bracket ends use ``math.gamma``, so the
feasibility test is exact.

Row i's draws depend only on (seed, i, n_samples) and its own moments.
``sample`` joins the _BLOCK_ROWS-row blocks of ``sample_blocks``, the one
draw loop, which matches once and can start at any block. Continuous
families transform standard draws from one shared stream, of which row i
reads the stretch [i*m, (i+1)*m) for m samples, so a start past row 0
draws and discards those of the rows before it; a fallback row reads its
stretch of a normal stream keyed to its block of rows.
Poisson and negative binomial use a parameter-dependent number of bits,
so each feasible row i reads a stream of its own: a third ``PCG64``
stream, advanced by i * 2**64 with ``PCG64.advance``. The ``SeedSequence``
spawn keys of the three streams set them apart.
"""

from __future__ import annotations

import math

import numpy as np

from ._value import Value
from .boost import PredictiveMoments
from .errors import InfeasibleMoments

FAMILIES = ("normal", "studentt3", "logistic", "laplace", "lognormal", "gumbel", "weibull",
            "poisson", "negativebinomial")

# Weibull shape bisection: bracket, tolerance on the moment ratio, cap.
_WEIBULL_K_LO, _WEIBULL_K_HI, _WEIBULL_TOL, _WEIBULL_MAX_ITER = 0.1, 50.0, 1e-10, 200

# Rows per block, which set the fallback streams and so sample bytes, and
# the unit that predict's shares split; spawn keys of the three streams.
_BLOCK_ROWS, _SHARED, _FALLBACK, _ROWS = 256, 0, 1, 2
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
# Stirling's series of log Gamma(z) past (z - 1/2) log z - z + log(2 pi)/2:
# the coefficients of 1/z, 1/z^3, ..., 1/z^9. At z >= 16 the first term
# left out is below 2e-16.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


class DistSpec(Value):
    family: str = "normal"
    clamp_nonneg: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {', '.join(FAMILIES)}")


class SampleMatrix(Value):
    """Draws shaped (n_samples, n_rows); column i holds row i's draws."""

    samples: np.ndarray
    seed: int
    fallback_rows: int = 0


def _moment_ratio(k: float) -> float:
    """Gamma(1+2/k)/Gamma(1+1/k)^2 in Python floats, for the bracket ends."""
    return math.gamma(1.0 + 2.0 / k) / math.gamma(1.0 + 1.0 / k) ** 2


def _log_gamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) in numpy for x >= 1, within 1e-13: Gamma(x) is
    Gamma(z)/(x(x+1)...(x+14)) with z = x + 15 and log Gamma(z) from
    _STIRLING."""
    z = x + 15.0
    w = 1.0 / (z * z)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * w + c
    # x(x+1)...(x+14) = (x+7) u (u+13)(u+24)...(u+48), u = x(x+14): the
    # factors x+j and x+14-j paired as u + j(14-j).
    u = x * (x + 14.0)
    shift = (x + 7.0) * u
    for j in range(1, 7):
        shift *= u + j * (14 - j)
    return (z - 0.5) * np.log(z) - z + series / z + _HALF_LOG_2PI - np.log(shift)


def _moment_ratio_fast(k: np.ndarray) -> np.ndarray:
    """Gamma(1+2/k)/Gamma(1+1/k)^2 in numpy, from _log_gamma."""
    return np.exp(_log_gamma(1.0 + 2.0 / k) - 2.0 * _log_gamma(1.0 + 1.0 / k))


def _weibull_shape(target: np.ndarray) -> np.ndarray:
    """Solve Gamma(1+2/k)/Gamma(1+1/k)^2 = target for the shape k, per row,
    by bisection (the ratio is strictly decreasing in k); a row stops at
    its first midpoint within the tolerance, or where its bracket has no
    float left between its ends. A target out of the bracket's reach,
    var = 0 included (it needs k = infinity), gives NaN.

    The bracket ends' ratios come from ``math.gamma``, so which rows are
    in reach is exact; each midpoint's decision is read from
    _moment_ratio_fast."""
    r_lo, r_hi = _moment_ratio(_WEIBULL_K_LO), _moment_ratio(_WEIBULL_K_HI)
    shape = np.full(target.shape, np.nan)
    rows = np.flatnonzero((r_lo - target >= 0) & (r_hi - target <= 0))
    t = target[rows]
    lo, hi = np.full(rows.size, _WEIBULL_K_LO), np.full(rows.size, _WEIBULL_K_HI)
    for _ in range(_WEIBULL_MAX_ITER):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        f = _moment_ratio_fast(mid) - t
        # A bracket of adjacent floats gives this midpoint forever: where
        # the ratio's rounding exceeds the tolerance, f may never meet it.
        done = (np.abs(f) <= _WEIBULL_TOL) | (mid == lo) | (mid == hi)
        if done.any():
            shape[rows[done]] = mid[done]
            rows, t, f, mid, lo, hi = (a[~done] for a in (rows, t, f, mid, lo, hi))
        up = f > 0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    shape[rows] = 0.5 * (lo + hi)
    return shape


def _row_streams(seed: int):
    """A generator on the _ROWS stream of ``seed``, and a function that
    moves it to the start of row i's stretch, 2**64 draws per row."""
    bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_ROWS,)))
    origin = bits.state

    def seek(row: int) -> None:
        bits.state = origin
        bits.advance(row << 64)

    return np.random.Generator(bits), seek


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
            params = {"shape": k, "scale": mu / np.exp(_log_gamma(1.0 + 1.0 / k))}
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


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is nonnegative."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def check_draws(n_samples_out: int, seed: int) -> None:
    """Raise ValueError unless ``sample`` accepts this count and seed."""
    if n_samples_out < 1:
        raise ValueError("n_samples_out must be at least 1")
    check_seed(seed)


def sample(
    moments: PredictiveMoments, spec: DistSpec, n_samples_out: int, seed: int = 0
) -> SampleMatrix:
    """Draw n_samples_out values per row from the matched distribution."""
    check_draws(n_samples_out, seed)  # before np.empty refuses a negative count
    out = np.empty((n_samples_out, len(moments.mu)))
    fallback_rows, blocks = sample_blocks(moments, spec, n_samples_out, seed)
    for start, block in zip(range(0, out.shape[1], _BLOCK_ROWS), blocks()):
        out[:, start : start + _BLOCK_ROWS] = block
    return SampleMatrix(samples=out, seed=seed, fallback_rows=fallback_rows)


def sample_blocks(moments: PredictiveMoments, spec: DistSpec, n_samples_out: int,
                  seed: int = 0):
    """Match the rows once; give `sample`'s count of rows that fall back to
    normal, and ``blocks``: ``blocks(first=0)`` iterates over the draws one
    new (n_samples_out, _BLOCK_ROWS) block at a time from block ``first``
    on. It draws and discards the standard draws of the earlier rows."""
    check_draws(n_samples_out, seed)
    mu, var = np.asarray(moments.mu, np.float64), np.asarray(moments.var, np.float64)
    family, m = spec.family, n_samples_out
    params, ok = _match(family, mu, var)
    name, *args = _STANDARD.get(family, ("",))

    def blocks(first: int = 0):
        shared = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SHARED,)))
        row_rng, seek = _row_streams(seed)
        draw = row_rng.poisson if family == "poisson" else row_rng.negative_binomial
        # numpy writes only standard normal and exponential draws into an array
        into = name in ("standard_normal", "standard_exponential")
        buf = np.empty((_BLOCK_ROWS, m)) if into else None

        def standard(size: tuple[int, int]) -> np.ndarray:
            into = {} if buf is None else {"out": buf[: size[0]]}
            return getattr(shared, name)(*args, size=size, **into)
        starts = range(0, len(mu), _BLOCK_ROWS)
        for _ in starts[:first] if name else ():  # the rows before: drawn, discarded
            standard((_BLOCK_ROWS, m))
        for b, start in enumerate(starts[first:], first):
            rows = slice(start, start + _BLOCK_ROWS)
            p = {key: value[rows] for key, value in params.items()}
            block = np.empty((m, len(ok[rows])))
            size = block.shape[::-1]  # (rows, m): each row's stretch is contiguous
            if not name:
                for i in np.flatnonzero(ok[rows]).tolist():
                    seek(start + i)
                    block[:, i] = draw(*(value[i] for value in p.values()), m)
            else:
                z = standard(size).T
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
                np.maximum(block, 0.0, out=block)
            yield block

    return int(np.sum(~ok)), blocks

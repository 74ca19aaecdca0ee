"""Moment-matched output distributions and the sampler.

All rows' (mu, var) are matched at once to one of nine families (Poisson
matches mu only); a row whose parameters are not all finite and inside
numpy's sampler domain falls back to a normal draw.

Weibull shapes come from a bisection on the moment ratio
Gamma(1+2/k)/Gamma(1+1/k)^2. Each midpoint's decision is taken from a numpy
evaluation of that ratio (Stirling's series) whose error bound is known;
only where that bound could flip the decision is the ratio recomputed with
``math.gamma``, so every shape, and so every Weibull sample byte, equals
the all-``math.gamma`` bisection's. The bracket ends and each row's scale
use ``math.gamma`` directly.

Row i's draws depend only on (seed, i, n_samples) and its own moments.
Continuous families transform standard draws from one shared stream, of
which row i reads the stretch [i*m, (i+1)*m) for m samples; a fallback
row reads its stretch of a normal stream keyed to its block of rows.
Poisson and negative binomial use a parameter-dependent number of bits,
so each feasible row draws from the state of ``default_rng([seed, i])``,
which the shared streams' ``SeedSequence`` spawn keys set apart. Those
states are computed for a block of rows at once (numpy's ``SeedSequence``
hash and ``PCG64`` seeding are fixed algorithms) and loaded into one
generator, so the draws, and the discrete sample bytes, equal
``default_rng([seed, i])``'s.
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
# The fast moment ratio's relative error stays below _RATIO_REL / 10 on the
# bracket (tests/test_dist.py), so a decision whose margin exceeds
# _RATIO_REL * ratio cannot differ from the math.gamma ratio's.
_RATIO_REL = 1e-12
# Stirling's series of log Gamma(z) past (z - 1/2) log z - z + log(2 pi)/2:
# the coefficients of 1/z, 1/z^3, ..., 1/z^9. At z >= 16 the first term
# left out is below 2e-16.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)

# numpy's SeedSequence hash (a pool of 4 uint32 words) and PCG64's multiplier.
_POOL, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 4, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_M32, _M128 = 2**32 - 1, 2**128 - 1


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


def _gamma(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.gamma``, one Python call per element."""
    return np.array([math.gamma(v) for v in x.tolist()], np.float64)


def _moment_ratio(k: float) -> float:
    """Gamma(1+2/k)/Gamma(1+1/k)^2 in Python floats: the exact decider."""
    return math.gamma(1.0 + 2.0 / k) / math.gamma(1.0 + 1.0 / k) ** 2


def _moment_ratio_fast(k: np.ndarray) -> np.ndarray:
    """Gamma(1+2/k)/Gamma(1+1/k)^2 in numpy, within _RATIO_REL / 10: each
    Gamma(x) is Gamma(z)/(x(x+1)...(x+14)) with z = x + 15 and log Gamma(z)
    from _STIRLING."""
    x = np.stack((1.0 + 2.0 / k, 1.0 + 1.0 / k))
    z = x + 15.0
    w = 1.0 / (z * z)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * w + c
    log_g = (z - 0.5) * np.log(z) - z + series / z  # log Gamma(z) - log(2 pi) / 2
    # x(x+1)...(x+14) = (x+7) u (u+13)(u+24)...(u+48), u = x(x+14): the
    # factors x+j and x+14-j paired as u + j(14-j).
    u = x * (x + 14.0)
    shift = (x + 7.0) * u
    for j in range(1, 7):
        shift *= u + j * (14 - j)
    return np.exp(log_g[0] - 2.0 * log_g[1] - _HALF_LOG_2PI) * (shift[1] * shift[1] / shift[0])


def _weibull_shape(target: np.ndarray) -> np.ndarray:
    """Solve Gamma(1+2/k)/Gamma(1+1/k)^2 = target for the shape k, per row,
    by bisection (the ratio is strictly decreasing in k); a row stops at
    its first midpoint within the tolerance. A target out of the bracket's
    reach, var = 0 included (it needs k = infinity), gives NaN.

    Each midpoint's sign and stop test is read from the fast ratio. Where
    its error bound could flip either one, that is where |f| or
    ||f| - tolerance| is within _RATIO_REL * ratio, f is recomputed with
    ``math.gamma`` for those rows only. So the shapes, and the Weibull
    sample bytes, equal those of a bisection that calls ``math.gamma`` at
    every midpoint; the bracket ends use ``math.gamma`` directly."""
    r_lo, r_hi = _moment_ratio(_WEIBULL_K_LO), _moment_ratio(_WEIBULL_K_HI)
    shape = np.full(target.shape, np.nan)
    rows = np.flatnonzero((r_lo - target >= 0) & (r_hi - target <= 0))
    t = target[rows]
    lo, hi = np.full(rows.size, _WEIBULL_K_LO), np.full(rows.size, _WEIBULL_K_HI)
    for _ in range(_WEIBULL_MAX_ITER):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        ratio = _moment_ratio_fast(mid)
        f, band = ratio - t, _RATIO_REL * ratio
        size = np.abs(f)
        near = np.flatnonzero((size <= band) | (np.abs(size - _WEIBULL_TOL) <= band))
        if near.size:
            f[near] = np.array([_moment_ratio(k) for k in mid[near].tolist()]) - t[near]
        done = np.abs(f) <= _WEIBULL_TOL
        if done.any():
            shape[rows[done]] = mid[done]
            rows, t, f, mid, lo, hi = (a[~done] for a in (rows, t, f, mid, lo, hi))
        up = f > 0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    shape[rows] = 0.5 * (lo + hi)
    return shape


def _words(n: int) -> list[int]:
    """n's little-endian uint32 words, at least one, as SeedSequence reads an int."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _seed_hash(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8)`` of many rows at once:
    entropy[j] holds every row's j-th uint32 word, out[j] its j-th output."""
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * _MULT_A & _M32
        v = v * hc
        return v ^ (v >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    # Padding words are zeros; words past the pool are mixed in one by one.
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(e) for e in (entropy + [zero] * _POOL)[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(e))
    hb, out = _INIT_B, []
    for j in range(8):
        v = pool[j % _POOL] ^ hb
        hb = hb * _MULT_B & _M32
        v = v * hb
        out.append(v ^ (v >> 16))
    return out


def _row_states(seed: int, rows: np.ndarray) -> list[dict]:
    """``default_rng([seed, i]).bit_generator.state`` for each row i < 2**64,
    from the SeedSequence hash of all rows at once and PCG64's seeding
    (state = ((inc + initstate) * mult + inc) mod 2**128)."""
    rows = np.asarray(rows, np.uint64)
    states = [None] * rows.size
    seed_words = _words(seed)
    # Rows of one and of two uint32 words hash different entropy lengths.
    wide = rows > _M32
    for n_words in (1, 2):
        at = np.flatnonzero(wide == (n_words == 2))
        if not at.size:
            continue
        own = [rows[at] & _M32, rows[at] >> 32][:n_words]
        entropy = [np.full(at.size, w, np.uint32) for w in seed_words]
        out = [w.astype(np.uint64) for w in _seed_hash(entropy + [w.astype(np.uint32) for w in own])]
        w64 = [out[j] | out[j + 1] << 32 for j in range(0, 8, 2)]
        for i, s0, s1, q0, q1 in zip(at.tolist(), *(w.tolist() for w in w64)):
            inc = ((q0 << 64 | q1) << 1 | 1) & _M128
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
            states[i] = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
    return states


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
            params = {"shape": k, "scale": mu / _gamma(1.0 + 1.0 / k)}
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
    """Draw n_samples_out values per row from the matched distribution. No
    other row's moments or feasibility move row i's draws, and a prefix of
    the rows reproduces (module docstring). Sample columns differ from
    versions that gave every row its own stream."""
    check_draws(n_samples_out, seed)
    mu, var = np.asarray(moments.mu, np.float64), np.asarray(moments.var, np.float64)
    family, m = spec.family, n_samples_out
    params, ok = _match(family, mu, var)
    out = np.empty((m, len(mu)))
    shared = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SHARED,)))
    # Discrete rows: one generator, set to default_rng([seed, i])'s state per row.
    row_rng = np.random.Generator(np.random.PCG64(seed))
    draw = row_rng.poisson if family == "poisson" else row_rng.negative_binomial
    for b, start in enumerate(range(0, len(mu), _BLOCK_ROWS)):
        rows = slice(start, start + _BLOCK_ROWS)
        block, p = out[:, rows], {name: value[rows] for name, value in params.items()}
        size = block.shape[::-1]  # (rows, m): each row's stretch is contiguous
        if family not in _STANDARD:
            feasible = np.flatnonzero(ok[rows])
            for i, state in zip(feasible.tolist(), _row_states(seed, start + feasible)):
                row_rng.bit_generator.state = state
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

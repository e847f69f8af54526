"""Synthetic data generators and Monte-Carlo evaluation harness.

Noise processes are piecewise locally stationary: time-varying ARMA(1, 1)
recursions (optionally with abrupt regime breaks) or an explicit
time-varying moving-average expansion, each driven by one of several
standardized innovation families.  Mean models combine smooth trends with
step components carrying a known jump set, which the Monte-Carlo harness
scores detections against.

Generation is batched: one call makes an (m, n) matrix of series, one row
per generator.  The mean, the time-varying coefficients and their lag
products depend on t only and are computed once for all rows; only the
innovations are drawn per row, so each row is bitwise the series its
generator gives alone, and ``gen_series`` is the one-row case.  A
recursion evaluates only the series values it keeps: the burn-in
innovations feed the expansion but their columns are never computed, and a
noise with two regimes asks each regime's path for the columns on its own
side of the break only.  The Monte-Carlo harness runs replicates in chunks,
each one generator call and, with fixed scales, one batch of multiscale
fields and one post-field pass over all its rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .detect import _level, _parse_threshold, _resolve_threshold
from .field import MIN_N, ScaleConfig, _multiscale_fields
from .threshold import tail_constants
from .tuning import _cv_grid, _detect_rows, auto_detect
from .util import _chunks, _pool_chunks, rng_for

__all__ = [
    "PlsScenario",
    "DetectorSpec",
    "gen_series",
    "monte_carlo",
    "increasing_jump_count",
    "increasing_jump_size",
    "NOISE_MODELS",
    "MEAN_MODELS",
]

_MA_TRUNC = 40  # |coef| <= 0.4 => truncation error below 1e-15
# pre-sample innovations each recursion runs through before t = 1/n
_BURN_IN = 500


# ---------------------------------------------------------------------------
# innovations
# ---------------------------------------------------------------------------

def _innovations(kind: str, size: int, rng) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(size)
    if kind == "chisq3":
        return (rng.chisquare(3, size) - 3.0) / math.sqrt(6.0)
    if kind == "rademacher":
        return rng.integers(0, 2, size) * 2.0 - 1.0
    if kind == "t6":
        return rng.standard_t(6, size) / math.sqrt(1.5)
    if kind == "t8":
        return rng.standard_t(8, size) / math.sqrt(4.0 / 3.0)
    raise ValueError(f"unknown innovation family {kind!r}")


# ---------------------------------------------------------------------------
# recursions
# ---------------------------------------------------------------------------

def _lag_sum(v: np.ndarray, count: int, coef, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Columns [lo, hi) of v + c_1 * v_1 + ... + c_count * v_count, added in place in lag order.

    ``v`` is an (m, total) matrix and v_j is v shifted right by j columns
    (zero before column j).  ``coef(j)`` returns c_j along the t axis,
    shared by every row; it is called for every j = 1, 2, ... in turn, so a
    coefficient may update its own state.  Only the kept columns are
    evaluated: lag j adds into columns [max(j, lo), hi).  Each term is
    rounded once and added in lag order, as a running ``acc += c_j * v_j``
    does, so a kept value is bitwise the same whatever the range, and a
    row's sum does not depend on the other rows.
    """
    hi = v.shape[1] if hi is None else hi
    acc = v[:, lo:hi].copy()
    term = np.empty_like(acc)
    for j in range(1, count + 1):
        c = coef(j)
        a = max(j, lo)
        if a < hi:
            np.multiply(c[a:hi], v[:, a - j : hi - j], out=term[:, a - lo :])
            acc[:, a - lo :] += term[:, a - lo :]
    return acc


def _draws(kind: str, size: int, rngs) -> np.ndarray:
    """(len(rngs), size) innovations, row i drawn from ``rngs[i]``."""
    return np.stack([_innovations(kind, size, rng) for rng in rngs])


def _tv_arma(n, burn_in, phi, theta, kind, rngs, lo=0, hi=None):
    """Time-varying ARMA(1,1): x_i = phi(t_i) x_{i-1} + e_i + theta(t_i) e_{i-1}.

    One path per generator in ``rngs``, returned as the rows of an (m, n)
    matrix, or of its columns [lo, hi) only.  Evaluated through the
    unrolled product expansion so the whole batch is vectorized;
    ``burn_in`` pre-sample innovations serve the expansion, with t clamped
    at the first in-sample point.  With u_i = e_i + theta(t_i) e_{i-1},
    x_i = u_i + sum_j amp_j(i) u_{i-j}, where amp_j(i) = phi(t_i) ...
    phi(t_{i-j+1}) depends on t only: it is updated in place lag by lag and
    shared by every row, and the lag terms are added in lag order
    (``_lag_sum``).  Only what a kept column reads is formed: u and theta
    from ``lag`` columns before the range on, amp and the lag sum on the
    range itself.  The innovations, phi and the lag count are those of the
    whole path, so a kept value does not depend on the range.
    """
    total = burn_in + n
    lo, hi = burn_in + lo, burn_in + (n if hi is None else hi)
    t = np.maximum(np.arange(-burn_in, n) + 1, 1) / n
    eta = _draws(kind, total + 1, rngs)
    ph = phi(t) if callable(phi) else np.full(total, float(phi))
    pmax = float(np.max(np.abs(ph)))
    if pmax >= 0.999:
        raise ValueError("AR coefficient too close to 1")
    lag = 0 if pmax == 0 else min(total, math.ceil(math.log(1e-15) / math.log(max(pmax, 1e-6))))
    # u over the columns [s, hi) a kept column reads, indexed from s
    s = max(lo - lag, 0)
    th = theta(t[s:hi]) if callable(theta) else float(theta)
    u = eta[:, s + 1 : hi + 1] + th * eta[:, s:hi]
    amp = np.ones(hi - s)

    def coef(j):
        a = max(lo, j - 1)
        if a < hi:
            amp[a - s :] *= ph[a - j + 1 : hi - j + 1]
        return amp

    return _lag_sum(u, lag, coef, lo - s, hi - s)


def _tv_ma(n, burn_in, base, amp, kind, rngs):
    """Explicit MA expansion x_i = amp(t_i) * sum_j base(t_i)^j eta_{i-j}, one row per generator.

    As in ``_tv_arma``, the burn-in serves the expansion only and its
    columns are never evaluated.
    """
    total = burn_in + n
    t = np.maximum(np.arange(-burn_in, n) + 1, 1) / n
    eta = _draws(kind, total, rngs)
    b = base(t)
    bp = np.ones(total)

    def coef(j):
        return np.multiply(bp, b, out=bp)

    return amp(t[burn_in:]) * _lag_sum(eta, _MA_TRUNC, coef, burn_in)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

def _steps(t, breaks_plus_one: int, top_even: int):
    """sum over even u <= top_even of 1(u/m < t <= (u+1)/m), m = breaks_plus_one."""
    m = breaks_plus_one
    out = np.zeros_like(t)
    for u in range(0, top_even + 1, 2):
        out += ((t > u / m) & (t <= (u + 1) / m)).astype(float)
    return out


def increasing_jump_count(n: int) -> int:
    """Number of mean jumps in the growing-sample scenario."""
    return max(1, round((4.0 / 3.0) * (math.log(n) / 6.0) ** 5))


def increasing_jump_size(n: int) -> float:
    return 4.0 / (math.log(n) / 6.0) ** 2


def _plsn_g(n: int):
    kf = increasing_jump_count(n) // 2
    if kf < 1:
        return lambda t: np.ones_like(t)
    return lambda t: _steps(t, kf + 1, kf)


def _regime_split(n: int, cut: float) -> int:
    """Number of in-sample points t_i = (i + 1) / n with t_i <= cut.

    A two-regime noise keeps the first path on these columns and the second
    on the rest, and asks each path for its own columns only.
    """
    return int(np.count_nonzero((np.arange(n) + 1) / n <= cut))


def _noise_gs(n, burn_in, rngs):
    return _draws("normal", n, rngs)


def _noise_ps(n, burn_in, rngs):
    k = _regime_split(n, 0.5)
    g0 = _tv_arma(n, burn_in, 0.25, 0.0, "chisq3", rngs, hi=k)
    g1 = _tv_arma(n, burn_in, -0.25, 0.0, "chisq3", rngs, lo=k)
    return np.hstack([0.75 * g0, 1.25 * g1])


def _noise_arma(n, burn_in, rngs):
    x = _tv_arma(n, burn_in, 0.3, 0.5, "normal", rngs)
    return x / 2.142857


def _noise_ls(n, burn_in, rngs):
    g = _tv_arma(n, burn_in, lambda t: 0.5 * t - 0.2, 0.0, "rademacher", rngs)
    t = (np.arange(n) + 1) / n
    return (1.0 + 0.5 * t) * g


def _noise_pls(n, burn_in, rngs):
    k = _regime_split(n, 0.4)
    g0 = _tv_arma(n, burn_in, lambda t: 0.5 - t, lambda t: 0.2 - 0.5 * t, "t6", rngs, hi=k)
    g1 = _tv_arma(
        n, burn_in, lambda t: 0.5 * np.sin(2 * np.pi * t), lambda t: 0.5 * (t - 0.2) ** 2,
        "t6", rngs, lo=k,
    )
    return np.hstack([g0, g1])


def _noise_psn(n, burn_in, rngs):
    def a(t):
        b = (
            -0.3 * ((t > 0) & (t <= 0.25))
            + 0.1 * ((t > 0.25) & (t <= 2.0 / 3.0))
            + 0.2 * ((t > 2.0 / 3.0) & (t <= 0.75))
            - 0.1 * (t > 0.75)
        )
        return 1.25 * b

    return _tv_arma(n, burn_in, a, 0.0, "chisq3", rngs)


def _noise_lsn(n, burn_in, rngs):
    return _tv_arma(
        n, burn_in, lambda t: 3.0 * (t - 0.5) ** 2 - 0.3, lambda t: 0.2 - 0.4 * t,
        "t8", rngs,
    )


def _noise_plsn(n, burn_in, rngs):
    g = _plsn_g(n)
    return _tv_ma(
        n,
        burn_in,
        base=lambda t: 0.2 * np.cos(2 * np.pi * t) + 0.2 * g(t),
        amp=lambda t: 0.6 * (1.0 + 0.7 * g(t)),
        kind="normal",
        rngs=rngs,
    )


def _noise_smoothpls(n, burn_in, rngs):
    k = _regime_split(n, 0.6)
    g0 = _tv_arma(n, burn_in, lambda t: 0.5 * t - 0.2, 0.0, "t8", rngs, hi=k)
    g1 = _tv_arma(n, burn_in, lambda t: 0.6 * np.cos(2 * np.pi * t), 0.0, "t8", rngs, lo=k)
    return np.hstack([g0, g1])


NOISE_MODELS = {
    "GS": _noise_gs,
    "PS": _noise_ps,
    "ARMA": _noise_arma,
    "LS": _noise_ls,
    "PLS": _noise_pls,
    "PSnP": _noise_psn,
    "LSnP": _noise_lsn,
    "PLSnP": _noise_plsn,
    "SmoothPLS": _noise_smoothpls,
}


# ---------------------------------------------------------------------------
# mean models
# ---------------------------------------------------------------------------

def _mean_I(t, sc):
    return 2.5 * (t >= 0.5), [(0.5, 2.5)]


def _mean_II(t, sc):
    b = (
        (5 * np.sin(np.pi * t) + 2.75) * (t <= 1 / 3)
        + 5 * np.sin(np.pi * t) * ((t > 1 / 3) & (t <= 2 / 3))
        + (5 * np.sin(2 * np.pi / 3) + 2.75)
        * (1 - 10 * (t - 2 / 3) ** 2)
        * (t > 2 / 3)
    )
    return b, [(1 / 3, -2.75), (2 / 3, 2.75)]


def _steps_nine(t):
    return _steps(t, 9, 8)


def _mean_In(t, sc):
    truth = [(i / 9, 1.99 if i % 2 == 0 else -1.99) for i in range(1, 9)]
    return 1.0 + 1.99 * _steps_nine(t), truth


def _mean_IIn(t, sc):
    truth = [(i / 9, 1.99 if i % 2 == 0 else -1.99) for i in range(1, 9)]
    return 5 * np.sin(2 * np.pi * t) + 1.99 * _steps_nine(t), truth


def _mean_increasing(t, sc):
    n = sc.n
    k = increasing_jump_count(n)
    delta = increasing_jump_size(n)
    truth = [(i / (k + 1), delta if i % 2 == 0 else -delta) for i in range(1, k + 1)]
    return 10.0 * t + delta * _steps(t, k + 1, k), truth


def _mean_smooth(t, sc):
    d = sc.d
    truth = [] if d == 0 else [(0.5, -d)]
    return np.cos(np.pi * t) + d * ((t > 0) & (t <= 0.5)), truth


def _mean_zero(t, sc):
    return np.zeros_like(t), []


MEAN_MODELS = {
    "I": _mean_I,
    "II": _mean_II,
    "InP": _mean_In,
    "IInP": _mean_IIn,
    "increasing": _mean_increasing,
    "smooth_shift": _mean_smooth,
    "zero": _mean_zero,
}

# scenario presets: (default noise, noise multiplier)
_PRESETS = {
    "InP": (None, 1.1),
    "IInP": (None, 1.1),
    "increasing": ("PLSnP", 1.1),
    "smooth_shift": ("SmoothPLS", 0.5),
}


@dataclass(frozen=True)
class PlsScenario:
    """Declarative scenario: mean model + noise process + size + seed."""

    mean_model: str
    noise_model: str
    n: int
    seed: int = 0
    d: float = 0.0
    noise_scale: float = 1.0

    @classmethod
    def make(cls, mean_model, noise_model=None, n=500, seed=0, d=0.0):
        """Scenario with the conventional noise pairing and scaling applied."""
        if mean_model not in MEAN_MODELS:
            raise ValueError(f"unknown mean model {mean_model!r}")
        default_noise, scale = _PRESETS.get(mean_model, (None, 1.0))
        noise = noise_model or default_noise
        if noise is None:
            raise ValueError(f"noise model required for mean {mean_model!r}")
        if noise not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {noise!r}")
        return cls(
            mean_model=mean_model, noise_model=noise, n=n, seed=seed, d=d, noise_scale=scale
        )


def _generate(sc: PlsScenario, rngs):
    """(m, n) series of ``sc``, row i driven by ``rngs[i]``, and the true jumps.

    The mean and every time-varying coefficient are computed once for the
    batch; only the innovations are per row, each row's generator drawing
    them in the order a one-row call does.  Row i is therefore bitwise the
    series that ``_generate(sc, [rngs[i]])`` returns.
    """
    if sc.n < MIN_N:
        raise ValueError(f"n must be at least {MIN_N}")
    if sc.mean_model not in MEAN_MODELS:
        raise ValueError(f"unknown mean model {sc.mean_model!r}")
    if sc.noise_model not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {sc.noise_model!r}")
    t = (np.arange(sc.n) + 1.0) / sc.n
    beta, truth = MEAN_MODELS[sc.mean_model](t, sc)
    eps = NOISE_MODELS[sc.noise_model](sc.n, _BURN_IN, rngs)
    return beta + sc.noise_scale * eps, truth


def gen_series(sc: PlsScenario):
    """Simulate one series; returns (y, truth) with truth = [(loc, size), ...]."""
    ymat, truth = _generate(sc, [rng_for(sc.seed)])
    return ymat[0], truth


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorSpec:
    """Detector settings used by the Monte-Carlo harness."""

    cfg: ScaleConfig | None  # None: automatic scales per replicate
    alpha: object = "auto"  # float or "auto"
    threshold_mode: str = "analytic"
    filt: object = None  # defaults to the built-in optimal filter

    def filter(self):
        if self.filt is not None:
            return self.filt
        from .filters import builtin_wstar

        return builtin_wstar()


def _mad(estimates, truth):
    est = sorted(estimates)
    tru = sorted(loc for loc, _ in truth)
    return float(np.mean([abs(a - b) for a, b in zip(est, tru)]))


def _mc_chunk(task):
    """A chunk of replicates as one batch.

    One ``_generate`` call makes every series of the chunk.  With fixed
    scales one ``_multiscale_fields`` batch builds their fields, and one
    ``tuning._detect_rows`` pass settles the levels, peaks and refinements
    of all rows together, as ``auto_detect`` does for one; with automatic
    scales each row runs the whole ``auto_detect``.  Returns one (count, hit, mad_raw, mad_refined,
    detection s, generation s) row per replicate, the chunk's times shared
    evenly by its replicates.
    """
    sc, det, alpha, seed, reps = task
    filt = det.filter()
    t_gen = time.perf_counter()
    ymat, truth = _generate(sc, [rng_for(seed, r) for r in reps])
    t0 = time.perf_counter()
    if det.cfg is None:
        results = [
            auto_detect(y, filt, alpha=alpha, threshold_mode=det.threshold_mode)[0]
            for y in ymat
        ]
    else:
        results, _ = _detect_rows(
            ymat, _multiscale_fields(ymat, det.cfg, filt), alpha, threshold_mode=det.threshold_mode
        )
    dt = (time.perf_counter() - t0) / len(reps)
    gen = (t0 - t_gen) / len(reps)
    rows = []
    for res in results:
        hit = res.count == len(truth)
        mad_raw = mad_ref = math.nan
        if hit and truth:
            mad_raw = _mad([j.location for j in res.jumps_raw], truth)
            mad_ref = _mad(res.jumps_refined, truth)
        rows.append((res.count, hit, mad_raw, mad_ref, dt, gen))
    return rows


def monte_carlo(sc: PlsScenario, det: DetectorSpec, R: int = 200, seed: int = 0, threads: int = 1):
    """Replicate gen_series -> detection R times and score against truth.

    hit_rate is the fraction of replicates whose detected count matches the
    true count; location errors (MAD, per replicate the mean absolute
    deviation after sorting) are aggregated over hits only.  Replicates use
    independent streams derived from (seed, r), so results do not depend on
    the worker count or on how replicates are batched.

    Replicates run in contiguous chunks of at most ``util._CHUNK_VALUES``
    series values, burn-in included, one or more per worker; each chunk
    generates its series in one batch and, with fixed scales, builds their
    fields in one batch (``_mc_chunk``).  ``threads`` worker processes are
    forked for this call (``util._pool_chunks``), while the calling process
    only waits (the small-array replicate loop starves thread pools).  An
    error in a replicate is raised here unchanged and a worker that dies
    without a result raises ``RuntimeError``; neither is rerun serially,
    and no worker outlives the call.  ``mean_runtime`` and
    ``mean_gen_runtime`` are the mean detection and generation times per
    replicate: each chunk's times shared evenly by its replicates.  A
    malformed threshold mode or level raises ``ValueError`` before any
    calibration or worker starts.
    """
    _parse_threshold(det.threshold_mode)
    alpha = _level(det.alpha)
    if R < 50:
        raise ValueError("R must be at least 50")
    if threads < 1:
        raise ValueError("threads must be at least 1")

    # warm the calibration caches, and the level grid select_alpha reads,
    # before forking, at a replicate's seed and thread count; automatic
    # scales differ per replicate, so there is nothing to warm
    if det.cfg is not None:
        cfg, filt = det.cfg, det.filter()
        _resolve_threshold(det.threshold_mode, 0.10, cfg, filt, sc.n, 0, 1)
        if alpha == "auto":
            _cv_grid(tail_constants(filt, cfg.s_lower, cfg.s_upper))

    tasks = [(sc, det, alpha, seed, reps) for reps in _chunks(R, threads, _BURN_IN + sc.n)]
    rows = [row for chunk in _pool_chunks(_mc_chunk, tasks, threads) for row in chunk]
    counts, hits, mr, mf, times, gen_times = (np.array(col) for col in zip(*rows))
    got = ~np.isnan(mr)
    return {
        "hit_rate": float(np.mean(hits)),
        "mean_m": float(np.mean(counts)),
        "mad_raw": float(np.nanmean(mr)) if got.any() else math.nan,
        "mad_refined": float(np.nanmean(mf)) if got.any() else math.nan,
        "mad_raw_median": float(np.nanmedian(mr)) if got.any() else math.nan,
        "mad_refined_median": float(np.nanmedian(mf)) if got.any() else math.nan,
        "mean_runtime": float(np.mean(times)),
        "mean_gen_runtime": float(np.mean(gen_times)),
        "counts": counts.tolist(),
        "mad_raw_all": mr.tolist(),
        "mad_refined_all": mf.tolist(),
    }

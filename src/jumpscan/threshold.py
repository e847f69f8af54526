"""Analytic tail approximation, critical values, and bootstrap alternatives.

The detector thresholds the maximum of the self-normalized multiscale
statistic.  Its Gaussian-field tail has the closed form

    alpha(c) = kappa * c / (sqrt(2) pi^(3/2)) * exp(-c^2/2)
             + zeta1p / (2 pi) * exp(-c^2/2) + 2 (1 - Phi(c)),

whose constants derive from the filter's moment constants and the scale
interval.  ``bootstrap_cv`` simulates the same maximum with Gaussian
multipliers instead.  ``fs_correction`` measures, by simulation, how much
the *estimated* denominator fattens the null maximum relative to the
deterministic-denominator field the formula describes, at the detection
level; every analytic or bootstrap threshold is multiplied by that factor.
The raw closed-form value stays reachable as the ``fixed:C`` mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import ScaleConfig, _field_batch, _self_normalized
from .util import _chunks, _pool_chunks, rng_for

__all__ = [
    "TailConstants",
    "tail_constants",
    "alpha_of_c",
    "critical_value",
    "bootstrap_cv",
    "fs_correction",
]


@dataclass(frozen=True)
class TailConstants:
    """Constants of the closed-form tail for a given filter and scale pair.

    ``kappa`` is the interior (area) coefficient, ``zeta1p`` the
    finite-sample boundary coefficient.
    """

    kappa: float
    zeta1p: float

    def __post_init__(self):
        if not (self.kappa > 0 and self.zeta1p > 0):
            raise ValueError("tail constants must be positive (need s_lower < s_upper < 1/2)")


def tail_constants(filt, s_lower: float, s_upper: float) -> TailConstants:
    """Build :class:`TailConstants` from filter moments and the scale pair."""
    if not (0 < s_lower < s_upper < 0.5):
        raise ValueError("need 0 < s_lower < s_upper < 1/2")
    m = filt.moments()
    dom = 1.0 - 2.0 * s_upper
    kappa = math.sqrt(m.w11 * m.w22) / m.u11 * (1.0 / s_lower - 1.0 / s_upper) * dom
    # Boundary coefficient: the scale-edge metric sqrt(w22/u11), damped by
    # the domain length.  (The w11-based variant overstates the boundary
    # mass at practical scale pairs; see the calibration tests.)
    zeta1p = dom * math.sqrt(m.w22 / m.u11) * (1.0 / s_upper + 1.0 / s_lower)
    return TailConstants(kappa=kappa, zeta1p=zeta1p)


def alpha_of_c(c: float, tc: TailConstants) -> float:
    """Tail probability of the multiscale maximum at level ``c`` (> 0)."""
    if c <= 0:
        raise ValueError("c must be positive")
    e = math.exp(-0.5 * c * c)
    gauss_tail = math.erfc(c / math.sqrt(2.0))  # = 2 (1 - Phi(c))
    return tc.kappa * c / (math.sqrt(2.0) * math.pi ** 1.5) * e + tc.zeta1p / (
        2.0 * math.pi
    ) * e + gauss_tail


@lru_cache(maxsize=1024)
def critical_value(alpha: float, tc: TailConstants) -> float:
    """Root of ``alpha_of_c(c) = alpha`` by bisection on [0.5, 12].

    A pure function of the level and the frozen constants, so it is
    memoised: every detection at a recurring (alpha, constants) pair skips
    the 33-step bisection.
    """
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 0.5)")
    lo, hi = 0.5, 12.0
    flo = alpha_of_c(lo, tc) - alpha
    fhi = alpha_of_c(hi, tc) - alpha
    if flo < 0 or fhi > 0:
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: alpha({lo})={flo + alpha:.3g}, "
            f"alpha({hi})={fhi + alpha:.3g}"
        )
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if alpha_of_c(mid, tc) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=64)
def _gauss_max_stats(n, cfg, filt, B, seed, threads=1):
    """Null maxima from B Gaussian multiplier series.

    Returns read-only arrays (selfnorm_max, fixed_max, fullrange_fixed_max):
    the self-normalized maximum over the valid mask of the statistic core
    (``field._field_batch``, as detection builds it), the
    deterministic-denominator maximum over the core [s_upper, 1 - s_upper],
    and the deterministic maximum over every time point.  Row r is drawn
    from ``rng_for(seed, r)``.  The rows run in chunks of at most
    ``util._CHUNK_VALUES`` series values (``util._chunks``), on ``threads``
    worker processes (``util._pool_chunks``); the results are identical for
    any worker count.  Cached, so every quantile of one configuration comes
    from one simulation.
    """
    b = int(math.floor(n * cfg.s_upper))
    root_u11 = math.sqrt(filt.moments().u11)

    def chunk(rows):
        ymat = np.vstack([rng_for(seed, r).standard_normal(n) for r in rows])
        _, hmax, xi, valid = _field_batch(ymat, cfg, filt)
        sn = np.max(_self_normalized(hmax, xi, valid, -np.inf), axis=1)
        fixed = np.max(hmax[:, b : n - b], axis=1) / root_u11
        return sn, fixed, np.max(hmax, axis=1) / root_u11

    chunks = _pool_chunks(chunk, _chunks(B, threads, n), threads)
    out = tuple(np.concatenate(parts) for parts in zip(*chunks))
    for arr in out:
        arr.flags.writeable = False
    return out


def bootstrap_cv(
    alpha: float,
    n: int,
    cfg: ScaleConfig,
    filt,
    B: int = 2000,
    seed: int = 0,
    threads: int = 1,
) -> float:
    """Critical value from B Gaussian multiplier replicates.

    Each replicate draws an i.i.d. standard normal series, filters it over
    the sparse scale grid, and records the maximum of |H|/sqrt(u11) over
    every time point; the (1 - alpha) order statistic is returned.  The
    replicates run on ``threads`` worker processes (``_gauss_max_stats``),
    and the value is identical for any worker count.
    """
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 0.5)")
    if B < 100:
        raise ValueError("B must be at least 100")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    _, _, full = _gauss_max_stats(n, cfg, filt, B, seed, threads)
    order = np.sort(full)
    return float(order[int(math.floor(B * (1.0 - alpha))) - 1])


@lru_cache(maxsize=64)
def _fs_ratio_curve(n, cfg, filt, B, seed):
    sn, fx, _ = _gauss_max_stats(n, cfg, filt, B, seed, 1)
    sn = np.sort(sn)
    fx = np.sort(fx)
    probes = np.array([0.80, 0.85, 0.90, 0.95, 0.98])
    raw = np.array([sn[int(p * B) - 1] / fx[int(p * B) - 1] for p in probes])
    # single-quantile ratios carry O(B^-1/2) noise; a linear fit over the
    # probe levels stabilizes the curve
    a, b = np.polyfit(probes, raw, 1)
    return probes, np.maximum(a * probes + b, 1.0)


def fs_correction(
    n: int,
    cfg: ScaleConfig,
    filt,
    B: int = 800,
    seed: int = 20_240_817,
    alpha: float = 0.10,
) -> float:
    """Finite-sample threshold factor for the estimated denominator.

    Quantile ratio between the self-normalized null maximum and its
    deterministic-denominator counterpart, both simulated with Gaussian
    multipliers, interpolated at the (1 - ``alpha``) quantile and clamped
    to the simulated probe range.  The default 0.10 reads the middle probe,
    which equals the median of the five probe ratios: the fitted line is
    monotone, and so stays after clamping at 1.  Deterministic given
    ``seed`` and cached per configuration; >= 1 by construction.
    """
    probes, ratios = _fs_ratio_curve(n, cfg, filt, B, seed)
    p = min(max(1.0 - alpha, probes[0]), probes[-1])
    return float(np.interp(p, probes, ratios))

"""Scale grid, self-normalizing denominator, and the multiscale statistic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import filter_bank

__all__ = ["ScaleConfig", "scale_grid", "xi_denominator", "MultiscaleField", "multiscale_field"]

# relative floor below which a denominator entry counts as degenerate
_XI_FLOOR = 1e-12
# time-smoothing half-width of the denominator, as a fraction of the band
_XI_SMOOTH_FRACTION = 1.0


@dataclass(frozen=True)
class ScaleConfig:
    """Scale triple (s_lower, s_upper, s_star) plus the grid density exponent."""

    s_lower: float
    s_upper: float
    s_star: float
    grid_eps: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.s_star < self.s_lower < self.s_upper <= 0.5):
            raise ValueError(
                "need 0 < s_star < s_lower < s_upper <= 1/2, got "
                f"({self.s_star}, {self.s_lower}, {self.s_upper})"
            )
        if self.grid_eps <= 0:
            raise ValueError("grid_eps must be positive")

    def validate_n(self, n: int) -> None:
        if n * self.s_star < 2:
            raise ValueError("n * s_star < 2: denominator scale unresolvable")


def scale_grid(n: int, cfg: ScaleConfig) -> np.ndarray:
    """Log2-equispaced grid of floor((log n)^(1+eps)) scales in [s_lower, s_upper]."""
    count = int(math.floor(math.log(n) ** (1.0 + cfg.grid_eps)))
    if count < 2:
        raise ValueError("grid degenerate: fewer than two scales")
    g = np.linspace(math.log2(cfg.s_lower), math.log2(cfg.s_upper), count)
    s = 2.0 ** g
    s[0], s[-1] = cfg.s_lower, cfg.s_upper
    if np.any(np.diff(s) <= 0):
        raise ValueError("grid degenerate: scales not strictly increasing")
    return s


def _band_mean_sq(hvals: np.ndarray, a: int, b: int, lo: int, hi: int) -> np.ndarray:
    """Rolling two-sided band average of hvals**2 over a <= |i-j| <= b.

    Band indices are additionally truncated to [lo, hi); rows outside that
    range carry boundary-truncated filter windows and would leak level
    shifts into the denominator.
    """
    m, n = hvals.shape
    if a > b:
        raise ValueError("empty denominator band: s_star too close to s_upper")
    Q = np.concatenate([np.zeros((m, 1)), np.cumsum(hvals * hvals, axis=1)], axis=1)
    j = np.arange(n)
    rl = np.clip(j + a, lo, hi)
    rh = np.clip(j + b + 1, lo, hi)
    ll = np.clip(j - b, lo, hi)
    lh = np.clip(j - a + 1, lo, hi)
    total = (Q[:, rh] - Q[:, rl]) + (Q[:, lh] - Q[:, ll])
    count = (rh - rl) + (lh - ll)
    if np.any(count == 0):
        raise ValueError("empty denominator band")
    return total / count


def _xi_band(hstar: np.ndarray, s_star: float, s_upper: float) -> np.ndarray:
    """Banded average of the squared s_star responses (rows of ``hstar``)."""
    n = hstar.shape[1]
    a = int(math.ceil(n * s_star))
    b = int(math.floor(n * s_upper))
    hw = int(math.floor(n * s_star))
    return _band_mean_sq(hstar, a, b, lo=hw, hi=n - hw)


def _moving_average(x: np.ndarray, half: int) -> np.ndarray:
    """Centered moving average along the last axis, truncated at the edges."""
    n = x.shape[-1]
    Q = np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x, axis=-1)], axis=-1)
    j = np.arange(n)
    lo = np.clip(j - half, 0, n)
    hi = np.clip(j + half + 1, 0, n)
    return (Q[..., hi] - Q[..., lo]) / (hi - lo)


def _xi_smoothed(hstar: np.ndarray, cfg: ScaleConfig) -> np.ndarray:
    """Denominator series used by the detector's statistic.

    The banded average Xi has few effective degrees of freedom (its terms
    are filter outputs with window-length correlation), and its dips inflate
    the self-normalized maximum well beyond the Gaussian-field tail.  A
    further moving average across time, one band radius wide on each side,
    suppresses that sampling noise while still tracking the local noise
    level on the scale the band already pools over.
    """
    raw = _xi_band(hstar, cfg.s_star, cfg.s_upper)
    half = max(1, int(math.floor(hstar.shape[1] * cfg.s_upper * _XI_SMOOTH_FRACTION)))
    return _moving_average(raw, half)


def _grid_responses(ymat: np.ndarray, cfg: ScaleConfig, filt):
    """Scale grid, smoothed denominator and the lazy grid responses of ``ymat``.

    One filter bank serves the denominator scale and every grid scale, so
    each row is transformed once.
    """
    n = ymat.shape[1]
    cfg.validate_n(n)
    grid = scale_grid(n, cfg)
    bank = filter_bank(ymat, [cfg.s_star, *grid], filt)
    xi = _xi_smoothed(next(bank), cfg)
    return grid, xi, bank


def xi_denominator(y, cfg: ScaleConfig, filt) -> np.ndarray:
    """Local second-moment normalizer Xi(j/n) for every j.

    Averages H(i/n, s_star)^2 over the two-sided index band
    s_star <= |i/n - j/n| <= s_upper, truncated to existing indices.
    """
    y = np.asarray(y, dtype=float)
    cfg.validate_n(len(y))
    (hstar,) = filter_bank(y[None, :], [cfg.s_star], filt)
    return _xi_band(hstar, cfg.s_star, cfg.s_upper)[0]


@dataclass(frozen=True)
class MultiscaleField:
    """All per-scale filter responses plus the self-normalized maximum.

    ``xi`` is the operational denominator series: the banded average of
    squared fine-scale responses, stabilized by a band-width moving average
    across time (see ``_xi_smoothed``).
    """

    grid: np.ndarray           # scales, increasing
    h: np.ndarray              # (n_scales, n) filter responses
    xi: np.ndarray             # (n,) denominator
    g: np.ndarray              # (n,) max_u |h[u]| / sqrt(xi); NaN where invalid
    valid: np.ndarray          # (n,) bool; True on [s_upper, 1 - s_upper]
    cfg: ScaleConfig
    u11: float

    @property
    def n(self) -> int:
        return self.h.shape[1]

    def times(self) -> np.ndarray:
        n = self.n
        return (np.arange(n) + 1.0) / n

    def scale_at_max(self, j: int) -> float:
        return float(self.grid[int(np.argmax(np.abs(self.h[:, j])))])


def multiscale_field(y, cfg: ScaleConfig, filt) -> MultiscaleField:
    """Build the full multiscale statistic for one series.

    Raises ``ValueError`` when no point of the valid core has a
    non-degenerate denominator (a constant series, for one).
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 50:
        raise ValueError("series too short (n >= 50 required)")
    grid, xi, bank = _grid_responses(y[None, :], cfg, filt)
    h = np.vstack([r[0] for r in bank])
    xi = xi[0]

    b = int(math.floor(n * cfg.s_upper))
    valid = np.zeros(n, dtype=bool)
    valid[b : n - b] = True
    # A series without spread has Xi = 0 in exact arithmetic; the FFT leaves
    # round-off there that no relative floor can tell from signal.
    xi_max = float(xi.max()) if np.ptp(y) > 0 else 0.0
    if xi_max > 0:
        valid &= xi >= _XI_FLOOR * xi_max
    if xi_max == 0 or not valid.any():
        raise ValueError("no valid point: the denominator is degenerate (constant series?)")

    g = np.full(n, np.nan)
    hmax = np.max(np.abs(h), axis=0)
    g[valid] = hmax[valid] / np.sqrt(xi[valid])
    return MultiscaleField(
        grid=grid, h=h, xi=xi, g=g, valid=valid, cfg=cfg, u11=filt.moments().u11
    )


def _max_g_batch(ymat: np.ndarray, cfg: ScaleConfig, filt):
    """Null maxima per row of ``ymat``, matching multiscale_field's conventions.

    Returns (selfnorm_core, fixed_core, fixed_full): the self-normalized and
    deterministic-denominator maxima over the valid core [s_upper, 1-s_upper],
    plus the deterministic maximum over every time point.  Scales are
    reduced as they come out of the bank, so memory stays O(rows x n).
    """
    m, n = ymat.shape
    _, xi, bank = _grid_responses(ymat, cfg, filt)
    hmax = np.zeros((m, n))
    for hs in bank:
        np.maximum(hmax, np.abs(hs, out=hs), out=hmax)
    b = int(math.floor(n * cfg.s_upper))
    core = slice(b, n - b)
    root_u11 = math.sqrt(filt.moments().u11)
    sn = np.max(hmax[:, core] / np.sqrt(np.maximum(xi[:, core], _XI_FLOOR)), axis=1)
    fixed = np.max(hmax[:, core], axis=1) / root_u11
    full = np.max(hmax, axis=1) / root_u11
    return sn, fixed, full

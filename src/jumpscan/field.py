"""Scale grid, self-normalizing denominator, and the multiscale statistic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convolve import filter_bank

__all__ = ["MIN_N", "ScaleConfig", "scale_grid", "MultiscaleField", "multiscale_field"]

# shortest series the detector accepts
MIN_N = 100
# relative floor below which a denominator entry counts as degenerate
_XI_FLOOR = 1e-12


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


@lru_cache(maxsize=256)
def scale_grid(n: int, cfg: ScaleConfig) -> np.ndarray:
    """Read-only log2-equispaced grid of floor((log n)^(1+eps)) scales in [s_lower, s_upper]."""
    count = int(math.floor(math.log(n) ** (1.0 + cfg.grid_eps)))
    if count < 2:
        raise ValueError("grid degenerate: fewer than two scales")
    g = np.linspace(math.log2(cfg.s_lower), math.log2(cfg.s_upper), count)
    s = 2.0 ** g
    s[0], s[-1] = cfg.s_lower, cfg.s_upper
    if np.any(np.diff(s) <= 0):
        raise ValueError("grid degenerate: scales not strictly increasing")
    s.flags.writeable = False
    return s


@lru_cache(maxsize=256)
def _band_count(n: int, a: int, b: int, lo: int, hi: int) -> np.ndarray:
    """Read-only number of band indices a <= |i-j| <= b in [lo, hi), per j."""
    j = np.arange(n)
    right = np.clip(j + b + 1, lo, hi) - np.clip(j + a, lo, hi)
    left = np.clip(j - a + 1, lo, hi) - np.clip(j - b, lo, hi)
    count = right + left
    if np.any(count == 0):
        raise ValueError("empty denominator band")
    count.flags.writeable = False
    return count


def _band_mean_sq(hvals: np.ndarray, a: int, b: int, lo: int, hi: int) -> np.ndarray:
    """Rolling two-sided band average of hvals**2 over a <= |i-j| <= b.

    Band indices are additionally truncated to [lo, hi).  Rows outside that
    range carry boundary-truncated filter windows: they would leak level
    shifts into the denominator, and under a large offset their size would
    cancel the band differences, so they stay out of the cumulative sum.
    That sum is padded with its edge values, b + lo on the left and
    n + b - hi on the right, so each of the four band ends, clamped to
    [lo, hi), is one contiguous slice of it.
    """
    m, n = hvals.shape
    if a > b:
        raise ValueError("empty denominator band: s_star too close to s_upper")
    count = _band_count(n, a, b, lo, hi)
    width = hi - lo
    pad_lo, pad_hi = b + lo, n + b - hi
    Q = np.empty((m, pad_lo + width + 1 + pad_hi))
    Q[:, : pad_lo + 1] = 0.0
    inner = hvals[:, lo:hi]
    np.cumsum(inner * inner, axis=1, out=Q[:, pad_lo + 1 : pad_lo + width + 1])
    Q[:, pad_lo + width + 1 :] = Q[:, pad_lo + width : pad_lo + width + 1]

    def at(shift):  # Q at clip(j + shift, lo, hi) - lo, for j = 0 .. n-1
        start = pad_lo - lo + shift
        return Q[:, start : start + n]

    total = (at(b + 1) - at(a)) + (at(1 - a) - at(-b))
    return total / count


def _xi_band(hstar: np.ndarray, s_star: float, s_upper: float) -> np.ndarray:
    """Banded average of the squared s_star responses (rows of ``hstar``)."""
    n = hstar.shape[1]
    a = int(math.ceil(n * s_star))
    b = int(math.floor(n * s_upper))
    hw = int(math.floor(n * s_star))
    return _band_mean_sq(hstar, a, b, lo=hw, hi=n - hw)


@lru_cache(maxsize=256)
def _window_count(n: int, half: int) -> np.ndarray:
    """Read-only number of points of the centered window of radius ``half`` in [0, n)."""
    j = np.arange(n)
    count = np.clip(j + half + 1, 0, n) - np.clip(j - half, 0, n)
    count.flags.writeable = False
    return count


def _moving_average(x: np.ndarray, half: int) -> np.ndarray:
    """Centered moving average along the last axis, truncated at the edges.

    The cumulative sum is padded with its edge values, ``half`` on each
    side, so both window ends are contiguous slices of it.
    """
    n = x.shape[-1]
    Q = np.empty(x.shape[:-1] + (n + 1 + 2 * half,))
    Q[..., : half + 1] = 0.0
    np.cumsum(x, axis=-1, out=Q[..., half + 1 : half + 1 + n])
    Q[..., half + 1 + n :] = Q[..., half + n : half + n + 1]
    return (Q[..., 2 * half + 1 :] - Q[..., :n]) / _window_count(n, half)


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
    half = max(1, int(math.floor(hstar.shape[1] * cfg.s_upper)))
    return _moving_average(raw, half)


def _field_batch(ymat: np.ndarray, cfg: ScaleConfig, filt):
    """Scale grid, smoothed denominator, valid mask and lazy grid responses.

    The one statistic core: detection (``multiscale_field``, one row) and
    the null simulation behind the thresholds (``threshold._gauss_max_stats``)
    both reduce the responses to max_u |H(t, u)| and divide by sqrt(Xi) on
    the valid mask.  One filter bank serves the denominator scale and every
    grid scale, so each row is transformed once.

    A point is valid when it lies in the core [s_upper, 1 - s_upper] and its
    Xi is at least ``_XI_FLOOR`` times the row maximum.  A row without
    spread has Xi = 0 in exact arithmetic; the FFT leaves round-off there
    that no relative floor can tell from signal, so none of its points is
    valid.
    """
    n = ymat.shape[1]
    cfg.validate_n(n)
    grid = scale_grid(n, cfg)
    bank = filter_bank(ymat, [cfg.s_star, *grid], filt)
    xi = _xi_smoothed(next(bank), cfg)
    spread = np.ptp(ymat, axis=1, keepdims=True) > 0
    top = np.where(spread, xi.max(axis=1, keepdims=True), 0.0)
    valid = (xi >= _XI_FLOOR * top) & (top > 0)
    b = int(math.floor(n * cfg.s_upper))
    valid[:, :b] = False
    valid[:, n - b :] = False
    return grid, xi, valid, bank


def _self_normalized(hmax, xi, valid, fill):
    """hmax / sqrt(xi) on the valid mask, ``fill`` elsewhere."""
    return np.divide(hmax, np.sqrt(xi), out=np.full(hmax.shape, fill), where=valid)


@dataclass(frozen=True)
class MultiscaleField:
    """The self-normalized maximum over scales, with its arg-max scale.

    ``xi`` is the operational denominator series: the banded average of
    squared fine-scale responses, stabilized by a band-width moving average
    across time (see ``_xi_smoothed``).  Every array has length n.
    """

    grid: np.ndarray           # scales, increasing
    hmax: np.ndarray           # (n,) max_u |h[u]| over the grid
    arg: np.ndarray            # (n,) int16 index of the grid scale attaining hmax
    xi: np.ndarray             # (n,) denominator
    g: np.ndarray              # (n,) hmax / sqrt(xi); NaN where invalid
    valid: np.ndarray          # (n,) bool; see ``_field_batch``
    cfg: ScaleConfig
    u11: float

    @property
    def n(self) -> int:
        return len(self.g)

    def times(self) -> np.ndarray:
        n = self.n
        return (np.arange(n) + 1.0) / n

    def scale_at_max(self, j: int) -> float:
        return float(self.grid[self.arg[j]])


def multiscale_field(y, cfg: ScaleConfig, filt) -> MultiscaleField:
    """Build the full multiscale statistic for one series.

    Raises ``ValueError`` when no point of the valid core has a
    non-degenerate denominator (a constant series, for one).
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < MIN_N:
        raise ValueError(f"series too short (n >= {MIN_N} required)")
    grid, xi, valid, bank = _field_batch(y[None, :], cfg, filt)
    xi, valid = xi[0], valid[0]
    if not valid.any():
        raise ValueError("no valid point: the denominator is degenerate (constant series?)")
    # running max over scales; a strict comparison keeps the first arg-max
    hmax = np.abs(next(bank)[0])
    arg = np.zeros(n, dtype=np.int16)
    for u, hs in enumerate(bank, start=1):
        h = np.abs(hs[0], out=hs[0])
        np.copyto(arg, u, where=h > hmax)
        np.maximum(hmax, h, out=hmax)
    return MultiscaleField(
        grid=grid, hmax=hmax, arg=arg, xi=xi, g=_self_normalized(hmax, xi, valid, np.nan),
        valid=valid, cfg=cfg, u11=filt.moments().u11,
    )

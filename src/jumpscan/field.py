"""Scale grid, self-normalizing denominator, and the multiscale statistic."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .convolve import _finite_series, filter_bank

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
        if not (0.0 < self.s_star < self.s_lower < self.s_upper < 0.5):
            raise ValueError(
                "need 0 < s_star < s_lower < s_upper < 1/2 (at s_upper = 1/2 the valid "
                f"core is empty), got ({self.s_star}, {self.s_lower}, {self.s_upper})"
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
def _window_count(n: int, lo: int, hi: int, spans: tuple) -> np.ndarray:
    """Read-only number of indices of [lo, hi) in the windows j + [start, stop), per j."""
    j = np.arange(n)
    count = sum(np.clip(j + stop, lo, hi) - np.clip(j + start, lo, hi) for start, stop in spans)
    if np.any(count == 0):
        raise ValueError("empty denominator band")
    count.flags.writeable = False
    return count


def _windowed_mean(vals: np.ndarray, n: int, lo: int, spans: tuple) -> np.ndarray:
    """Mean of ``vals`` over the windows j + [start, stop) of ``spans``, for j in [0, n).

    ``vals`` holds the indices [lo, hi) of a length-n axis along its last
    axis, and each window is clamped to [lo, hi).  This is the moving-sum
    (MOSUM) device: one cumulative sum, padded with its edge values, so that
    every clamped window end is a contiguous slice of it.  The spans are
    added in order, then divided by the count.  The padding assumes the
    smallest start is at most lo and the largest stop at least 1, as in both
    denominator averages.
    """
    width = vals.shape[-1]
    starts, stops = zip(*spans)
    first = min(starts)
    pad_lo = lo - first
    Q = np.empty(vals.shape[:-1] + (n + max(stops) - first,))
    Q[..., : pad_lo + 1] = 0.0
    np.cumsum(vals, axis=-1, out=Q[..., pad_lo + 1 : pad_lo + width + 1])
    Q[..., pad_lo + width + 1 :] = Q[..., pad_lo + width : pad_lo + width + 1]

    def at(shift):  # Q at clip(j + shift, lo, hi) - lo, for j = 0 .. n-1
        return Q[..., shift - first : shift - first + n]

    (start, stop), *rest = spans
    total = at(stop) - at(start)
    for start, stop in rest:
        # not +=, which frees the newer temporary: null chunks then fault ~1/3 more pages
        total = total + (at(stop) - at(start))
    total /= _window_count(n, lo, lo + width, spans)
    return total


def _xi_band(hstar: np.ndarray, s_star: float, s_upper: float) -> np.ndarray:
    """Rolling two-sided average of the squared s_star responses (rows of ``hstar``).

    Averages over the band ceil(n s_star) <= |i-j| <= floor(n s_upper),
    truncated to the rows [hw, n - hw), hw = floor(n s_star).  Rows outside
    that range carry boundary-truncated filter windows: they would leak level
    shifts into the denominator, and under a large offset their size would
    cancel the band differences, so they stay out of the cumulative sum.
    Squares past ~1e308 overflow silently: the inf or NaN entries they leave
    fail the validity test of ``_field_batch``.
    """
    n = hstar.shape[1]
    a = int(math.ceil(n * s_star))
    b = int(math.floor(n * s_upper))
    if a > b:
        raise ValueError("empty denominator band: s_star too close to s_upper")
    hw = int(math.floor(n * s_star))
    inner = hstar[:, hw : n - hw]
    with np.errstate(over="ignore", invalid="ignore"):
        return _windowed_mean(inner * inner, n, hw, ((a, b + 1), (-b, 1 - a)))


def _xi_smoothed(hstar: np.ndarray, cfg: ScaleConfig) -> np.ndarray:
    """Denominator series used by the detector's statistic.

    The banded average Xi has few effective degrees of freedom (its terms
    are filter outputs with window-length correlation), and its dips inflate
    the self-normalized maximum well beyond the Gaussian-field tail.  A
    further moving average across time, one band radius wide on each side
    (the same windowed mean with one span), suppresses that sampling noise
    while still tracking the local noise level on the scale the band already
    pools over.  Overflow is handled as in ``_xi_band``.
    """
    raw = _xi_band(hstar, cfg.s_star, cfg.s_upper)
    half = max(1, int(math.floor(hstar.shape[1] * cfg.s_upper)))
    with np.errstate(over="ignore", invalid="ignore"):
        return _windowed_mean(raw, raw.shape[-1], 0, ((-half, half + 1),))


def _field_batch(ymat: np.ndarray, cfg, filt, arg=None):
    """Scale grid, max over scales of |H|, smoothed denominator and valid mask.

    The one statistic core: detection (``multiscale_field``), the null
    simulation behind the thresholds (``threshold._gauss_max_stats``) and
    the scale sweep (``tuning.select_scales``) all take max_u |H(t, u)| here
    and divide it by sqrt(Xi) on the valid mask.  One filter bank serves the
    denominator scale and every grid scale, so each row is transformed once.
    Detection passes an (m, n) int16 ``arg``, which receives the index of
    the first grid scale attaining the maximum; the null simulation and the
    sweep pass none and skip that bookkeeping.

    ``cfg`` is one configuration, or one per output row (the grid is then
    one row of scales per configuration, and a one-row ``ymat`` serves
    every configuration).  Per-row configurations share s_upper and
    grid_eps, so that one FFT length, grid size and valid core serve them
    all; anything else raises ``ValueError``.  Xi is computed once per
    distinct configuration, and row i is bitwise the batch of its own
    configuration alone.

    A point is valid when it lies in the core [s_upper, 1 - s_upper] and its
    Xi is at least ``_XI_FLOOR`` times the row maximum.  A row without
    spread has Xi = 0 in exact arithmetic; the FFT leaves round-off there
    that no relative floor can tell from signal, so none of its points is
    valid.
    """
    n = ymat.shape[1]
    if isinstance(cfg, ScaleConfig):
        cfg.validate_n(n)
        grid = scale_grid(n, cfg)
        bank = filter_bank(ymat, [cfg.s_star, *grid], filt)
        # unnamed: the response views a whole bank block, which would then
        # outlive Xi (+5 MB peak in a 128-row batch at n = 5000)
        xi = _xi_smoothed(next(bank), cfg)
    else:
        cfgs = list(cfg)
        if len({(c.s_upper, c.grid_eps) for c in cfgs}) != 1:
            raise ValueError("per-row configurations must share s_upper and grid_eps")
        for c in cfgs:
            c.validate_n(n)
        grid = np.array([scale_grid(n, c) for c in cfgs])
        bank = filter_bank(ymat, [[c.s_star, *g] for c, g in zip(cfgs, grid)], filt)
        hstar = next(bank)
        xi = np.empty_like(hstar)
        for c in dict.fromkeys(cfgs):
            rows = [i for i, other in enumerate(cfgs) if other == c]
            xi[rows] = _xi_smoothed(hstar[rows], c)
        cfg = cfgs[0]
    spread = np.ptp(ymat, axis=1, keepdims=True) > 0
    top = np.where(spread, xi.max(axis=1, keepdims=True), 0.0)
    valid = (xi >= _XI_FLOOR * top) & (top > 0)
    b = int(math.floor(n * cfg.s_upper))
    valid[:, :b] = False
    valid[:, n - b :] = False
    # running max over scales; a strict comparison keeps the first arg-max
    hmax = np.abs(next(bank))
    for u, hs in enumerate(bank, start=1):
        h = np.abs(hs, out=hs)
        if arg is not None:
            np.copyto(arg, u, where=h > hmax)
        np.maximum(hmax, h, out=hmax)
    return grid, hmax, xi, valid


def _check_length(n: int) -> None:
    if n < MIN_N:
        raise ValueError(f"series too short (n >= {MIN_N} required)")


def _check_valid(valid: np.ndarray) -> None:
    """``ValueError`` unless every row of ``valid`` has a valid point."""
    if not valid.any(axis=1).all():
        raise ValueError("no valid point: the denominator is degenerate (a constant series, "
                         "or squared filter responses that under- or overflow)")


def _self_normalized(hmax, xi, valid, fill):
    """hmax / sqrt(xi) on the valid mask, ``fill`` elsewhere."""
    return np.divide(hmax, np.sqrt(xi), out=np.full(hmax.shape, fill), where=valid)


@dataclass(frozen=True)
class MultiscaleField:
    """The self-normalized maximum over scales, with its arg-max scale.

    ``xi`` is the operational denominator series: the banded average of
    squared fine-scale responses, stabilized by a band-width moving average
    across time (see ``_xi_smoothed``).  Every array has length n, or shape
    (m, n) in the batch of m series that ``_multiscale_fields`` builds.
    ``filt`` is the filter that built the field.
    """

    grid: np.ndarray           # scales, increasing
    hmax: np.ndarray           # (n,) max_u |h[u]| over the grid
    arg: np.ndarray            # (n,) int16 index of the grid scale attaining hmax
    xi: np.ndarray             # (n,) denominator
    g: np.ndarray              # (n,) hmax / sqrt(xi); NaN where invalid
    valid: np.ndarray          # (n,) bool; see ``_field_batch``
    cfg: ScaleConfig
    filt: object

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    @property
    def u11(self) -> float:
        return self.filt.moments().u11

    def times(self) -> np.ndarray:
        n = self.n
        return (np.arange(n) + 1.0) / n


def _rows(field_: MultiscaleField, key) -> MultiscaleField:
    """``field_`` with ``key`` applied to every per-point array.

    An integer takes one row of a batch; ``np.newaxis`` makes a one-row
    field a batch of one.  Both are views.
    """
    arrays = ("hmax", "arg", "xi", "g", "valid")
    return replace(field_, **{name: getattr(field_, name)[key] for name in arrays})


def _multiscale_fields(ymat: np.ndarray, cfg: ScaleConfig, filt) -> MultiscaleField:
    """The multiscale statistic of each row of the (m, n) ``ymat``, as one batch field.

    One ``_field_batch``, arg-max included, serves every row, so row i is
    bitwise the field of ``ymat[i]`` alone.  Raises ``ValueError`` as
    ``multiscale_field`` does when any row has no valid point.
    """
    m, n = ymat.shape
    _check_length(n)
    arg = np.zeros((m, n), dtype=np.int16)
    grid, hmax, xi, valid = _field_batch(ymat, cfg, filt, arg)
    _check_valid(valid)
    g = _self_normalized(hmax, xi, valid, np.nan)
    return MultiscaleField(grid=grid, hmax=hmax, arg=arg, xi=xi, g=g, valid=valid, cfg=cfg,
                           filt=filt)


def multiscale_field(y, cfg: ScaleConfig, filt) -> MultiscaleField:
    """Build the full multiscale statistic for one series.

    Raises ``ValueError`` on a non-finite entry, before any transform, and
    when no point of the valid core has a non-degenerate denominator (a
    constant series, for one).
    """
    return _rows(_multiscale_fields(_finite_series(y)[None, :], cfg, filt), 0)

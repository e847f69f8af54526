"""Data-driven selection of the scale triple and of the detection level.

The scale selections follow the minimum-volatility idea: sweep a candidate
grid, score each candidate by how much a derived statistic wobbles across
its neighbors, and keep the most stable interior candidate.  The detection
level alpha comes from minimizing an upper bound on the probability of
mis-identifying the number of jumps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detect import _parse_threshold, _resolve_threshold, detect_pipeline, mjpd_detect
from .convolve import filter_bank
from .field import MultiscaleField, ScaleConfig, _xi_band, multiscale_field
from .threshold import TailConstants, critical_value, tail_constants

__all__ = [
    "MvReport",
    "min_s_star",
    "select_s_star",
    "select_scales",
    "select_alpha",
    "sigma_sup_estimate",
    "auto_detect",
]


_Q_GRID = np.arange(0.001, 0.301, 0.001)

# the scale sweep counts raw peaks above this level's analytic critical value
_SWEEP_LEVEL = 0.05

# probe candidates below this level's threshold do not inform the level choice
_CANDIDATE_BAR_LEVEL = 0.02
# ... unless their peak scale is this close to the top of the grid
_TOP_SCALE_FRACTION = 0.85

# select_s_star: candidate denominator scales, and neighbors scored on each side
_S_STAR_CANDIDATES = 10
_S_STAR_RADIUS = 2
# select_scales: candidates per grid, and neighbors scored on each side in both grids
_SCALE_GRID_POINTS = 7
_SCALE_RADIUS = 2

# values ranked per block by the sliding median (8 MB of float64)
_MEDIAN_BLOCK = 1 << 20


def _norm_cdf(x) -> np.ndarray:
    """Standard normal cdf, 0.5 erfc(-x / sqrt 2), elementwise (``math.erfc`` over a list)."""
    z = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size)
    return 0.5 * erfc.reshape(z.shape)


def _sliding_median(x: np.ndarray, w: int) -> np.ndarray:
    """Moving median over ``w`` points with edge values repeated.

    The window at i spans i - w//2 .. i - w//2 + w - 1 and the rank taken is
    w//2, so an even ``w`` gives the upper of the two middle values; this is
    ``scipy.ndimage.median_filter(x, size=w, mode="nearest")`` exactly.
    Windows are ranked in blocks of about ``_MEDIAN_BLOCK`` values, so
    memory stays bounded whatever ``w``.
    """
    lo = w // 2
    windows = sliding_window_view(np.pad(x, (lo, w - 1 - lo), mode="edge"), w)
    out = np.empty(len(x))
    block = max(1, _MEDIAN_BLOCK // w)
    for start in range(0, len(x), block):
        part = windows[start : start + block]
        out[start : start + block] = np.partition(part, lo, axis=1)[:, lo]
    return out


@lru_cache(maxsize=128)
def _cv_grid(tc: TailConstants) -> np.ndarray:
    # memoised as a whole, so its 300 levels bypass the per-level cache
    return np.array([critical_value.__wrapped__(q, tc) for q in _Q_GRID])


@dataclass
class MvReport:
    """Outcome of a minimum-volatility sweep."""

    candidates: list
    scores: list
    chosen_index: int

    @property
    def chosen(self):
        return self.candidates[self.chosen_index]


def min_s_star(n: int) -> float:
    """Smallest denominator scale, (1/6) n^(-1/2) log^(1/2) n."""
    return (1.0 / 6.0) * n ** -0.5 * math.log(n) ** 0.5


def select_s_star(y, s_lower: float, s_upper: float, filt) -> MvReport:
    """Pick the denominator scale by minimum volatility of sqrt(Xi).

    ``_S_STAR_CANDIDATES`` candidates run linearly from ``min_s_star(n)`` up
    to ``s_lower``; each interior candidate is scored by the worst-case
    (over time) sample variance of sqrt(Xi(t)) across its 2k+1 neighbors,
    k = ``_S_STAR_RADIUS``.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    k = _S_STAR_RADIUS
    lo = min_s_star(n)
    if lo >= s_lower:
        raise ValueError("s_lower below the smallest admissible candidate")
    cands = np.linspace(lo, s_lower, _S_STAR_CANDIDATES)
    keep = cands * n >= 2
    if not np.all(keep):
        warnings.warn("dropping candidate scales with n*s < 2")
        cands = cands[keep]
    if len(cands) < 2 * k + 1:
        raise ValueError("too few viable candidates after dropping small scales")
    if not s_lower < s_upper < 0.5:
        raise ValueError("need s_lower < s_upper < 1/2 (at s_upper = 1/2 the valid core is empty)")
    bank = filter_bank(y[None, :], cands, filt)
    roots = np.vstack([np.sqrt(_xi_band(hs, s, s_upper)[0]) for s, hs in zip(cands, bank)])
    b = int(math.floor(n * s_upper))
    core = roots[:, b : n - b]
    scores = []
    for r in range(len(cands)):
        if r - k < 0 or r + k >= len(cands):
            scores.append(np.inf)
            continue
        block = core[r - k : r + k + 1]
        scores.append(float(np.max(np.var(block, axis=0, ddof=1))))
    chosen = int(np.argmin(scores))
    return MvReport(candidates=[float(c) for c in cands], scores=scores, chosen_index=chosen)


def _scale_grids(n: int):
    """The candidate s_lower and s_upper grids of :func:`select_scales` at length n."""
    return (
        np.linspace(n ** (-1 / 3) / 4, n ** (-1 / 3) / 2, _SCALE_GRID_POINTS),
        np.linspace(n ** (-1 / 6) / 6, n ** (-1 / 6) / 3, _SCALE_GRID_POINTS),
    )


def select_scales(y, filt) -> MvReport:
    """Pick (s_lower, s_upper) where the detected jump count is most stable.

    The candidates are ``_SCALE_GRID_POINTS`` values of s_lower in
    [n^(-1/3)/4, n^(-1/3)/2] against as many of s_upper in
    [n^(-1/6)/6, n^(-1/6)/3].  Counts the raw peaks of every admissible
    pair (s_lower < s_upper) above its analytic critical value at level
    0.05; the score of an interior pair is the sample variance of the
    counts over its (2 k3 + 1)^2 neighborhood, k3 = ``_SCALE_RADIUS``,
    restricted to admissible pairs.  Below n = 729 some corner pairs are
    inadmissible; every interior pair is admissible from n = ``MIN_N`` on.
    Ties break toward the smallest s_lower + s_upper.

    The sweep reads no threshold mode and applies no finite-sample factor:
    counts shift almost uniformly across pairs, and simulating or
    calibrating every candidate pair would dominate the cost.  No
    refinement runs.
    """
    y = np.asarray(y, dtype=float)
    grid1, grid2 = _scale_grids(len(y))
    k1, k2, k3 = len(grid1), len(grid2), _SCALE_RADIUS

    sstar_cache = {}

    def s_star_for(sl):
        if sl not in sstar_cache:
            sstar_cache[sl] = select_s_star(y, sl, float(grid2[-1]), filt).chosen
        return sstar_cache[sl]

    counts = np.full((k1, k2), -1, dtype=int)
    for i, sl in enumerate(grid1):
        for j, su in enumerate(grid2):
            if sl >= su:
                continue
            cfg = ScaleConfig(s_lower=float(sl), s_upper=float(su), s_star=s_star_for(float(sl)))
            c = critical_value(_SWEEP_LEVEL, tail_constants(filt, cfg.s_lower, cfg.s_upper))
            counts[i, j] = len(mjpd_detect(multiscale_field(y, cfg, filt), c))

    pairs, scores = [], []
    for i in range(k3, k1 - k3):
        for j in range(k3, k2 - k3):
            nb = counts[i - k3 : i + k3 + 1, j - k3 : j + k3 + 1]
            pairs.append((float(grid1[i]), float(grid2[j])))
            scores.append(float(np.var(nb[nb >= 0], ddof=1)))
    order = sorted(
        range(len(pairs)), key=lambda r: (scores[r], pairs[r][0] + pairs[r][1])
    )
    return MvReport(candidates=pairs, scores=scores, chosen_index=order[0])


def select_alpha(
    n: int,
    s_upper: float,
    sigma_sup: float,
    tc: TailConstants,
    filt,
    m_guess: float | None = None,
    delta_guess: float | None = None,
    correction: float = 1.0,
) -> float:
    """Detection level minimizing a mis-identification bound.

    Balances the false-alarm level q against the chance of missing one of
    ``m_guess`` jumps of size ``delta_guess``; the miss term is evaluated
    through the detectability ratio xi_n implied by the configuration.
    ``correction`` scales the thresholds the same way detection does.
    """
    if sigma_sup <= 0:
        raise ValueError("sigma_sup must be positive")
    if m_guess is None:
        m_guess = 1.0 / (2.0 * s_upper)
    if delta_guess is None:
        delta_guess = s_upper
    mom = filt.moments()
    xi_n = (
        math.sqrt(n * s_upper)
        * delta_guess
        * mom.f0
        / (sigma_sup * math.sqrt(mom.u11))
    )
    if not math.isfinite(xi_n):
        raise ValueError("non-finite detectability ratio")
    cvals = _cv_grid(tc) * correction
    # both tails of hit in one call: P(Z < c - xi_n) - P(Z < -c - xi_n)
    tails = _norm_cdf(np.concatenate([cvals - xi_n, -cvals - xi_n]))
    hit = tails[: len(cvals)] - tails[len(cvals) :]
    miss = 1.0 - (1.0 - hit) ** m_guess
    delta = _Q_GRID + miss
    return float(_Q_GRID[int(np.argmin(delta))])


def sigma_sup_estimate(field_: MultiscaleField) -> float:
    """Largest local noise level implied by the denominator series.

    Median-smooths Xi over a window of floor(n * s_star) points to damp
    jump contamination, then returns max over valid t of sqrt(Xi / u11).
    """
    n = field_.n
    w = max(int(math.floor(n * field_.cfg.s_star)), 1)
    smoothed = _sliding_median(field_.xi, w)
    vals = smoothed[field_.valid]
    if len(vals) == 0:
        raise ValueError("no valid denominator entries")
    return float(np.sqrt(np.max(vals) / field_.u11))


def _implied_jump_size(g_value, n, s_upper, sigma_sup, filt):
    """Jump size whose detectability ratio equals the observed peak value.

    Inverting the ratio makes the follow-up level selection depend on the
    peak statistic itself, so the noise-level estimate cancels out.
    """
    m = filt.moments()
    return g_value * sigma_sup * math.sqrt(m.u11) / (math.sqrt(n * s_upper) * m.f0)


def _level(alpha):
    """``'auto'``, or ``alpha`` as a float in (0, 0.5); else ``ValueError``."""
    if alpha == "auto":
        return alpha
    try:
        level = float(alpha)
    except (TypeError, ValueError):
        level = math.nan
    if not 0 < level < 0.5:
        raise ValueError(f"alpha must be 'auto' or lie in (0, 0.5), got {alpha!r}")
    return level


def auto_detect(
    y,
    filt,
    cfg: ScaleConfig | None = None,
    alpha: float | str = "auto",
    threads: int = 1,
    threshold_mode: str = "analytic",
    seed: int = 0,
):
    """Detection with data-driven tuning; returns (result, info).

    The keywords after ``threads`` are those of :func:`detect_pipeline`, with
    its defaults.  A malformed ``threshold_mode``, or an ``alpha`` that is
    neither ``'auto'`` nor in (0, 0.5), raises ``ValueError`` before any
    work.  Missing scales come from the minimum-volatility selections, which
    read only analytic critical values, whatever the threshold mode.  With
    ``alpha='auto'`` the level is chosen by :func:`select_alpha` and, when
    the raw peaks of a moderate-level probe include candidate jumps,
    refreshed once with their count and implied minimum jump size.  Only
    the probe and the final detection pass use ``threshold_mode``; the pass
    runs at the settled level.  The field is built once; the probe and the
    pass reuse it and ``info["field"]`` returns it.
    """
    _parse_threshold(threshold_mode)
    alpha = _level(alpha)
    y = np.asarray(y, dtype=float)
    info = {}
    if cfg is None:
        pair = select_scales(y, filt)
        sl, su = pair.chosen
        star = select_s_star(y, sl, su, filt)
        cfg = ScaleConfig(s_lower=sl, s_upper=su, s_star=star.chosen)
        info["scale_report"] = pair
        info["s_star_report"] = star
    info["config"] = cfg
    field_ = multiscale_field(y, cfg, filt)
    info["field"] = field_
    res = _detect_on_field(
        y, field_, filt, alpha, info, threshold_mode=threshold_mode, seed=seed, threads=threads
    )
    return res, info


def _detect_on_field(
    y, field_, filt, alpha, info, *, threshold_mode="analytic", seed=0, threads=1
):
    """What :func:`auto_detect` does once the field of ``y`` is built.

    ``alpha`` is ``'auto'`` or a level already checked by ``_level``; the
    keywords and their defaults are those of :func:`auto_detect`.  With
    ``'auto'`` the level is settled from the field (``select_alpha``, then
    the probe); the level choices go into ``info``, and one detection pass
    runs on ``field_``.
    """
    cfg = field_.cfg
    n = field_.n

    def level_pass(level):
        return detect_pipeline(
            y, cfg, filt, alpha=level, threshold_mode=threshold_mode, seed=seed,
            threads=threads, field_=field_,
        )

    if alpha != "auto":
        info["alpha"] = alpha
        return level_pass(alpha)

    tc = tail_constants(filt, cfg.s_lower, cfg.s_upper)
    corr = _resolve_threshold(threshold_mode, 0.10, cfg, filt, n, seed, threads)[1]
    sigma = sigma_sup_estimate(field_)
    a1 = select_alpha(n, cfg.s_upper, sigma, tc, filt, correction=corr)
    info["alpha_round1"] = a1
    level = a1
    # Refinement round.  The rule-of-thumb size guess is pessimistic, so the
    # first level is usually the grid minimum.  A moderate-level probe
    # always runs to enumerate candidate jumps (the strict pass may see only
    # the strongest), and the weakest candidate peak implies the size guess
    # for the final level.  Marginal probe peaks imply a marginal size,
    # which drives the selected level back to the grid minimum, so a
    # spurious probe hit cannot survive to the final pass.  The probe needs
    # only the raw peaks.
    c, _, _ = _resolve_threshold(threshold_mode, max(0.10, a1), cfg, filt, n, seed, threads)
    probe = mjpd_detect(field_, c)
    # Candidates barely above the probe threshold are as likely noise
    # exceedances as jumps; letting them drive the size guess would push
    # the level to the grid ceiling.  A candidate informs the final level
    # if it would survive a strict pass, or if its peak is achieved near
    # the top of the scale grid: genuine jumps are maximized at the widest
    # scales (the response grows with the window), while noise exceedances
    # scatter across the grid.
    bar = critical_value(_CANDIDATE_BAR_LEVEL, tc) * corr
    strong = [
        j
        for j in probe
        if j.g_value >= bar or j.scale >= _TOP_SCALE_FRACTION * cfg.s_upper
    ]
    if strong:
        g_min = min(j.g_value for j in strong)
        a2 = select_alpha(
            n,
            cfg.s_upper,
            sigma,
            tc,
            filt,
            m_guess=len(strong),
            delta_guess=_implied_jump_size(g_min, n, cfg.s_upper, sigma, filt),
            correction=corr,
        )
        if abs(a2 - a1) > 1e-12:
            level = a2
        info["alpha_round2"] = a2
    # the level is settled: one full pass, refinement included
    res = level_pass(level)
    info["alpha"] = res.alpha
    info["sigma_sup"] = sigma
    return res

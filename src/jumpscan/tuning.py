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

from .detect import _level, _parse_threshold, _pass_rows, _peaks, _resolve_threshold
from .convolve import _finite_series, filter_bank
from .field import (
    MultiscaleField, ScaleConfig, _check_length, _check_valid, _field_batch, _rows,
    _self_normalized, _xi_band, multiscale_field,
)
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

# Numerical Recipes' erfcc (Press et al., section 6.2): a Chebyshev fit
# exp(-z^2 + poly(t)) t of erfc(z), z >= 0, t = 1 / (1 + z / 2), whose
# fractional error is below _ERFCC_ERROR; poly's coefficients, constant first
_ERFCC = (
    -1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
    0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277,
)
_ERFCC_ERROR = 1.2e-7

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


def _norm_cdf(x) -> np.ndarray:
    """Standard normal cdf, 0.5 erfc(-x / sqrt 2), elementwise (``math.erfc`` over a list)."""
    z = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size)
    return 0.5 * erfc.reshape(z.shape)


def _norm_cdf_screen(x) -> np.ndarray:
    """Standard normal cdf from ``_ERFCC``, within _ERFCC_ERROR * min(cdf, 1 - cdf) of it.

    |x| is capped at 40, where both tails are 0 in double precision.
    """
    z = np.minimum(np.abs(x), 40.0) / math.sqrt(2.0)
    t = 1.0 / (1.0 + 0.5 * z)
    poly = _ERFCC[-1]
    for c in _ERFCC[-2::-1]:
        poly = c + t * poly
    tail = 0.5 * t * np.exp(poly - z * z)  # 1 - cdf(|x|)
    return np.where(x < 0, tail, 1.0 - tail)


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
    y = _finite_series(y)
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


def _sweep_counts(y: np.ndarray, filt) -> np.ndarray:
    """The raw peak count of every candidate pair of :func:`select_scales`; -1 if inadmissible.

    Entry (i, j) counts the peaks of the field at (s_lower_i, s_upper_j)
    above its analytic critical value at level ``_SWEEP_LEVEL``.  The
    denominator scale of each s_lower that has an admissible pair is first
    selected against the widest s_upper, in increasing s_lower.  Then one
    column (one s_upper, every admissible s_lower) is one per-row
    ``_field_batch`` of ``y`` and one ``_peaks`` call, so each count is
    bitwise that of the pair's own field.
    """
    n = len(y)
    _check_length(n)
    grid1, grid2 = _scale_grids(n)
    widest = float(grid2[-1])
    s_star = {i: select_s_star(y, float(sl), widest, filt).chosen
              for i, sl in enumerate(grid1) if sl < widest}
    counts = np.full((len(grid1), len(grid2)), -1, dtype=int)
    for j, su in enumerate(grid2):
        rows = [i for i in s_star if grid1[i] < su]
        if not rows:
            continue
        cfgs = [ScaleConfig(s_lower=float(grid1[i]), s_upper=float(su), s_star=s_star[i])
                for i in rows]
        _, hmax, xi, valid = _field_batch(y[None, :], cfgs, filt)
        _check_valid(valid)
        thresholds = [critical_value(_SWEEP_LEVEL, tail_constants(filt, c.s_lower, c.s_upper))
                      for c in cfgs]
        found, _ = _peaks(_self_normalized(hmax, xi, valid, np.nan), valid, float(su), thresholds)
        counts[rows, j] = np.bincount(found, minlength=len(rows))
    return counts


def select_scales(y, filt) -> MvReport:
    """Pick (s_lower, s_upper) where the detected jump count is most stable.

    The candidates are ``_SCALE_GRID_POINTS`` values of s_lower in
    [n^(-1/3)/4, n^(-1/3)/2] against as many of s_upper in
    [n^(-1/6)/6, n^(-1/6)/3].  Counts the raw peaks of every admissible
    pair (s_lower < s_upper) above its analytic critical value at level
    0.05, one batch of fields per s_upper (``_sweep_counts``); the score of
    an interior pair is the sample variance of the counts over its
    (2 k3 + 1)^2 neighborhood, k3 = ``_SCALE_RADIUS``, restricted to
    admissible pairs.  Below n = 729 some corner pairs are inadmissible;
    every interior pair is admissible from n = ``MIN_N`` on.  Ties break
    toward the smallest s_lower + s_upper.

    The sweep reads no threshold mode and applies no finite-sample factor:
    counts shift almost uniformly across pairs, and simulating or
    calibrating every candidate pair would dominate the cost.  No
    refinement runs.
    """
    y = _finite_series(y)
    grid1, grid2 = _scale_grids(len(y))
    counts = _sweep_counts(y, filt)
    k1, k2, k3 = len(grid1), len(grid2), _SCALE_RADIUS
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


def _screen(cvals, xi, m) -> tuple:
    """The objective q + 1 - (1 - hit)^m of every row at thresholds ``cvals``, with ``_ERFCC``.

    Row i holds the pair (xi[i], m[i]).  Returns the (rows, levels)
    screened objective and, per row, a bound on its distance to the exact
    one: the screen moves hit by at most _ERFCC_ERROR, and so the objective
    by at most m times that, since the derivative of 1 - (1 - hit)^m is at
    most m for m >= 1; the 1e-12 covers the rounding of both evaluations.
    """
    x, mm = xi[:, None], m[:, None].astype(float)
    hit = _norm_cdf_screen(cvals - x) - _norm_cdf_screen(-cvals - x)
    return _Q_GRID + (1.0 - (1.0 - np.clip(hit, 0.0, 1.0)) ** mm), mm * (_ERFCC_ERROR + 1e-12)


def _select_levels(xi, m, tc: TailConstants, correction: float) -> np.ndarray:
    """The level of :func:`select_alpha` for each pair (xi[i], m[i]), as an array.

    Every grid level whose screened objective (``_screen``) is within twice
    the screen's bound of the screened minimum is a candidate, so every
    exact minimizer is one.  The candidates alone are re-evaluated with
    ``math.erfc`` in the exhaustive search's arithmetic, and the first
    exact minimizer wins, as an argmin over all levels would pick it.
    """
    xi = np.asarray(xi, dtype=float)
    m = np.asarray(m)
    ok = (0 <= xi) & (xi < math.inf)
    if not ok.all():
        raise ValueError(f"detectability ratio must be finite and non-negative, got {xi[~ok]}")
    if not np.all(m >= 1):
        raise ValueError(f"need at least one jump, got m = {m[~(m >= 1)]}")
    cvals = _cv_grid(tc) * correction
    screened, bound = _screen(cvals, xi, m)
    rows, cols = np.nonzero(screened <= screened.min(axis=1, keepdims=True) + 2.0 * bound)
    c, x = cvals[cols], xi[rows]
    # both tails of hit in one call: P(Z < c - xi) - P(Z < -c - xi)
    tails = _norm_cdf(np.concatenate([c - x, -c - x]))
    hit = tails[: len(c)] - tails[len(c) :]
    delta = np.empty(len(c))
    for mv in set(m[rows].tolist()):
        # the exponent as the Python number the exhaustive search raised to
        sel = m[rows] == mv
        delta[sel] = _Q_GRID[cols[sel]] + (1.0 - (1.0 - hit[sel]) ** mv)
    order = np.lexsort((cols, delta, rows))
    first = np.flatnonzero(np.diff(rows[order], prepend=-1))
    return _Q_GRID[cols[order][first]]


def select_alpha(xi_n: float, m: float, tc: TailConstants, correction: float) -> float:
    """Detection level minimizing a mis-identification bound.

    Balances the false-alarm level q against the chance of missing one of
    ``m`` jumps whose detectability ratio (jump size over local noise, in
    units of the statistic) is ``xi_n``; the level is the first grid
    minimizer of q + 1 - (1 - hit(q))^m, exactly (``_select_levels``).
    ``correction`` scales the thresholds the same way detection does.  A
    non-finite or negative ``xi_n``, or ``m`` below 1, raises
    ``ValueError``.
    """
    return float(_select_levels([xi_n], [m], tc, correction)[0])


def sigma_sup_estimate(field_: MultiscaleField):
    """Largest local noise level implied by the denominator series.

    The plug-in supremum of the local long-run standard deviation, max over
    valid t of sqrt(Xi(t) / u11).  Xi is already a moving average over
    2 floor(n s_upper) + 1 points, so a jump leaves in it a bump about
    4 n s_upper wide that no further smoothing on a shorter span would damp.
    A float, or one value per row of a batch field.  A diagnostic in data
    units (``auto_detect``'s ``info["sigma_sup"]``): the automatic level
    does not read it.
    """
    top = np.max(field_.xi, axis=-1, where=field_.valid, initial=-np.inf)
    sigma = np.sqrt(top / field_.u11)
    return sigma if sigma.ndim else float(sigma)


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
    its defaults.  A malformed ``threshold_mode``, an ``alpha`` that is
    neither ``'auto'`` nor in (0, 0.5), or a non-finite entry of ``y``
    raises ``ValueError`` before any work.  Missing scales come from the
    minimum-volatility selections, which read only analytic critical
    values, whatever the threshold mode.  With ``alpha='auto'`` the strong
    raw peaks of a probe at level 0.10 are the candidate jumps; with
    candidates the level is :func:`select_alpha`'s for their count, with
    the weakest one's peak as the ratio, else the grid minimum.  It reads
    only the statistic and counts, so it is invariant under ``c * y + d``,
    c > 0, up to the filter bank's round-off.  Only the probe and the final
    detection pass use ``threshold_mode``; the pass runs at the settled
    level.  The field is built once; the probe and the pass reuse it and
    ``info["field"]`` returns it.  With ``cfg`` and a level, the result is
    that of :func:`detect_pipeline`.
    """
    _parse_threshold(threshold_mode)
    alpha = _level(alpha)
    y = _finite_series(y)
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
    (res,), (levels,) = _detect_rows(
        y[None, :], _rows(field_, np.newaxis), alpha,
        threshold_mode=threshold_mode, seed=seed, threads=threads,
    )
    info.update(levels)
    return res, info


def _detect_rows(ymat, fields, alpha, *, threshold_mode="analytic", seed=0, threads=1):
    """What :func:`auto_detect` does once the fields are built, for every row at once.

    ``fields`` is the batch field of the (m, n) ``ymat``; ``alpha`` is
    ``'auto'`` or a level already checked by ``_level``, and the keywords
    and their defaults are those of :func:`auto_detect`.  With ``'auto'``
    one probe threshold serves every row, and one level search serves the
    rows with strong candidates; every other row is detected at the grid
    minimum.  Returns one detection result and one dict of level choices
    per row.
    """
    cfg, filt, n = fields.cfg, fields.filt, fields.n
    m = len(ymat)
    if alpha != "auto":
        return _pass_rows(ymat, fields, [alpha] * m, threshold_mode, seed, threads), [
            {"alpha": alpha} for _ in range(m)
        ]

    tc = tail_constants(filt, cfg.s_lower, cfg.s_upper)
    # A moderate-level probe enumerates candidate jumps (the strict pass may
    # see only the strongest), and the weakest candidate peak is the ratio
    # for the level: a peak G is the statistic's value at a jump, the ratio
    # in the units select_alpha reads.  A marginal probe peak is a marginal
    # ratio, which drives the level back to the grid minimum, so a spurious
    # probe hit cannot survive to the final pass.  The probe needs only the
    # raw peaks.
    probe, corr, _ = _resolve_threshold(threshold_mode, 0.10, cfg, filt, n, seed, threads)
    rows, idx = _peaks(fields.g, fields.valid, cfg.s_upper, probe)
    # Candidates barely above the probe threshold are as likely noise
    # exceedances as jumps; letting them set the ratio would push the level
    # to the grid ceiling.  A candidate informs the final level if it would
    # survive a strict pass, or if its peak is achieved near the top of the
    # scale grid: genuine jumps are maximized at the widest scales (the
    # response grows with the window), while noise exceedances scatter
    # across the grid.
    peak, scale = fields.g[rows, idx], fields.grid[fields.arg[rows, idx]]
    bar = critical_value(_CANDIDATE_BAR_LEVEL, tc) * corr
    strong = (peak >= bar) | (scale >= _TOP_SCALE_FRACTION * cfg.s_upper)
    count = np.bincount(rows[strong], minlength=m)
    weakest = np.full(m, np.inf)
    np.minimum.at(weakest, rows[strong], peak[strong])
    has = count > 0
    levels = np.full(m, _Q_GRID[0])
    levels[has] = _select_levels(weakest[has], count[has], tc, corr)
    # the levels are settled: one full pass, refinement included
    results = _pass_rows(ymat, fields, levels.tolist(), threshold_mode, seed, threads)
    sigma = sigma_sup_estimate(fields)
    infos = []
    for i, res in enumerate(results):
        info = {"alpha_round1": float(_Q_GRID[0])}
        if has[i]:
            info["alpha_round2"] = float(levels[i])
        info["alpha"] = res.alpha
        info["sigma_sup"] = float(sigma[i])
        infos.append(info)
    return results, infos

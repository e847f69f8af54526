"""Greedy multiscale peak extraction and local CUSUM refinement."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .convolve import _finite_series
from .field import MultiscaleField, ScaleConfig, _multiscale_fields, _rows
from .threshold import bootstrap_cv, critical_value, fs_correction, tail_constants

__all__ = ["RawJump", "DetectionResult", "mjpd_detect", "cusum_refine", "detect_pipeline"]

MIN_REFINE_OBS = 8
# the refinement window reaches (2 + ALPHA_TILDE) z either side of a jump
ALPHA_TILDE = 1.5


@dataclass(frozen=True)
class RawJump:
    location: float      # t in (0, 1)
    g_value: float       # statistic at the peak
    scale: float         # grid scale achieving the peak


@dataclass
class DetectionResult:
    jumps_raw: list
    jumps_refined: list
    threshold: float
    alpha: float | None
    config: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.jumps_raw)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "threshold": self.threshold,
            "jumps": [
                {
                    "raw": rj.location,
                    "refined": ref,
                    "g": rj.g_value,
                    "scale": rj.scale,
                }
                for rj, ref in zip(self.jumps_raw, self.jumps_refined)
            ],
            "config": self.config,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _peaks(g: np.ndarray, valid: np.ndarray, s_upper: float, thresholds) -> tuple:
    """Greedy peaks of every row of ``g`` on its ``valid`` mask, above that row's threshold.

    Rounds of a row-wise argmax: each round takes the largest admissible
    point of every row, and masks its closed radius-s_upper neighborhood in
    each row where it reaches the row's threshold; a row whose largest point
    falls short is done.  Smaller index wins ties.  Returns (rows, indices),
    ordered by row, then by location.
    """
    m, n = g.shape
    b = int(math.floor(n * s_upper))
    # the admissible values, with b columns of -inf either side so that no window is clipped
    width = n + 2 * b
    padded = np.full((m, width), -np.inf)
    np.copyto(padded[:, b : n + b], g, where=valid)
    flat = padded.reshape(-1)
    start = np.arange(0, m * width, width)
    # -inf is not a peak, whatever the threshold
    thresholds = np.maximum(thresholds, -np.finfo(float).max)
    window = np.arange(-b, b + 1)
    found = [start[:0]]
    while True:
        j = padded.argmax(axis=1) + start
        j = j[flat[j] >= thresholds]
        if not j.size:
            break
        found.append(j)
        flat[j[:, None] + window] = -np.inf
    rows, idx = np.divmod(np.sort(np.concatenate(found)), width)
    return rows, idx - b


def _raw_jumps(fields: MultiscaleField, rows, idx) -> list:
    """The peaks (rows, idx) of ``_peaks`` as one location-ordered RawJump list per row."""
    jumps = [[] for _ in range(len(fields.g))]
    for r, loc, g, scale in zip(
        rows.tolist(),
        ((idx + 1) / fields.n).tolist(),
        fields.g[rows, idx].tolist(),
        fields.grid[fields.arg[rows, idx]].tolist(),
    ):
        jumps[r].append(RawJump(location=loc, g_value=g, scale=scale))
    return jumps


def mjpd_detect(field_: MultiscaleField, threshold: float) -> list:
    """Iteratively pick peaks of the multiscale statistic above ``threshold``.

    Each accepted peak removes its closed radius-s_upper neighborhood from
    the admissible set; smaller index wins ties.  Returns jumps ordered by
    location.  The one-row case of the batched peak search.
    """
    batch = _rows(field_, np.newaxis)
    return _raw_jumps(batch, *_peaks(batch.g, batch.valid, field_.cfg.s_upper, [threshold]))[0]


def _refine(ymat, rows, locs, z: float) -> np.ndarray:
    """Refined location of every raw location ``locs[p]`` of row ``rows[p]`` of ``ymat``.

    One row-wise cumulative sum serves every (row, jump) window.  The
    contrast is evaluated only where the search interval [d - z, d + z] may
    reach, on ranges padded to the longest by repeating their last index.
    See :func:`cusum_refine` for the rule.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    d = np.array(locs, dtype=float)
    if not d.size:
        return d
    m, n = ymat.shape
    csum = np.zeros((m, n + 1))
    np.cumsum(ymat, axis=1, out=csum[:, 1:])
    reach = (2.0 + ALPHA_TILDE) * z
    # the window [i0, i1]: indices with (i+1)/n inside [d - reach, d + reach];
    # [lo, hi]: its indices that may lie in [d - z, d + z], one to spare either side
    edges = (d[:, None] + [-reach, -z, z, reach]) * n
    i0, lo = np.ceil(edges[:, :2].T).astype(int) - [[1], [2]]
    hi, i1 = np.floor(edges[:, 2:].T).astype(int) - [[0], [1]]
    i0, i1 = np.maximum(i0, 0), np.minimum(i1, n - 1)
    total = i1 - i0 + 1
    short = total < MIN_REFINE_OBS
    for p in short.nonzero()[0]:
        warnings.warn(
            f"refinement window at {d[p]:.4f} has {total[p]} < {MIN_REFINE_OBS} points; keeping raw"
        )
    lo, hi = np.maximum(lo, i0)[:, None], np.minimum(hi, i1)[:, None]
    ii = np.minimum(lo + np.arange(max((hi - lo).max() + 1, 1)), hi)
    r, i0, i1, dk = rows[:, None], i0[:, None], i1[:, None], d[:, None]
    c0 = csum[r, i0]
    s_all = csum[r, i1 + 1] - c0
    v = (csum[r, ii + 1] - c0) - (ii - i0 + 1.0) / np.maximum(total, 1)[:, None] * s_all
    cand = (ii + 1.0) / n
    av = np.where((cand >= dk - z - 1e-12) & (cand <= dk + z + 1e-12), np.abs(v), -np.inf)
    top = av.max(axis=1, keepdims=True)
    # ties: closest to d, then smaller index
    pick = (np.arange(len(d)), np.where(av == top, np.abs(cand - dk), np.inf).argmin(axis=1))
    return np.where((top[:, 0] > -np.inf) & ~short, cand[pick], d)


def cusum_refine(y, raw: list, z: float) -> list:
    """Second-stage refinement around each first-stage estimate.

    For each jump at d, builds the local CUSUM contrast on the window
    [d - (2 + ALPHA_TILDE) z, d + (2 + ALPHA_TILDE) z] and takes the
    argmax of its absolute value over [d - z, d + z].  The contrast peaks
    on the last observation before the level change, i.e. the reported
    location is exact for steps switching on strictly after d (the
    convention of the bundled generators) and at most one grid point left
    of steps switching on at d.  Windows with fewer than MIN_REFINE_OBS
    observations keep the raw location.  The one-row case of the batched
    refinement.
    """
    locs = [r.location if isinstance(r, RawJump) else float(r) for r in raw]
    y = np.asarray(y, dtype=float)[None, :]
    return _refine(y, np.zeros(len(locs), dtype=int), locs, z).tolist()


def _parse_threshold(mode: str):
    """Read ``analytic | bootstrap[:B] | fixed:C`` as (kind, B or C or None).

    C must exceed 0 (``inf`` is allowed): G is never negative, so C <= 0
    would flag every admissible peak.  Anything else raises ``ValueError``.
    """
    kind, sep, arg = mode.partition(":")
    try:
        if kind == "analytic" and not sep:
            return kind, None
        if kind == "bootstrap":
            return kind, int(arg) if sep else 2000
        if kind == "fixed" and float(arg) > 0:
            return kind, float(arg)
    except ValueError:
        pass
    raise ValueError(
        f"bad threshold mode {mode!r}: expected analytic, bootstrap[:B] or fixed:C with C > 0"
    )


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


def _resolve_threshold(mode: str, alpha, cfg, filt, n, seed, threads):
    """(threshold, finite-sample factor, mode kind) for ``cfg`` and length ``n``.

    The only code that builds a threshold: ``fixed:C`` is C with factor 1,
    and analytic or bootstrap values are scaled by ``fs_correction`` at ``alpha``.
    """
    kind, value = _parse_threshold(mode)
    if kind == "fixed":
        return value, 1.0, kind
    if kind == "analytic":
        c = critical_value(alpha, tail_constants(filt, cfg.s_lower, cfg.s_upper))
    else:
        c = bootstrap_cv(alpha, n, cfg, filt, B=value, seed=seed, threads=threads)
    k = fs_correction(n, cfg, filt, alpha=alpha)
    return c * k, k, kind


def _thresholds(levels: list, mode: str, cfg, filt, n, seed, threads) -> dict:
    """``_resolve_threshold`` at each distinct level of ``levels``, keyed by level."""
    return {a: _resolve_threshold(mode, a, cfg, filt, n, seed, threads) for a in set(levels)}


def detect_pipeline(
    y,
    cfg: ScaleConfig,
    filt,
    alpha: float = 0.05,
    threshold_mode: str = "analytic",
    seed: int = 0,
    threads: int = 1,
) -> DetectionResult:
    """Full two-stage detection: field -> threshold -> peaks -> refinement.

    ``threshold_mode`` is one of ``analytic``, ``bootstrap[:B]`` (B null
    replicates, default 2000) or ``fixed:C``; anything else raises
    ``ValueError``.  Analytic and bootstrap thresholds are multiplied by
    the finite-sample denominator factor.  Refinement uses the half-window
    z = ``cfg.s_lower`` (rule of thumb) and ``ALPHA_TILDE``.
    ``threads`` worker processes simulate the bootstrap null replicates,
    and the result is the same for any count.  ``tuning.auto_detect`` with
    ``cfg`` and a level gives the same result and returns the field it
    built.  A malformed ``threshold_mode`` or an ``alpha`` outside (0, 0.5)
    raises ``ValueError`` before any transform; ``alpha='auto'`` is
    ``tuning.auto_detect``'s.
    """
    _parse_threshold(threshold_mode)
    if _level(alpha) == "auto":
        raise ValueError("alpha='auto' needs tuning.auto_detect; detect_pipeline takes a level")
    ymat = _finite_series(y)[None, :]
    fields = _multiscale_fields(ymat, cfg, filt)
    return _pass_rows(ymat, fields, [alpha], threshold_mode, seed, threads)[0]


def _pass_rows(ymat, fields, levels: list, threshold_mode, seed, threads) -> list:
    """Threshold, peaks and refinement of each row of ``ymat`` on the batch field ``fields``.

    Row i is detected at ``levels[i]``, one threshold per distinct level.
    The configuration, filter and length are the field's own.  Returns one
    :class:`DetectionResult` per row.
    """
    cfg, n = fields.cfg, fields.n
    thr = _thresholds(levels, threshold_mode, cfg, fields.filt, n, seed, threads)
    rows, idx = _peaks(fields.g, fields.valid, cfg.s_upper, [thr[a][0] for a in levels])
    refined = _refine(ymat, rows, (idx + 1) / n, cfg.s_lower).tolist()
    results = []
    for alpha, raw in zip(levels, _raw_jumps(fields, rows, idx)):
        c, k, kind = thr[alpha]
        config = {"n": n, "s_lower": cfg.s_lower, "s_upper": cfg.s_upper, "s_star": cfg.s_star,
                  "grid_eps": cfg.grid_eps, "threshold_mode": threshold_mode, "fs_factor": k,
                  "z": cfg.s_lower, "alpha_tilde": ALPHA_TILDE}
        results.append(DetectionResult(
            jumps_raw=raw, jumps_refined=refined[: len(raw)], threshold=float(c),
            alpha=None if kind == "fixed" else float(alpha), config=config,
        ))
        del refined[: len(raw)]
    return results

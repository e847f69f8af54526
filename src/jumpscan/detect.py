"""Greedy multiscale peak extraction and local CUSUM refinement."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .field import MultiscaleField, ScaleConfig, multiscale_field
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


def mjpd_detect(field_: MultiscaleField, threshold: float) -> list:
    """Iteratively pick peaks of the multiscale statistic above ``threshold``.

    Each accepted peak removes its closed radius-s_upper neighborhood from
    the admissible set; smaller index wins ties.  Returns jumps ordered by
    location.
    """
    n = field_.n
    b = int(math.floor(n * field_.cfg.s_upper))
    g = np.where(field_.valid, field_.g, -np.inf)
    out = []
    while True:
        j = int(np.argmax(g))
        if not np.isfinite(g[j]) or g[j] < threshold:
            break
        out.append(
            RawJump(location=(j + 1) / n, g_value=float(g[j]), scale=field_.scale_at_max(j))
        )
        g[max(0, j - b) : min(n, j + b + 1)] = -np.inf
    return sorted(out, key=lambda r: r.location)


def cusum_refine(y, raw: list, z: float, alpha_tilde: float = ALPHA_TILDE) -> list:
    """Second-stage refinement around each first-stage estimate.

    For each jump at d, builds the local CUSUM contrast on the window
    [d - (2 + alpha_tilde) z, d + (2 + alpha_tilde) z] and takes the
    argmax of its absolute value over [d - z, d + z].  The contrast peaks
    on the last observation before the level change, i.e. the reported
    location is exact for steps switching on strictly after d (the
    convention of the bundled generators) and at most one grid point left
    of steps switching on at d.  Windows with fewer than MIN_REFINE_OBS
    observations keep the raw location.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    y = np.asarray(y, dtype=float)
    n = len(y)
    csum = np.concatenate([[0.0], np.cumsum(y)])
    locs = [r.location if isinstance(r, RawJump) else float(r) for r in raw]
    refined = []
    for d in locs:
        lo_t = max(d - (2.0 + alpha_tilde) * z, 0.0)
        hi_t = min(d + (2.0 + alpha_tilde) * z, 1.0)
        # indices with (i+1)/n inside [lo_t, hi_t]
        i0 = max(int(math.ceil(lo_t * n)) - 1, 0)
        i1 = min(int(math.floor(hi_t * n)) - 1, n - 1)
        total = i1 - i0 + 1
        if total < MIN_REFINE_OBS:
            warnings.warn(
                f"refinement window at {d:.4f} has {total} < {MIN_REFINE_OBS} points; keeping raw"
            )
            refined.append(d)
            continue
        s_all = csum[i1 + 1] - csum[i0]
        ii = np.arange(i0, i1 + 1)
        lam = ii - i0 + 1.0
        v = (csum[ii + 1] - csum[i0]) - lam / total * s_all
        cand = (ii + 1.0) / n
        in_search = (cand >= d - z - 1e-12) & (cand <= d + z + 1e-12)
        if not np.any(in_search):
            refined.append(d)
            continue
        av = np.where(in_search, np.abs(v), -np.inf)
        top = np.flatnonzero(av == av.max())
        # ties: closest to d, then smaller index
        best = top[np.lexsort((ii[top], np.abs(cand[top] - d)))[0]]
        refined.append(float(cand[best]))
    return refined


def _parse_threshold(mode: str):
    """Read ``analytic | bootstrap[:B] | fixed:C`` as (kind, B or C or None).

    Anything else raises ``ValueError``.
    """
    kind, sep, arg = mode.partition(":")
    try:
        if kind == "analytic" and not sep:
            return kind, None
        if kind == "bootstrap":
            return kind, int(arg) if sep else 2000
        if kind == "fixed" and not math.isnan(float(arg)):
            return kind, float(arg)
    except ValueError:
        pass
    raise ValueError(
        f"bad threshold mode {mode!r}: expected analytic, bootstrap[:B] or fixed:C"
    )


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


def detect_pipeline(
    y,
    cfg: ScaleConfig,
    filt,
    alpha: float = 0.05,
    threshold_mode: str = "analytic",
    seed: int = 0,
    threads: int = 1,
    field_: MultiscaleField | None = None,
) -> DetectionResult:
    """Full two-stage detection: field -> threshold -> peaks -> refinement.

    ``threshold_mode`` is one of ``analytic``, ``bootstrap[:B]`` (B null
    replicates, default 2000) or ``fixed:C``; anything else raises
    ``ValueError``.  Analytic and bootstrap thresholds are multiplied by
    the finite-sample denominator factor.  Refinement uses the half-window
    z = ``cfg.s_lower`` (rule of thumb) and ``ALPHA_TILDE``.
    A precomputed ``field_`` of ``y`` under ``cfg`` and ``filt`` is reused as
    is; one built for another config, series length or filter raises
    ``ValueError``.
    ``threads`` parallelizes the bootstrap null replicates and does not
    change the result.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if field_ is None:
        field_ = multiscale_field(y, cfg, filt)
    elif field_.cfg != cfg or field_.n != n:
        raise ValueError(
            f"field_ was built for {field_.cfg} at n={field_.n}, not for {cfg} at n={n}"
        )
    elif field_.filt != filt:
        raise ValueError(f"field_ was built with {field_.filt}, not with {filt}")
    c, k, kind = _resolve_threshold(threshold_mode, alpha, cfg, filt, n, seed, threads)
    raw = mjpd_detect(field_, c)
    refined = cusum_refine(y, raw, z=cfg.s_lower)
    return DetectionResult(
        jumps_raw=raw,
        jumps_refined=refined,
        threshold=float(c),
        alpha=None if kind == "fixed" else float(alpha),
        config={
            "n": n,
            "s_lower": cfg.s_lower,
            "s_upper": cfg.s_upper,
            "s_star": cfg.s_star,
            "grid_eps": cfg.grid_eps,
            "threshold_mode": threshold_mode,
            "fs_factor": k,
            "z": cfg.s_lower,
            "alpha_tilde": ALPHA_TILDE,
        },
    )

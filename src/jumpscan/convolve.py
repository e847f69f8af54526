"""Filtered series through one batched FFT filter bank.

``H(j/n, s) = (ns)^{-1/2} sum_i y_i W((i/n - j/n)/s)`` restricted to the
integer grid reduces, by oddness of W, to

    H[j] * sqrt(ns) = sum_{d=1}^{h} (y[j+d] - y[j-d]) * W(d / (ns)),

with window radius ``h = floor(ns)``: a cross-correlation of the series
with the kernel ``k[d] = W(d/ns) / sqrt(ns)``, |d| <= h.  The bank
transforms each series once (Cooley & Tukey 1965), zero-padded to a fast
length of at least ``n + h_max`` so that no output row wraps around, and
gives the response at each scale as the inverse transform of the series
spectrum times the conjugate kernel spectrum.  The transforms are
``numpy.fft``'s real FFTs at the smallest 2*3*5-smooth length that fits,
the lengths its pocketfft core transforms fastest.  As in FFTW's
plan-once design (Frigo & Johnson 2005), one plan per (n, scale tuple,
filter) is built and cached: the FFT length and the conjugate kernel
spectra of every scale, from one ``filt.eval_many`` call, so any filter
with vectorized evaluation works.  Responses come a block of scales at a
time, one broadcast product and one inverse transform per block, so the
per-call overhead is paid per block rather than per scale.  Cost is
O(n log n) per scale, against O(n) for rolling polynomial sums, which
were nonetheless measured slower at every n up to 100 000.  A moving-sum
(MOSUM) statistic is the box-kernel case of the same filtering.

FFT round-off is absolute, about 1e-14 * max|y| per output: agreement
with the direct sum is ~1e-13 relative for standardized inputs, and a
large offset costs accuracy in proportion.

``brute_filtered_series`` evaluates the defining sum directly and is the
oracle the bank is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

__all__ = ["FilteredSeries", "fast_filtered_series", "brute_filtered_series"]


@dataclass(frozen=True)
class FilteredSeries:
    """Filter response at one scale.

    ``values[j]`` holds H((j+1)/n, s); rows with the window truncated by a
    series boundary are computed (zero padding) but flagged in ``valid``.
    """

    scale: float
    values: np.ndarray
    valid: np.ndarray
    window: int  # floor(n * scale)

    @property
    def n(self) -> int:
        return len(self.values)


def _fast_len(target: int) -> int:
    """Smallest 2*3*5-smooth integer >= ``target`` (a fast real FFT length)."""
    best = 1 << (target - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # smallest f35 * 2^k >= target
            quotient = -(-target // f35)
            best = min(best, f35 << (quotient - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _window(n: int, s: float) -> int:
    """Window radius floor(n * s), checked to give a resolvable kernel."""
    if not (0.0 < s < 1.0):
        raise ValueError("scale must lie in (0, 1)")
    h = int(math.floor(n * s))
    if h < 2:
        raise ValueError("scale too small")
    if h > n // 2:
        raise ValueError("scale too large")
    return h


def _finite_series(y) -> np.ndarray:
    """``y`` as a 1-D float array; ``ValueError`` naming its first non-finite entry."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"non-finite input at index {bad[0]}")
    return y


def _check_input(y, s):
    y = _finite_series(y)
    return y, len(y), _window(len(y), s)


def _valid_mask(n, h):
    valid = np.zeros(n, dtype=bool)
    valid[h : n - h] = True
    return valid


# responses one inverse transform produces at most (float64, 1 MB)
_BLOCK_VALUES = 1 << 17


# a plan holds ~34 MB at n = 100 000 with 39 scales, so few are kept; one
# configuration's plan serves its calibration and then its detections
@lru_cache(maxsize=8)
def _bank_plan(n: int, scales: tuple, filt):
    """The bank's plan at ``scales``: (FFT length, read-only kernel spectra).

    Row i of the (len(scales), length // 2 + 1) spectra is conj(rfft(k)) of
    the kernel at ``scales[i]``, laid out cyclically.  Every kernel comes
    from one ``eval_many`` call, and each is transformed on its own into its
    row, so no (scales, length) real matrix exists.
    """
    windows = [_window(n, s) for s in scales]
    length = _fast_len(n + max(windows))
    ns = [n * s for s in scales]
    w = filt.eval_many(np.concatenate([np.arange(1, h + 1) / x for h, x in zip(windows, ns)]))
    kernels = np.empty((len(scales), length // 2 + 1), dtype=complex)
    for row, h, x, wk in zip(kernels, windows, ns, np.split(w, np.cumsum(windows)[:-1])):
        wk = wk / math.sqrt(x)
        k = np.zeros(length)
        k[1 : h + 1] = wk
        k[length - h :] = -wk[::-1]
        np.conjugate(rfft(k), out=row)
    kernels.flags.writeable = False
    return length, kernels


def filter_bank(ymat: np.ndarray, scales, filt):
    """Yield the (m, n) response of the rows of ``ymat`` at each scale in turn.

    Each row is transformed once for all ``scales``.  Responses come from
    one broadcast product and inverse transform per block of scales, each
    block a fresh array of at most ``_BLOCK_VALUES`` outputs (one scale when
    a single one exceeds it), so a caller that reduces over scales holds
    one block at a time and an earlier response stays valid.
    """
    m, n = ymat.shape
    length, kernels = _bank_plan(n, tuple(float(s) for s in scales), filt)
    spec = rfft(ymat, length, axis=1)
    block = max(1, _BLOCK_VALUES // (m * length))
    for start in range(0, len(kernels), block):
        # the product is a temporary, so no block's product outlives its transform
        yield from irfft(spec * kernels[start : start + block, None, :], length, axis=-1)[:, :, :n]


def fast_filtered_series(y, s: float, filt) -> FilteredSeries:
    """Filter response at scale ``s``: the single-scale view of the bank."""
    y, n, h = _check_input(y, s)
    (vals,) = filter_bank(y[None, :], [s], filt)
    return FilteredSeries(scale=float(s), values=vals[0], valid=_valid_mask(n, h), window=h)


def brute_filtered_series(y, s: float, filt) -> FilteredSeries:
    """Direct evaluation of the defining sum (oracle for the filter bank)."""
    y, n, h = _check_input(y, s)
    ns = n * s
    d = np.arange(1, h + 1)
    w = filt.eval_many(d / ns)
    yp = np.concatenate([np.zeros(h), y, np.zeros(h)])
    acc = np.zeros(n)
    for k, wk in zip(d, w):
        acc += wk * (yp[h + k : h + k + n] - yp[h - k : h - k + n])
    vals = acc / math.sqrt(ns)
    return FilteredSeries(scale=float(s), values=vals, valid=_valid_mask(n, h), window=h)

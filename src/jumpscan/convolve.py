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
plan-once, many-transform design (Frigo & Johnson 2005), a plan holds
the FFT length and the conjugate kernel spectra of every scale, from one
``filt.eval_many`` call, so any filter with vectorized evaluation works.
A plan holds either one scale tuple that every row shares, and is then
cached per (n, scales, filter), or one tuple per output row (the scale
sweep filters one series at several configurations at once); the tuples
share one widest window, and so one FFT length.  The kernels are
transformed a block at a time, one 2-D real FFT per block, not one call
per kernel.  Responses come a block of scales at a time, one broadcast
product and one inverse transform per block, so the per-call overhead is
paid per block rather than per scale.  Cost is O(n log n) per scale,
against O(n) for rolling polynomial sums, which were nonetheless measured
slower at every n up to 100 000.  A moving-sum (MOSUM) statistic is the
box-kernel case of the same filtering.

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


def _window(n: int, s):
    """Window radius floor(n * s) of each scale, checked to give a resolvable kernel."""
    s = np.asarray(s, dtype=float)
    if not np.all((0.0 < s) & (s < 1.0)):
        raise ValueError("scale must lie in (0, 1)")
    h = np.floor(n * s).astype(int)
    if np.any(h < 2):
        raise ValueError("scale too small")
    if np.any(h > n // 2):
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
    return y, len(y), int(_window(len(y), s))


def _valid_mask(n, h):
    valid = np.zeros(n, dtype=bool)
    valid[h : n - h] = True
    return valid


# real values one transform takes or gives at most (float64, 1 MB): the
# kernels of one plan block, or four times the responses of one bank block
_BLOCK_VALUES = 1 << 17


# a plan holds ~34 MB at n = 100 000 with 39 scales, so few are kept; one
# configuration's plan serves its calibration and then its detections
@lru_cache(maxsize=8)
def _bank_plan(n: int, scales: tuple, filt):
    """The bank's plan at ``scales``, one scale tuple per row: (FFT length, read-only spectra).

    The tuples share one length S and one widest window, and so one FFT
    length; anything else raises ``ValueError``.  Entry [k, i] of the
    (S, rows, length // 2 + 1) spectra is the conjugate real FFT of the
    kernel at ``scales[i][k]``, laid out cyclically.  Every kernel comes
    from one ``eval_many`` call.  The kernels are placed in zeroed real
    blocks of at most ``_BLOCK_VALUES`` values (one kernel when a single
    one exceeds it), by one fancy-indexed assignment per side, and each
    block is transformed by one 2-D ``rfft``.
    """
    s = np.array(scales).T
    windows = _window(n, s)
    widest = windows.max(axis=0)
    if np.any(widest != widest[0]):
        raise ValueError("the rows' scale tuples need one widest window")
    length = _fast_len(n + int(widest[0]))
    # kernel p = k * rows + i, its values at positions ends[p] - h[p] .. ends[p] - 1
    h, ns = windows.ravel(), n * s.ravel()
    ends = np.cumsum(h)
    kernel = np.repeat(np.arange(h.size), h)
    d = np.arange(ends[-1]) - np.repeat(ends - h, h) + 1
    w = filt.eval_many(d / ns[kernel]) / np.sqrt(ns)[kernel]
    per = max(1, _BLOCK_VALUES // length)

    def spectra(start, stop):  # conj(rfft) of the kernels start .. stop - 1, as one block
        vals = slice(ends[start] - h[start], ends[stop - 1])
        block = np.zeros((stop - start, length))
        block[kernel[vals] - start, d[vals]] = w[vals]
        block[kernel[vals] - start, length - d[vals]] = -w[vals]
        f = rfft(block)
        return np.conjugate(f, out=f)

    # one block is conjugated where its transform wrote it: a fresh array
    # for the plan would cost a page fault per 4 KB it holds
    if h.size <= per:
        flat = spectra(0, h.size)
    else:
        flat = np.empty((h.size, length // 2 + 1), dtype=complex)
        for start in range(0, h.size, per):
            flat[start : start + per] = spectra(start, min(start + per, h.size))
    kernels = flat.reshape(windows.shape + (-1,))
    kernels.flags.writeable = False
    return length, kernels


def filter_bank(ymat: np.ndarray, scales, filt):
    """Yield the response of the rows of ``ymat`` at each scale in turn.

    ``scales`` is one sequence of scales for every row, or one per row of
    the output, each of one length and one widest scale; with one scale
    sequence per row, ``ymat`` has that many rows or a single one, which
    then serves every sequence.  Each row is transformed once for all
    scales.  Responses come from one broadcast product and inverse
    transform per block of scales, each block a fresh array of at most a
    quarter of ``_BLOCK_VALUES`` outputs (one scale when a single one
    exceeds it), so a caller that reduces over scales holds one block at a
    time and an earlier response stays valid.
    """
    m, n = ymat.shape
    rows = np.atleast_2d(np.asarray(scales, dtype=float))
    # a per-row plan serves one call of the scale sweep, whose keys hold a
    # selected s_star: cached, it would only hold memory (~0.5 MB at n = 500)
    # and evict the plans that calibration and detection share
    plan = _bank_plan if len(rows) == 1 else _bank_plan.__wrapped__
    length, kernels = plan(n, tuple(map(tuple, rows.tolist())), filt)
    spec = rfft(ymat, length, axis=1)
    # a quarter: the block's product and responses, and the previous block's
    # responses still read by the caller, stay below the 2 MB heap-trim
    # threshold glibc sets on freeing a 1 MB plan block (full blocks: ~500
    # minor faults and +40% per warm n = 5000 detection)
    block = max(1, _BLOCK_VALUES // (4 * max(m, len(rows)) * length))
    for start in range(0, len(kernels), block):
        # the product is a temporary, so no block's product outlives its transform
        yield from irfft(spec * kernels[start : start + block], length, axis=-1)[:, :, :n]


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

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpscan.convolve import filter_bank
from jumpscan.field import (
    MIN_N,
    ScaleConfig,
    _field_batch,
    _multiscale_fields,
    _rows,
    _window_count,
    _windowed_mean,
    _xi_band,
    _xi_smoothed,
    multiscale_field,
    scale_grid,
)
from jumpscan.filters import builtin_wstar
from jumpscan.threshold import _gauss_max_stats
from jumpscan.util import rng_for

W = builtin_wstar()
CFG500 = ScaleConfig(s_lower=0.061, s_upper=0.167, s_star=0.03)


# ---------------------------------------------------------------------------
# scale grid
# ---------------------------------------------------------------------------

def test_scale_grid_n500():
    g = scale_grid(500, CFG500)
    assert len(g) == int(math.floor(math.log(500) ** 1.5))  # = 15
    assert len(g) == 15
    assert g[0] == 0.061 and g[-1] == 0.167
    assert np.all(np.diff(g) > 0)
    # cached per (n, cfg) and shared, so read-only
    assert scale_grid(500, CFG500) is g
    assert not g.flags.writeable


def test_scale_grid_n5000_count():
    cfg = ScaleConfig(0.020, 0.056, 0.0069)
    g = scale_grid(5000, cfg)
    # floor(ln(5000)^1.5) = floor(24.857) = 24
    assert len(g) == 24


def test_scale_grid_log2_equispaced():
    g = scale_grid(1000, ScaleConfig(0.043, 0.125, 0.02))
    steps = np.diff(np.log2(g))
    assert steps == pytest.approx(steps[0], rel=1e-9)


def test_scale_config_validation():
    with pytest.raises(ValueError):
        ScaleConfig(s_lower=0.1, s_upper=0.1, s_star=0.05)  # equal bounds
    with pytest.raises(ValueError):
        ScaleConfig(s_lower=0.1, s_upper=0.6, s_star=0.05)  # upper > 1/2
    with pytest.raises(ValueError, match="s_upper < 1/2"):
        ScaleConfig(s_lower=0.2, s_upper=0.5, s_star=0.05)  # empty valid core
    with pytest.raises(ValueError):
        ScaleConfig(s_lower=0.05, s_upper=0.1, s_star=0.07)  # star above lower
    cfg = ScaleConfig(0.05, 0.1, 0.004)
    with pytest.raises(ValueError):
        cfg.validate_n(100)  # n * s_star < 2


@given(st.integers(min_value=200, max_value=20_000))
@settings(max_examples=30, deadline=None)
def test_scale_grid_monotone_property(n):
    cfg = ScaleConfig(0.03, 0.12, 0.01)
    g = scale_grid(n, cfg)
    assert np.all(np.diff(g) > 0)
    assert g[0] == cfg.s_lower and g[-1] == cfg.s_upper


# ---------------------------------------------------------------------------
# denominator
# ---------------------------------------------------------------------------

def raw_xi(y, cfg):
    """Unsmoothed band average of the squared s_star responses of ``y``."""
    (hstar,) = filter_bank(np.asarray(y, dtype=float)[None, :], [cfg.s_star], W)
    return _xi_band(hstar, cfg.s_star, cfg.s_upper)[0]


def band_mean_sq_gather(hvals, a, b, lo, hi):
    """Band average by clamped-index gathers, kept as an oracle."""
    m, n = hvals.shape
    inner = hvals[:, lo:hi]
    Q = np.zeros((m, hi - lo + 1))
    np.cumsum(inner * inner, axis=1, out=Q[:, 1:])
    j = np.arange(n)
    rl = np.clip(j + a, lo, hi) - lo
    rh = np.clip(j + b + 1, lo, hi) - lo
    ll = np.clip(j - b, lo, hi) - lo
    lh = np.clip(j - a + 1, lo, hi) - lo
    total = (Q[:, rh] - Q[:, rl]) + (Q[:, lh] - Q[:, ll])
    return total / ((rh - rl) + (lh - ll))


def moving_average_gather(x, half):
    """Moving average by clamped-index gathers, kept as an oracle."""
    n = x.shape[-1]
    Q = np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x, axis=-1)], axis=-1)
    j = np.arange(n)
    lo = np.clip(j - half, 0, n)
    hi = np.clip(j + half + 1, 0, n)
    return (Q[..., hi] - Q[..., lo]) / (hi - lo)


def band_mean_sq(hvals, a, b, lo, hi):
    """Band average of hvals**2 over a <= |i-j| <= b, truncated to [lo, hi)."""
    inner = hvals[:, lo:hi]
    return _windowed_mean(inner * inner, hvals.shape[1], lo, ((a, b + 1), (-b, 1 - a)))


def moving_average(x, half):
    """Centered moving average of radius ``half`` along the last axis."""
    return _windowed_mean(x, x.shape[-1], 0, ((-half, half + 1),))


def assert_windowed_means_match_gathers(h):
    n = h.shape[1]
    for s_star, s_upper in ((0.03, 0.167), (0.015, 0.1), (0.1, 0.45)):
        a, b, hw = math.ceil(n * s_star), math.floor(n * s_upper), math.floor(n * s_star)
        for lo, hi in ((hw, n - hw), (0, n)):
            got = band_mean_sq(h, a, b, lo, hi)
            assert np.array_equal(got, band_mean_sq_gather(h, a, b, lo, hi))
            assert np.array_equal(moving_average(got, b), moving_average_gather(got, b))
    for half in (1, 7, n - 1, n, 3 * n):
        assert np.array_equal(moving_average(h, half), moving_average_gather(h, half))
        assert np.array_equal(moving_average(h[0], half), moving_average_gather(h[0], half))


@pytest.mark.parametrize("n", [137, 500, 2000])
@pytest.mark.parametrize("shift, amp", [(0.0, 1.0), (1e9, 1.0), (0.0, 1e100), (0.0, 1e-100)])
def test_band_and_moving_average_match_gathers_bitwise(n, shift, amp):
    rng = np.random.default_rng(n)
    assert_windowed_means_match_gathers(shift + amp * rng.standard_normal((3, n)))


def test_windowed_mean_matches_gathers_on_a_null_chunk():
    # 128 rows at n = 2000: a batch wider than any chunk of the null simulation
    assert_windowed_means_match_gathers(np.random.default_rng(128).standard_normal((128, 2000)))


def test_band_counts_cached_read_only():
    spans = ((15, 84), (-83, -14))
    count = _window_count(500, 15, 485, spans)
    assert _window_count(500, 15, 485, spans) is count
    assert not count.flags.writeable
    # the band and the moving average fill the one cache
    _window_count.cache_clear()
    (hstar,) = filter_bank(np.random.default_rng(5).standard_normal((1, 500)), [0.03], W)
    _xi_smoothed(hstar, CFG500)
    assert _window_count.cache_info().currsize == 2


def test_xi_scales_quadratically():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(600)
    _, _, xi, _ = _field_batch(np.vstack([y, 4.0 * y]), CFG500, W)
    assert xi[1] == pytest.approx(16.0 * xi[0], rel=1e-10)


def test_xi_mean_close_to_u11_iid():
    # E[Xi] ~ u11 for unit-variance iid noise
    cfg = ScaleConfig(s_lower=0.061, s_upper=0.167, s_star=0.022)
    u11 = W.moments().u11
    vals = []
    for seed in range(100):
        y = np.random.default_rng((77, seed)).standard_normal(2000)
        xi = raw_xi(y, cfg)
        b = int(0.167 * 2000)
        vals.append(np.mean(xi[b:-b]))
    assert abs(np.mean(vals) - u11) / u11 < 0.15


@pytest.mark.parametrize("level", [0.0, 3.0, -1e6])
def test_constant_input_raises(level):
    # Xi vanishes identically; the field fails loudly instead of reporting
    # an all-invalid statistic that reads as "no jumps"
    with pytest.raises(ValueError, match="no valid point"):
        multiscale_field(np.full(500, level), CFG500, W)


@pytest.mark.parametrize("kind", ["scaled", "spike"])
def test_overflowing_input_raises_without_a_warning(kind):
    # squared responses beyond ~1e308 overflow: the field fails with its
    # ValueError, and no RuntimeWarning comes first
    from jumpscan.simulate import PlsScenario, gen_series

    y, _ = gen_series(PlsScenario.make("II", "PLS", n=500, seed=0))
    if kind == "scaled":
        y = 1e160 * y
    else:
        y[250] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no valid point.*under- or overflow"):
            multiscale_field(y, CFG500, W)


def test_row_batched_fields_match_one_row_fields_bitwise():
    # rows of different spread and offset, one with a step; the batch must
    # not mix rows or change any per-row result
    rng = rng_for(21)
    t = (np.arange(500) + 1) / 500
    ymat = np.vstack([
        rng.standard_normal(500),
        1e6 + 3.0 * rng.standard_normal(500),
        2.5 * (t > 0.5) + 0.2 * rng.standard_normal(500),
    ])
    batch = _multiscale_fields(ymat, CFG500, W)
    assert batch.g.shape == ymat.shape and batch.n == 500
    for i, y in enumerate(ymat):
        got, one = _rows(batch, i), multiscale_field(y, CFG500, W)
        for name in ("hmax", "arg", "xi", "g", "valid"):
            a, b = getattr(got, name), getattr(one, name)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=name == "g"), name
        assert np.array_equal(got.grid, one.grid) and got.u11 == one.u11


def test_constant_row_in_a_batch_raises():
    ymat = rng_for(22).standard_normal((3, 500))
    ymat[1] = 3.0
    with pytest.raises(ValueError, match="no valid point"):
        _multiscale_fields(ymat, CFG500, W)


def test_xi_band_empty_errors():
    # ceil(n s_star) = 12 exceeds floor(n s_upper) = 11: no band indices
    cfg = ScaleConfig(s_lower=0.115, s_upper=0.117, s_star=0.112)
    y = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(ValueError, match="band"):
        raw_xi(y, cfg)
    with pytest.raises(ValueError, match="band"):
        _field_batch(y[None, :], cfg, W)


@pytest.mark.parametrize(
    "other",
    [ScaleConfig(0.05, 0.15, 0.025), ScaleConfig(0.05, 0.167, 0.025, grid_eps=0.4)],
    ids=["s_upper", "grid_eps"],
)
def test_per_row_configs_must_share_s_upper_and_grid_eps(other):
    y = np.random.default_rng(23).standard_normal(500)
    with pytest.raises(ValueError, match="share s_upper and grid_eps"):
        _field_batch(y[None, :], [CFG500, other], W)


# ---------------------------------------------------------------------------
# multiscale field
# ---------------------------------------------------------------------------

def test_g_is_scalewise_maximum():
    y = np.random.default_rng(9).standard_normal(500)
    f = multiscale_field(y, CFG500, W)
    h = np.abs(np.vstack(list(filter_bank(y[None, :], f.grid, W))))
    expect = np.max(h, axis=0) / np.sqrt(f.xi)
    assert f.g[f.valid] == pytest.approx(expect[f.valid], abs=0)
    for u in range(len(f.grid)):
        assert np.all(f.g[f.valid] >= h[u, f.valid] / np.sqrt(f.xi[f.valid]) - 1e-12)
    assert f.arg.dtype == np.int16
    assert np.array_equal(f.arg, np.argmax(h, axis=0))


@pytest.mark.parametrize("a", [0.1, 3.0, 100.0])
def test_g_positive_scaling_invariance(a):
    y = np.random.default_rng(10).standard_normal(500)
    f1 = multiscale_field(y, CFG500, W)
    f2 = multiscale_field(a * y, CFG500, W)
    assert f2.g[f2.valid] == pytest.approx(f1.g[f1.valid], rel=1e-12)
    assert np.nanargmax(np.where(f2.valid, f2.g, np.nan)) == np.nanargmax(
        np.where(f1.valid, f1.g, np.nan)
    )


def assert_shift_invariant(offset):
    # FFT round-off is ~1e-14 max|y| per response; the denominator must not
    # add cancellation of its own on top
    y = np.random.default_rng(11).standard_normal(500)
    f1 = multiscale_field(y, CFG500, W)
    f2 = multiscale_field(y + offset, CFG500, W)
    assert np.array_equal(f2.valid, f1.valid)
    assert f2.g[f2.valid] == pytest.approx(f1.g[f1.valid], rel=1e-14 * (1 + offset))


def test_mean_shift_leaves_field_unchanged():
    assert_shift_invariant(3.25)


@pytest.mark.parametrize("offset", [1e3, 1e6, 1e8])
def test_large_mean_shift_leaves_field_unchanged(offset):
    assert_shift_invariant(offset)


def test_field_peaks_near_step():
    # single step of height 2.5 at t=0.5 under iid noise: argmax of g near 0.5
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng((21, seed))
        n = 500
        t = (np.arange(n) + 1) / n
        y = 2.5 * (t >= 0.5) + rng.standard_normal(n)
        f = multiscale_field(y, CFG500, W)
        j = int(np.nanargmax(np.where(f.valid, f.g, np.nan)))
        if abs((j + 1) / n - 0.5) <= 0.01:
            hits += 1
    assert hits >= 27


def test_field_requires_minimum_length():
    with pytest.raises(ValueError):
        multiscale_field(np.zeros(40), CFG500, W)
    cfg = ScaleConfig(s_lower=0.1, s_upper=0.2, s_star=0.05)
    y = np.random.default_rng(12).standard_normal(MIN_N)
    assert multiscale_field(y, cfg, W).n == MIN_N
    with pytest.raises(ValueError, match="too short"):
        multiscale_field(y[:-1], cfg, W)


def test_field_maximum_matches_null_batch_statistic():
    # calibration simulates the same self-normalized maximum detection uses
    # bit for bit over every row; 300 rows span three null chunks
    sn, _, _ = _gauss_max_stats(500, CFG500, W, 300, 13)
    for r in range(300):
        f = multiscale_field(rng_for(13, r).standard_normal(500), CFG500, W)
        assert np.max(f.g[f.valid]) == sn[r], r

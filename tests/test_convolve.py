import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpscan import convolve
from jumpscan.convolve import (
    _bank_plan,
    _fast_len,
    brute_filtered_series,
    fast_filtered_series,
    filter_bank,
)
from jumpscan.detect import detect_pipeline
from jumpscan.field import ScaleConfig, _field_batch, multiscale_field, scale_grid
from jumpscan.filters import builtin_wstar, construct_beta_filter
from jumpscan.threshold import _gauss_max_stats, fs_correction
from jumpscan.tuning import _scale_grids

W = builtin_wstar()
BETA, _ = construct_beta_filter(2, 30)


def rel_gap(a, b):
    return np.max(np.abs(a - b) / (1.0 + np.abs(b)))


def test_zero_input_gives_zero_output():
    f = fast_filtered_series(np.zeros(300), 0.1, W)
    assert np.all(f.values == 0.0)


def test_constant_shift_killed():
    # symmetric-window rows only: boundary rows see a one-sided window
    rng = np.random.default_rng(0)
    y = rng.standard_normal(400)
    base = fast_filtered_series(y, 0.08, W)
    shifted = fast_filtered_series(y + 5.0, 0.08, W)
    assert rel_gap(shifted.values[base.valid], base.values[base.valid]) < 1e-8


def test_impulse_response_matches_kernel():
    n, s = 300, 0.1
    i0 = 150
    y = np.zeros(n)
    y[i0] = 1.0
    f = brute_filtered_series(y, s, W)
    ns = n * s
    for j in (120, 135, 149, 150, 162, 180):
        expect = W.eval((i0 - j) / ns) / math.sqrt(ns)
        assert f.values[j] == pytest.approx(expect, abs=1e-12)


def test_fast_matches_brute_seeded_normal():
    rng = np.random.default_rng(123)
    y = rng.standard_normal(200)
    f = fast_filtered_series(y, 0.1, W)
    b = brute_filtered_series(y, 0.1, W)
    assert rel_gap(f.values, b.values) < 1e-8
    assert np.array_equal(f.valid, b.valid)


@pytest.mark.parametrize("seed", range(6))
def test_fast_matches_brute_random_configs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 2000))
    h = int(rng.integers(2, n // 2 + 1))
    s = (h + rng.uniform(0, 0.999)) / n  # non-integer ns included
    s = min(s, 0.5)
    y = rng.standard_normal(n) * 10.0 ** float(rng.integers(-2, 3))
    f = fast_filtered_series(y, s, W)
    b = brute_filtered_series(y, s, W)
    assert rel_gap(f.values, b.values) < 1e-8


def test_fast_matches_brute_adversarial_inputs():
    # amplitudes up to 1e3: beyond that, cancellation-limited rounding in
    # any windowed-sum scheme (fast or direct) exceeds the 1e-8 bar
    n = 1500
    cases = [
        np.full(n, 3.14),
        np.linspace(-20, 80, n),
        1e3 * np.sin(np.arange(n)),
        np.where(np.arange(n) > n // 2, 1.0, 0.0),
    ]
    for y in cases:
        for s in (0.01, 0.17, 0.49):
            f = fast_filtered_series(y, s, W)
            b = brute_filtered_series(y, s, W)
            assert rel_gap(f.values, b.values) < 1e-8


def test_linearity():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(500)
    z = rng.standard_normal(500)
    a, b = 2.5, -1.25
    combo = fast_filtered_series(a * y + b * z, 0.12, W).values
    parts = a * fast_filtered_series(y, 0.12, W).values + b * fast_filtered_series(z, 0.12, W).values
    assert np.max(np.abs(combo - parts) / (1 + np.abs(parts))) < 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_linearity_property(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(150)
    f2 = fast_filtered_series(2.0 * y, 0.1, W).values
    f1 = fast_filtered_series(y, 0.1, W).values
    assert np.max(np.abs(f2 - 2.0 * f1) / (1 + np.abs(f1))) < 1e-9


def test_jump_response_peak_height():
    # a clean step of height delta yields a peak near sqrt(ns) * delta * f0
    n, s, delta = 2000, 0.1, 3.0
    y = np.where((np.arange(n) + 1) / n >= 0.5, delta, 0.0)
    f = fast_filtered_series(y, s, W)
    peak = np.max(np.abs(f.values[f.valid]))
    expect = math.sqrt(n * s) * delta * 1.0
    assert peak == pytest.approx(expect, rel=0.10)


def test_linear_trend_response_small():
    # order-2 filter suppresses linear trends; frozen bound from one run
    n, s = 1000, 0.1
    y = np.linspace(0.0, 5.0, n)
    f = brute_filtered_series(y, s, W)
    peak = np.max(np.abs(f.values[f.valid]))
    assert peak < 5e-2  # frozen: observed 1.1e-2 for this configuration


def test_input_validation():
    with pytest.raises(ValueError, match="scale too small"):
        fast_filtered_series(np.zeros(100), 0.01, W)
    with pytest.raises(ValueError, match="non-finite input at index 3"):
        fast_filtered_series(np.array([1.0, 2.0, 3.0, np.nan] + [0.0] * 96), 0.1, W)
    with pytest.raises(ValueError):
        fast_filtered_series(np.zeros(100), 0.7, W)


def test_boundary_rows_flagged_invalid():
    f = fast_filtered_series(np.random.default_rng(1).standard_normal(200), 0.1, W)
    assert not f.valid[0] and not f.valid[19] and f.valid[20]
    assert f.valid[179] and not f.valid[180] and not f.valid[199]


def test_bank_matches_brute_every_grid_scale_and_s_star():
    n = 1200
    cfg = ScaleConfig(0.043, 0.125, 0.02)
    scales = [cfg.s_star, *scale_grid(n, cfg)]
    ymat = np.random.default_rng(7).standard_normal((3, n)) * np.array([[0.01], [1.0], [100.0]])
    responses = list(filter_bank(ymat, scales, W))
    assert len(responses) == len(scales)
    for s, hs in zip(scales, responses):
        assert hs.shape == (3, n)
        for row, y in zip(hs, ymat):
            assert rel_gap(row, brute_filtered_series(y, s, W).values) < 1e-10


def test_beta_filter_fast_matches_brute():
    beta, _ = construct_beta_filter(2, 50)
    y = np.random.default_rng(4).standard_normal(800)
    for s in (0.01, 0.1, 0.3):
        f = fast_filtered_series(y, s, beta)
        b = brute_filtered_series(y, s, beta)
        assert rel_gap(f.values, b.values) < 1e-10


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    got = [_fast_len(t) for t in range(1, 100_001)]
    want = [next_fast_len(t, real=True) for t in range(1, 100_001)]
    assert got == want


# ---------------------------------------------------------------------------
# blocks of scales
# ---------------------------------------------------------------------------

CFG400 = ScaleConfig(0.061, 0.167, 0.03)


def _block_budgets(m, n, cfg, filt):
    """Block budgets of one scale per inverse transform, three, and every scale."""
    scales = (cfg.s_star, *scale_grid(n, cfg))
    length, _ = _bank_plan(n, (tuple(float(s) for s in scales),), filt)
    # a bank block's responses take a quarter of the budget
    return [4 * per * m * length for per in (1, 3, len(scales))]


@pytest.mark.parametrize("filt", [W, BETA], ids=["wstar", "beta"])
@pytest.mark.parametrize("m", [1, 128])
def test_bank_responses_do_not_depend_on_the_block(m, filt, monkeypatch):
    n = 400
    scales = [CFG400.s_star, *scale_grid(n, CFG400)]
    ymat = np.random.default_rng(m).standard_normal((m, n))
    runs = []
    for budget in _block_budgets(m, n, CFG400, filt):
        monkeypatch.setattr(convolve, "_BLOCK_VALUES", budget)
        # every response is held until the bank is spent: a later block
        # must not overwrite an earlier one
        runs.append(list(filter_bank(ymat, scales, filt)))
    per_scale = runs[0]
    assert len(per_scale) == len(scales)
    for run in runs[1:]:
        assert len(run) == len(scales)
        assert all(np.array_equal(a, b) for a, b in zip(per_scale, run))


@pytest.mark.parametrize("filt", [W, BETA], ids=["wstar", "beta"])
def test_field_and_null_maxima_do_not_depend_on_the_block(filt, monkeypatch):
    n = 400
    y = np.random.default_rng(3).standard_normal(n) + (np.arange(n) >= n // 2)
    fields, stats = [], []
    for one, chunk in zip(_block_budgets(1, n, CFG400, filt), _block_budgets(100, n, CFG400, filt)):
        monkeypatch.setattr(convolve, "_BLOCK_VALUES", one)
        f = multiscale_field(y, CFG400, filt)
        fields.append((f.hmax, f.arg, f.xi, f.g, f.valid))
        # 200 null rows: two chunks of 100
        monkeypatch.setattr(convolve, "_BLOCK_VALUES", chunk)
        stats.append(_gauss_max_stats.__wrapped__(n, CFG400, filt, 200, 5))
    for f, s in zip(fields[1:], stats[1:]):
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(fields[0], f))
        assert all(np.array_equal(a, b) for a, b in zip(stats[0], s))


def _sweep_column(n):
    """Seven configurations sharing the widest s_upper of the scale sweep at length n."""
    grid1, grid2 = _scale_grids(n)
    return [ScaleConfig(float(sl), float(grid2[-1]), float(sl) / (2 + k % 3))
            for k, sl in enumerate(grid1)]


@pytest.mark.parametrize("n", [500, 2000])
def test_per_row_configs_are_each_rows_own_batch(n, monkeypatch):
    cfgs = _sweep_column(n)
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n) + 2.0 * (np.arange(n) >= n // 3)
    ymat = rng.standard_normal((len(cfgs) + 1, n))
    # one series for every configuration, as the sweep builds it, and one
    # series per row with the first configuration twice (one Xi for both)
    for series, rows in ((y[None, :], cfgs), (ymat, [*cfgs, cfgs[0]])):
        m = len(rows)
        for budget in _block_budgets(m, n, rows[0], W):
            monkeypatch.setattr(convolve, "_BLOCK_VALUES", budget)
            _bank_plan.cache_clear()  # one-configuration kernels in blocks of this budget too
            arg = np.zeros((m, n), dtype=np.int16)
            grid, hmax, xi, valid = _field_batch(series, rows, W, arg)
            assert grid.shape == (m, len(scale_grid(n, rows[0])))
            for i, cfg in enumerate(rows):
                one = series[i % len(series)][None, :]
                arg1 = np.zeros((1, n), dtype=np.int16)
                g1, h1, x1, v1 = _field_batch(one, cfg, W, arg1)
                assert np.array_equal(grid[i], g1)
                for a, b in ((hmax, h1), (xi, x1), (valid, v1), (arg, arg1)):
                    assert np.array_equal(a[i], b[0])
            # without ``arg`` the same maxima, denominators and masks
            _, *plain = _field_batch(series, rows, W)
            assert all(np.array_equal(a, b) for a, b in zip((hmax, xi, valid), plain))


def test_per_row_plans_stay_out_of_the_cache():
    y = np.random.default_rng(24).standard_normal(500)
    _bank_plan.cache_clear()
    _field_batch(y[None, :], _sweep_column(500), W)
    assert _bank_plan.cache_info().currsize == 0


def _per_kernel_plan(n, scales, filt):
    """conj(rfft(k)) of each kernel on its own, laid out cyclically (the oracle for the plan)."""
    windows = [int(math.floor(n * s)) for s in scales]
    length = _fast_len(n + max(windows))
    rows = []
    for s, h in zip(scales, windows):
        wk = filt.eval_many(np.arange(1, h + 1) / (n * s)) / math.sqrt(n * s)
        k = np.zeros(length)
        k[1 : h + 1] = wk
        k[length - h :] = -wk[::-1]
        rows.append(np.conjugate(np.fft.rfft(k)))
    return length, np.array(rows)


@pytest.mark.parametrize("filt", [W, BETA], ids=["wstar", "beta"])
@pytest.mark.parametrize("n", [100, 500, 2000, 5000, 20000, 100000])
def test_batched_plan_is_the_per_kernel_transforms(n, filt):
    lo, hi = n ** (-1 / 3) / 2, n ** (-1 / 6) / 3
    cfg = ScaleConfig(lo, hi, lo / 2)
    scales = (cfg.s_star, *scale_grid(n, cfg))
    length, kernels = _bank_plan(n, (tuple(float(s) for s in scales),), filt)
    want_length, want = _per_kernel_plan(n, scales, filt)
    assert length == want_length and kernels.shape == (len(scales), 1, length // 2 + 1)
    assert np.array_equal(kernels[:, 0], want)
    assert not kernels.flags.writeable


@pytest.mark.parametrize("n", [500, 5000])
def test_per_row_plan_is_each_rows_own_plan(n):
    rows = [(cfg.s_star, *scale_grid(n, cfg)) for cfg in _sweep_column(n)]
    length, kernels = _bank_plan(n, tuple(tuple(float(s) for s in r) for r in rows), W)
    assert kernels.shape[:2] == (len(rows[0]), len(rows))
    for i, r in enumerate(rows):
        want_length, want = _per_kernel_plan(n, r, W)
        assert length == want_length and np.array_equal(kernels[:, i], want)


def test_per_row_scales_need_one_widest_window():
    with pytest.raises(ValueError, match="widest window"):
        list(filter_bank(np.zeros((2, 500)), [[0.02, 0.1], [0.03, 0.2]], W))


def test_detection_after_calibration_reuses_the_plan():
    n = 400
    cfg = ScaleConfig(0.0613, 0.1673, 0.0303)  # no other test builds its plan
    fs_correction(n, cfg, W)
    before = _bank_plan.cache_info()
    detect_pipeline(np.random.default_rng(8).standard_normal(n), cfg, W, alpha=0.05)
    after = _bank_plan.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_bank_runs_on_the_numpy_1_24_fft_signature(monkeypatch):
    # numpy>=1.24 is the declared floor: its rfft and irfft take no ``out=``
    def rfft(a, n=None, axis=-1, norm=None):
        return np.fft.rfft(a, n, axis, norm)

    def irfft(a, n=None, axis=-1, norm=None):
        return np.fft.irfft(a, n, axis, norm)

    n = 400
    scales = [CFG400.s_star, *scale_grid(n, CFG400)]
    ymat = np.random.default_rng(9).standard_normal((3, n))
    want = list(filter_bank(ymat, scales, W))
    _bank_plan.cache_clear()
    monkeypatch.setattr(convolve, "rfft", rfft)
    monkeypatch.setattr(convolve, "irfft", irfft)
    got = list(filter_bank(ymat, scales, W))
    assert all(np.array_equal(a, b) for a, b in zip(want, got))

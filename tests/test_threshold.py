import math
import os
import time

import numpy as np
import pytest

from forking import _assert_reaped, _deadline, _record_forks
from jumpscan import threshold, util
from jumpscan.field import ScaleConfig, _field_batch, _self_normalized
from jumpscan.filters import builtin_wstar
from jumpscan.threshold import (
    _fs_ratio_curve,
    _gauss_max_stats,
    alpha_of_c,
    bootstrap_cv,
    critical_value,
    fs_correction,
    tail_constants,
)
from jumpscan.util import rng_for

W = builtin_wstar()

# reference critical values by (n, s_lower, s_upper); columns: 0.1, 0.05, 0.01
TABLE = [
    (500, 0.061, 0.167, 3.530, 3.735, 4.170),
    (1000, 0.043, 0.125, 3.672, 3.870, 4.289),
    (1500, 0.036, 0.100, 3.742, 3.935, 4.349),
    (2000, 0.031, 0.100, 3.800, 3.990, 4.397),
    (2500, 0.028, 0.083, 3.828, 4.017, 4.422),
    (3000, 0.026, 0.071, 3.850, 4.037, 4.439),
    (3500, 0.024, 0.071, 3.879, 4.066, 4.466),
    (4000, 0.023, 0.062, 3.895, 4.080, 4.478),
    (4500, 0.022, 0.062, 3.913, 4.098, 4.494),
    (5000, 0.020, 0.056, 3.942, 4.125, 4.518),
]


def test_constants_positive():
    tc = tail_constants(W, 0.061, 0.167)
    assert tc.kappa > 0 and tc.zeta1p > 0


def test_alpha_vanishes_at_large_c():
    tc = tail_constants(W, 0.061, 0.167)
    vals = [alpha_of_c(c, tc) for c in (4.0, 6.0, 8.0, 11.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-20


def test_alpha_decreasing_where_roots_live():
    # the c * exp(-c^2/2) term peaks at c = 1, so the curve may rise on
    # [0.5, 1); there alpha(c) > 0.6, outside any admissible level.  The
    # root region [1, 12] is strictly decreasing (until float underflow),
    # which is what makes the bisection well-posed.
    for _, sl, su, *_ in TABLE[::3]:
        tc = tail_constants(W, sl, su)
        assert alpha_of_c(0.5, tc) > 0.6
        cs = np.linspace(1.0, 12.0, 1000)
        vals = np.array([alpha_of_c(c, tc) for c in cs])
        live = vals[:-1] > 1e-250
        assert np.all(np.diff(vals)[live] < 0)


@pytest.mark.parametrize("row", TABLE)
def test_critical_values_reference_rows(row):
    n, sl, su, c10, c05, c01 = row
    tc = tail_constants(W, sl, su)
    assert critical_value(0.10, tc) == pytest.approx(c10, abs=0.01)
    assert critical_value(0.05, tc) == pytest.approx(c05, abs=0.01)
    assert critical_value(0.01, tc) == pytest.approx(c01, abs=0.01)


def test_critical_value_memoised_same_floats():
    for n, sl, su, *_ in TABLE:
        tc = tail_constants(W, sl, su)
        for alpha in (0.10, 0.05, 0.01):
            first = critical_value(alpha, tc)
            assert first == critical_value.__wrapped__(alpha, tc)
            hits = critical_value.cache_info().hits
            assert critical_value(alpha, tc) == first
            assert critical_value.cache_info().hits == hits + 1


def test_critical_value_monotone_in_alpha():
    tc = tail_constants(W, 0.031, 0.100)
    c10, c05, c01 = (critical_value(a, tc) for a in (0.10, 0.05, 0.01))
    assert c10 < c05 < c01


def test_critical_value_near_half_is_root_or_loud():
    # with tiny constants the Gaussian term still brackets alpha=0.49:
    # a genuine root comes back, never a silent wrong value
    from jumpscan.threshold import TailConstants

    tiny = TailConstants(kappa=1e-9, zeta1p=1e-9)
    c = critical_value(0.49, tiny)
    assert alpha_of_c(c, tiny) == pytest.approx(0.49, abs=1e-6)
    with pytest.raises(ValueError):
        critical_value(0.6, tiny)  # outside the (0, 0.5) contract


def test_bootstrap_reproducible_and_b_consistent():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    a = bootstrap_cv(0.10, 300, cfg, W, B=400, seed=5)
    _gauss_max_stats.cache_clear()  # simulate again rather than read the cache
    b = bootstrap_cv(0.10, 300, cfg, W, B=400, seed=5)
    assert a == b
    c = bootstrap_cv(0.10, 300, cfg, W, B=800, seed=5)
    assert abs(a - c) < 0.1


def test_bootstrap_thread_invariance():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    a = bootstrap_cv(0.05, 300, cfg, W, B=200, seed=9, threads=1)
    b = bootstrap_cv(0.05, 300, cfg, W, B=200, seed=9, threads=4)
    assert a == b


def test_null_maxima_thread_count_invariance():
    # B = 300 at n = 300: two chunks on one worker, one on each of three
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    one = _gauss_max_stats(300, cfg, W, 300, 9, threads=1)
    many = _gauss_max_stats(300, cfg, W, 300, 9, threads=3)
    for a, b in zip(one, many):
        assert a.shape == (300,)
        assert np.array_equal(a, b)


def _null_maxima_in_128_row_chunks(n, cfg, filt, B, seed):
    """The null simulation as it ran before its chunks had a values budget, kept as an oracle."""
    b = int(math.floor(n * cfg.s_upper))
    root_u11 = math.sqrt(filt.moments().u11)
    parts = []
    for start in range(0, B, 128):
        rows = range(start, min(start + 128, B))
        ymat = np.vstack([rng_for(seed, r).standard_normal(n) for r in rows])
        _, hmax, xi, valid = _field_batch(ymat, cfg, filt)
        sn = np.max(_self_normalized(hmax, xi, valid, -np.inf), axis=1)
        fixed = np.max(hmax[:, b : n - b], axis=1) / root_u11
        parts.append((sn, fixed, np.max(hmax, axis=1) / root_u11))
    return tuple(np.concatenate(p) for p in zip(*parts))


@pytest.mark.parametrize("n, B", [(300, 300), (2000, 200)])
def test_null_maxima_equal_the_128_row_loop(n, B, monkeypatch):
    # chunks of at most _CHUNK_VALUES values on 1, 2 and 3 workers, then one row per chunk
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    oracle = _null_maxima_in_128_row_chunks(n, cfg, W, B, 7)
    runs = [_gauss_max_stats.__wrapped__(n, cfg, W, B, 7, threads) for threads in (1, 2, 3)]
    monkeypatch.setattr(util, "_CHUNK_VALUES", 1)
    runs += [_gauss_max_stats.__wrapped__(n, cfg, W, B, 7, threads) for threads in (1, 3)]
    for run in runs:
        assert len(run) == 3
        for a, b in zip(oracle, run):
            assert a.shape == (B,)
            assert np.array_equal(a, b)


def test_null_chunk_error_in_a_worker_is_raised_here(monkeypatch):
    caller = os.getpid()
    ran_in_caller = []

    def failing_batch(ymat, cfg, filt):
        if os.getpid() == caller:
            ran_in_caller.append(len(ymat))
        raise FloatingPointError(f"null chunk of {len(ymat)} rows")

    monkeypatch.setattr(threshold, "_field_batch", failing_batch)
    pids = _record_forks(monkeypatch)
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    with _deadline(60), pytest.raises(FloatingPointError, match="^null chunk of 100 rows$"):
        # two chunks of 100 rows at n = 500, one on each worker
        _gauss_max_stats.__wrapped__(500, cfg, W, 200, 3, 2)
    assert ran_in_caller == []
    assert len(pids) == 2
    _assert_reaped(pids)


def test_null_maxima_on_one_worker_fork_nothing(monkeypatch):
    pids = _record_forks(monkeypatch)
    _gauss_max_stats.__wrapped__(500, ScaleConfig(0.061, 0.167, 0.03), W, 300, 3, 1)
    assert pids == []


def test_null_simulation_runs_once_per_configuration():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    _gauss_max_stats.cache_clear()
    cvs = [bootstrap_cv(a, 300, cfg, W, B=200, seed=4) for a in (0.10, 0.05, 0.01)]
    assert cvs[0] <= cvs[1] <= cvs[2]
    info = _gauss_max_stats.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for arr in _gauss_max_stats(300, cfg, W, 200, 4, 1):
        assert not arr.flags.writeable


def test_bootstrap_requires_min_replicates():
    with pytest.raises(ValueError):
        bootstrap_cv(0.05, 300, ScaleConfig(0.061, 0.167, 0.03), W, B=50)


@pytest.mark.parametrize("threads", [0, -2])
def test_bootstrap_requires_a_worker(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        bootstrap_cv(0.05, 300, ScaleConfig(0.061, 0.167, 0.03), W, B=200, threads=threads)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, 1.0])
def test_bootstrap_rejects_levels_outside_open_half(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 0.5\)"):
        bootstrap_cv(alpha, 300, ScaleConfig(0.061, 0.167, 0.03), W, B=200)


def test_fs_correction_cached_and_at_least_one():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    t0 = time.perf_counter()
    k1 = fs_correction(500, cfg, W, B=200)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    k2 = fs_correction(500, cfg, W, B=200)
    warm = time.perf_counter() - t0
    assert k1 == k2 >= 1.0
    assert warm < cold / 10


@pytest.mark.parametrize("s_star", [0.03, 0.02])
@pytest.mark.parametrize("n, s_lower, s_upper", [row[:3] for row in TABLE[:3]])
def test_fs_correction_default_is_the_median_probe_ratio(n, s_lower, s_upper, s_star):
    # the default level 0.10 reads the middle of five probes on a monotone
    # curve, which is the median the factor once took
    cfg = ScaleConfig(s_lower, s_upper, s_star)
    median = float(np.median(_fs_ratio_curve(n, cfg, W, 800, 20_240_817)[1]))
    assert fs_correction(n, cfg, W) == median

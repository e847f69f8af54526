import contextlib
import math
import os
import signal
import time

import numpy as np
import pytest

from jumpscan import simulate
from jumpscan.detect import detect_pipeline
from jumpscan.field import MIN_N, ScaleConfig
from jumpscan.filters import builtin_wstar
from jumpscan.simulate import (
    DetectorSpec,
    MEAN_MODELS,
    NOISE_MODELS,
    PlsScenario,
    gen_series,
    increasing_jump_count,
    increasing_jump_size,
    monte_carlo,
    _chunks,
    _innovations,
    _BURN_IN,
    _lag_sum,
    _mad,
    _mc_chunk,
    _plsn_g,
    _tv_arma,
)
from jumpscan.threshold import tail_constants
from jumpscan.tuning import _cv_grid, auto_detect
from jumpscan.util import rng_for


# Lag-by-lag, one-generator forms of the two expansions, kept as oracles:
# every row of the batched generators must reproduce them bit for bit.

def _tv_arma_loop(n, burn_in, phi, theta, kind, rng):
    total = burn_in + n
    t = np.maximum(np.arange(-burn_in, n) + 1, 1) / n
    eta = _innovations(kind, total + 1, rng)
    th = theta(t) if callable(theta) else np.full(total, float(theta))
    ph = phi(t) if callable(phi) else np.full(total, float(phi))
    u = eta[1:] + th * eta[:-1]
    pmax = float(np.max(np.abs(ph)))
    if pmax >= 0.999:
        raise ValueError("AR coefficient too close to 1")
    lag = total if pmax == 0 else min(total, int(math.ceil(math.log(1e-15) / math.log(max(pmax, 1e-6)))))
    acc = u.copy()
    amp = np.ones(total)
    for j in range(1, lag + 1):
        shifted_phi = np.concatenate([np.ones(j - 1), ph[: total - (j - 1)]]) if j > 1 else ph
        amp = amp * shifted_phi
        if not np.any(amp):
            break
        su = np.concatenate([np.zeros(j), u[: total - j]])
        acc += amp * su
    return acc[burn_in:]


def _tv_ma_loop(n, burn_in, base, amp, kind, rng, trunc=40):
    total = burn_in + n
    t = np.maximum(np.arange(-burn_in, n) + 1, 1) / n
    eta = _innovations(kind, total, rng)
    b = base(t)
    acc = np.zeros(total)
    bp = np.ones(total)
    for j in range(trunc + 1):
        se = np.concatenate([np.zeros(j), eta[: total - j]]) if j else eta
        acc += bp * se
        bp = bp * b
    return (amp(t) * acc)[burn_in:]


def _tv_arma_rows(n, burn_in, phi, theta, kind, rngs, lo=0, hi=None):
    # a column range applied to the full oracle path
    return np.stack([_tv_arma_loop(n, burn_in, phi, theta, kind, rng)[lo:hi] for rng in rngs])


def _tv_ma_rows(n, burn_in, base, amp, kind, rngs):
    return np.stack([_tv_ma_loop(n, burn_in, base, amp, kind, rng) for rng in rngs])


def _noise_draws(name, sizes=(100, 500, 2000), seeds=range(3), m=1):
    """(m, n) draws per (n, seed); row k from the generator of (seed, k)."""
    return {
        (n, s): NOISE_MODELS[name](n, 500, [rng_for(s, k) for k in range(m)])
        for n in sizes for s in seeds
    }


@pytest.mark.parametrize("name", sorted(NOISE_MODELS))
def test_noise_expansions_match_lag_loops_bitwise(name, monkeypatch):
    fast = {m: _noise_draws(name, m=m) for m in (1, 3)}
    monkeypatch.setattr(simulate, "_tv_arma", _tv_arma_rows)
    monkeypatch.setattr(simulate, "_tv_ma", _tv_ma_rows)
    for m in (1, 3):
        for key, x in _noise_draws(name, m=m).items():
            assert fast[m][key].shape == x.shape == (m, key[0])
            for k in range(m):
                assert np.array_equal(fast[m][key][k], x[k]), (m, key, k)


def _arma_coef(ph):
    """``_tv_arma``'s coefficient: amp_j(i) = ph[i] ... ph[i-j+1], updated in place."""
    amp = np.ones(len(ph))

    def coef(j):
        amp[j - 1 :] *= ph[: len(ph) - j + 1]
        return amp

    return coef


def _ma_coef(b):
    """``_tv_ma``'s coefficient: b^j, kept as a running product it updates in place."""
    bp = np.ones(len(b))

    def coef(j):
        return np.multiply(bp, b, out=bp)

    return coef


def test_lag_sum_column_range_is_the_full_sum_sliced():
    n = 300
    total = _BURN_IN + n
    t = np.maximum(np.arange(-_BURN_IN, n) + 1, 1) / n
    v = np.random.default_rng(3).standard_normal((3, total))
    cases = [
        # |phi| up to 0.99: more lags (all of them) than the first kept column
        (_arma_coef, 0.99 * np.cos(2 * np.pi * t), total),
        (_ma_coef, 0.2 * np.cos(2 * np.pi * t) + 0.2, 40),
    ]
    ranges = [(_BURN_IN, total), (0, total), (0, 37), (_BURN_IN, _BURN_IN + 120),
              (520, 700), (3, 4), (total, total)]
    for make, c, count in cases:
        full = _lag_sum(v, count, make(c))
        for lo, hi in ranges:
            assert np.array_equal(_lag_sum(v, count, make(c), lo, hi), full[:, lo:hi]), (lo, hi)


def _near_unit_phi(t):
    return 0.99 * np.cos(2 * np.pi * t)


def test_generator_column_range_is_the_full_path_sliced():
    n = 300
    rngs = [rng_for(5, k) for k in range(3)]
    full = _tv_arma(n, _BURN_IN, _near_unit_phi, 0.3, "t8", rngs)
    for k in range(3):
        oracle = _tv_arma_loop(n, _BURN_IN, _near_unit_phi, 0.3, "t8", rng_for(5, k))
        assert np.array_equal(full[k], oracle)
    for lo, hi in [(0, 120), (120, n), (7, 250), (0, n)]:
        rngs = [rng_for(5, k) for k in range(3)]
        part = _tv_arma(n, _BURN_IN, _near_unit_phi, 0.3, "t8", rngs, lo=lo, hi=hi)
        assert np.array_equal(part, full[:, lo:hi]), (lo, hi)


def test_zero_ar_coefficient_is_the_ma_part():
    for theta in (0.0, 0.5, lambda t: 0.2 - 0.4 * t):
        (x,) = _tv_arma(300, 500, 0.0, theta, "t8", [rng_for(4)])
        assert np.array_equal(x, _tv_arma_loop(300, 500, 0.0, theta, "t8", rng_for(4)))


def test_reproducibility_bitwise():
    sc = PlsScenario.make("II", "PLS", n=800, seed=42)
    y1, t1 = gen_series(sc)
    y2, t2 = gen_series(sc)
    assert np.array_equal(y1, y2)
    assert t1 == t2


def test_generator_minimum_length():
    assert len(gen_series(PlsScenario.make("I", "GS", n=MIN_N, seed=1))[0]) == MIN_N
    with pytest.raises(ValueError, match="at least"):
        gen_series(PlsScenario.make("I", "GS", n=MIN_N - 1, seed=1))


def test_different_seeds_differ():
    a, _ = gen_series(PlsScenario.make("I", "GS", n=500, seed=1))
    b, _ = gen_series(PlsScenario.make("I", "GS", n=500, seed=2))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["normal", "chisq3", "rademacher", "t6", "t8"])
def test_innovations_standardized(kind):
    draws = _innovations(kind, 1_000_000, rng_for(99))
    assert abs(np.mean(draws)) < 0.01
    assert abs(np.var(draws) - 1.0) < 0.03


def test_gs_zero_mean_moments():
    y, truth = gen_series(PlsScenario.make("zero", "GS", n=1000, seed=7))
    assert truth == []
    assert abs(np.mean(y)) < 4 / math.sqrt(1000)
    assert abs(np.var(y) - 1.0) < 0.2


def test_arma_long_run_variance_one():
    # batch means at n = 1e5
    y, _ = gen_series(PlsScenario.make("zero", "ARMA", n=100_000, seed=11))
    b = 500
    means = y[: (len(y) // b) * b].reshape(-1, b).mean(axis=1)
    lrv = b * np.var(means)
    assert abs(lrv - 1.0) < 0.1


def test_ps_long_run_variance_matched_across_break():
    # the 3/4 and 5/4 multipliers equalize the long-run variance at 1
    y, _ = gen_series(PlsScenario.make("zero", "PS", n=100_000, seed=13))
    b = 250
    for half in (y[:50_000], y[50_000:]):
        means = half.reshape(-1, b).mean(axis=1)
        assert abs(b * np.var(means) - 1.0) < 0.15


def test_mean_model_truths():
    _, t1 = gen_series(PlsScenario.make("I", "GS", n=500, seed=0))
    assert t1 == [(0.5, 2.5)]
    _, t2 = gen_series(PlsScenario.make("II", "GS", n=500, seed=0))
    assert t2 == [(1 / 3, -2.75), (2 / 3, 2.75)]
    _, t3 = gen_series(PlsScenario.make("InP", "GS", n=1000, seed=0))
    assert [loc for loc, _ in t3] == [i / 9 for i in range(1, 9)]
    assert all(abs(s) == 1.99 for _, s in t3)


def test_mean_model_values_match_truth_jumps():
    # the realized mean actually jumps by the stated size at each location
    sc = PlsScenario.make("increasing", n=2000, seed=0)
    t = (np.arange(2000) + 1) / 2000
    beta, truth = MEAN_MODELS["increasing"](t, sc)
    for loc, size in truth:
        i = int(round(loc * 2000)) - 1  # last index at the old level
        assert beta[i + 1] - beta[i] == pytest.approx(size, abs=0.02)


def test_increasing_scenario_matches_reference_counts():
    # frozen reference ladder: jump counts and sizes by sample size
    counts = {500: 2, 1000: 3, 1500: 4, 2000: 4, 2500: 5, 3000: 6,
              3500: 6, 4000: 7, 4500: 7, 5000: 8}
    sizes = {500: 3.73, 1000: 3.02, 2000: 2.49, 5000: 1.99}
    for n, k in counts.items():
        assert increasing_jump_count(n) == k
        _, truth = gen_series(PlsScenario.make("increasing", n=n, seed=1))
        assert len(truth) == k
    for n, d in sizes.items():
        assert increasing_jump_size(n) == pytest.approx(d, abs=0.005)


def test_plsn_break_count_matches_half_jumps():
    for n in (500, 1500, 2500, 5000):
        g = _plsn_g(n)
        t = np.linspace(1e-9, 1, 200_001)
        vals = g(t)
        breaks = int(np.sum(np.abs(np.diff(vals)) > 0.5))
        expected = increasing_jump_count(n) // 2
        # the final drop can sit at t=1 (boundary, not an interior break)
        assert breaks in (expected, expected + 1)
        interior = int(np.sum((np.abs(np.diff(vals)) > 0.5) & (t[1:] < 1.0)))
        assert interior == expected


def test_smooth_shift_scenario():
    sc = PlsScenario.make("smooth_shift", n=500, seed=3, d=0.0)
    assert sc.noise_model == "SmoothPLS"
    assert sc.noise_scale == 0.5
    _, truth = gen_series(sc)
    assert truth == []
    _, truth_d = gen_series(PlsScenario.make("smooth_shift", n=500, seed=3, d=0.4))
    assert truth_d == [(0.5, -0.4)]


def test_preset_noise_scales():
    assert PlsScenario.make("InP", "GS", n=500).noise_scale == 1.1
    assert PlsScenario.make("increasing", n=500).noise_model == "PLSnP"
    assert PlsScenario.make("I", "GS", n=500).noise_scale == 1.0


def test_unknown_models_error():
    with pytest.raises(ValueError, match="unknown mean"):
        gen_series(PlsScenario(mean_model="nope", noise_model="GS", n=500))
    with pytest.raises(ValueError, match="unknown noise"):
        gen_series(PlsScenario(mean_model="I", noise_model="nope", n=500))
    with pytest.raises(ValueError, match="n must be"):
        gen_series(PlsScenario(mean_model="I", noise_model="GS", n=50))


def test_all_noise_models_run_and_are_centered():
    for name in NOISE_MODELS:
        y, _ = gen_series(PlsScenario(mean_model="zero", noise_model=name, n=4000, seed=5))
        assert np.all(np.isfinite(y))
        assert abs(np.mean(y)) < 0.25


def _assert_same_replicates(m1, m2):
    assert m1["counts"] == m2["counts"]
    np.testing.assert_array_equal(m1["mad_raw_all"], m2["mad_raw_all"])
    np.testing.assert_array_equal(m1["mad_refined_all"], m2["mad_refined_all"])


def test_monte_carlo_metrics_and_determinism(monkeypatch):
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    det = DetectorSpec(cfg=cfg, alpha=0.05)
    sc = PlsScenario.make("I", "GS", n=500)
    # R = 50 on 1, 2 and 3 workers: one chunk, two even ones, three uneven ones
    m1, *rest = [monte_carlo(sc, det, R=50, seed=9, threads=k) for k in (1, 2, 3)]
    # and six chunks of 8-9 replicates, two to each of 3 workers
    monkeypatch.setattr(simulate, "_CHUNK_VALUES", 10_000)
    rest.append(monte_carlo(sc, det, R=50, seed=9, threads=3))
    for m2 in rest:
        _assert_same_replicates(m1, m2)
    assert m1["hit_rate"] >= 0.9
    assert m1["mad_refined"] <= 0.01


def test_monte_carlo_auto_level_thread_invariant():
    det = DetectorSpec(cfg=ScaleConfig(0.061, 0.167, 0.03), alpha="auto")
    sc = PlsScenario.make("II", "PLS", n=500)
    runs = [monte_carlo(sc, det, R=50, seed=4, threads=k) for k in (1, 2, 3)]
    for m in runs:
        _assert_same_replicates(runs[0], m)
        assert m["mean_gen_runtime"] > 0 and m["mean_runtime"] > 0


def test_monte_carlo_warms_the_level_grid_before_forking():
    # forked workers inherit the parent's cache; without the warm-up each
    # worker would rebuild the grid on every call
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    det = DetectorSpec(cfg=cfg, alpha="auto")
    _cv_grid.cache_clear()
    monte_carlo(PlsScenario.make("II", "PLS", n=500), det, R=50, seed=4, threads=2)
    misses = _cv_grid.cache_info().misses
    _cv_grid(tail_constants(det.filter(), cfg.s_lower, cfg.s_upper))
    assert _cv_grid.cache_info().misses == misses


def test_chunks_cover_replicates_in_near_equal_ranges(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK_VALUES", 10_000)
    for R, workers, row_values in [(50, 1, 1000), (50, 3, 1000), (100, 2, 1000),
                                   (400, 2, 5500), (50, 4, 100_500), (50, 50, 1000)]:
        chunks = _chunks(R, workers, row_values)
        assert [r for c in chunks for r in c] == list(range(R))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= max(1, 10_000 // row_values)
        assert len(chunks) % workers == 0 or len(chunks) == R
    assert [len(c) for c in _chunks(50, 3, 1000)] == [8, 8, 9, 8, 8, 9]


_CALLER_PIDS = []


def _recording_mc_chunk(task):
    _CALLER_PIDS.append(os.getpid())
    return _mc_chunk(task)


def test_monte_carlo_replicate_error_not_rerun_serially(monkeypatch):
    # n * s_star = 1.5 < 2: every chunk raises inside its worker
    cfg = ScaleConfig(0.061, 0.167, 0.003)
    det = DetectorSpec(cfg=cfg, alpha=0.05, threshold_mode="fixed:4.0")
    monkeypatch.setattr(simulate, "_mc_chunk", _recording_mc_chunk)
    _CALLER_PIDS.clear()
    with pytest.raises(ValueError, match="n \\* s_star"):
        monte_carlo(PlsScenario.make("I", "GS", n=500), det, R=50, threads=2)
    assert _CALLER_PIDS.count(os.getpid()) == 0


def _never(*args, **kwargs):
    raise AssertionError("reached after a bad argument")


@pytest.mark.parametrize("cfg", [ScaleConfig(0.061, 0.167, 0.03), None], ids=["fixed", "auto"])
@pytest.mark.parametrize(
    "bad, message",
    [({"alpha": 0.7}, "alpha must be 'auto'"), ({"threshold_mode": "bogus"}, "bad threshold mode")],
    ids=["alpha", "threshold"],
)
def test_monte_carlo_rejects_bad_arguments_before_any_work(monkeypatch, cfg, bad, message):
    # neither the pre-fork calibration nor the pool may start
    monkeypatch.setattr(simulate, "_resolve_threshold", _never)
    monkeypatch.setattr(simulate, "_pool_chunks", _never)
    with pytest.raises(ValueError, match=message):
        monte_carlo(PlsScenario.make("I", "GS", n=500), DetectorSpec(cfg, **bad), R=50, threads=2)


def test_monte_carlo_pool_capped_at_replicates(monkeypatch):
    asked = []

    def serial_pool(tasks, workers):
        # records the workers and the replicates per chunk asked for, starts no process
        asked.append((workers, [len(task[-1]) for task in tasks]))
        return [_mc_chunk(task) for task in tasks]

    monkeypatch.setattr(simulate, "_pool_chunks", serial_pool)
    det = DetectorSpec(cfg=ScaleConfig(0.061, 0.167, 0.03), alpha=0.05, threshold_mode="fixed:4.0")
    sc = PlsScenario.make("I", "GS", n=500)
    m = monte_carlo(sc, det, R=50, seed=1, threads=500)
    # 50 workers, one chunk of one replicate each
    assert asked == [(50, [1] * 50)]
    assert m["counts"] == monte_carlo(sc, det, R=50, seed=1)["counts"]


def _record_forks(monkeypatch):
    """Pids of the children forked while the test runs."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    # a blocked read in the caller fails the test instead of hanging it
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("s_star, threads", [(0.03, 3), (0.003, 2)], ids=["returns", "raises"])
def test_monte_carlo_leaves_no_child(monkeypatch, s_star, threads):
    pids = _record_forks(monkeypatch)
    det = DetectorSpec(cfg=ScaleConfig(0.061, 0.167, s_star), alpha=0.05, threshold_mode="fixed:4.0")
    sc = PlsScenario.make("I", "GS", n=500)
    with _deadline(60):
        if s_star * sc.n < 2:  # every chunk raises inside its worker
            with pytest.raises(ValueError, match="n \\* s_star"):
                monte_carlo(sc, det, R=50, threads=threads)
        else:
            monte_carlo(sc, det, R=50, threads=threads)
    assert len(pids) == threads
    _assert_reaped(pids)


@pytest.mark.parametrize("stall", [False, True], ids=["all-die", "second-stalls"])
def test_monte_carlo_worker_dying_without_a_result(monkeypatch, stall):
    caller = os.getpid()
    ran_in_caller = []

    def dying_chunk(task):
        if os.getpid() != caller:
            if stall and task[-1][0] > 0:
                # a worker still busy when the first one has died is killed, not waited for
                time.sleep(30)
            os._exit(7)
        ran_in_caller.append(task)
        return _mc_chunk(task)

    monkeypatch.setattr(simulate, "_mc_chunk", dying_chunk)
    pids = _record_forks(monkeypatch)
    det = DetectorSpec(cfg=ScaleConfig(0.061, 0.167, 0.03), alpha=0.05, threshold_mode="fixed:4.0")
    with _deadline(20), pytest.raises(RuntimeError, match="without a result"):
        monte_carlo(PlsScenario.make("I", "GS", n=500), det, R=50, threads=2)
    assert ran_in_caller == []
    assert len(pids) == 2
    _assert_reaped(pids)


def test_replicate_at_a_fixed_level_is_detect_pipeline():
    sc = PlsScenario.make("II", "PLS", n=500)
    det = DetectorSpec(cfg=ScaleConfig(0.061, 0.167, 0.03), alpha=0.05)
    # two chunks: replicates 1 | 2 sit on both sides of the boundary
    rows = _mc_chunk((sc, det, 0.05, 6, range(0, 2))) + _mc_chunk((sc, det, 0.05, 6, range(2, 4)))
    for r, (count, hit, mad_raw, mad_ref, _, _) in enumerate(rows):
        (y,), truth = simulate._generate(sc, [rng_for(6, r)])
        res = detect_pipeline(y, det.cfg, det.filter(), alpha=0.05)
        assert hit and count == res.count == len(truth)
        assert mad_raw == _mad([j.location for j in res.jumps_raw], truth)
        assert mad_ref == _mad(res.jumps_refined, truth)


def test_monte_carlo_automatic_scales():
    # each replicate selects its own scales, so nothing is calibrated before the loop
    sc = PlsScenario.make("I", "GS", n=200)
    m = monte_carlo(sc, DetectorSpec(cfg=None), R=50, seed=2)
    assert len(m["counts"]) == 50
    for threads in (2, 3):
        _assert_same_replicates(m, monte_carlo(sc, DetectorSpec(cfg=None), R=50, seed=2, threads=threads))
    for r in range(3):
        (y,), _ = simulate._generate(sc, [rng_for(2, r)])
        res, _ = auto_detect(y, builtin_wstar(), cfg=None)
        assert m["counts"][r] == res.count


def test_monte_carlo_requires_enough_reps():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    with pytest.raises(ValueError):
        monte_carlo(PlsScenario.make("I", "GS", n=500), DetectorSpec(cfg=cfg), R=10)


@pytest.mark.parametrize("threads", [0, -3])
def test_monte_carlo_requires_a_worker(threads):
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    with pytest.raises(ValueError, match="threads"):
        monte_carlo(PlsScenario.make("I", "GS", n=500), DetectorSpec(cfg=cfg), R=50, threads=threads)

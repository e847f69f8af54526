import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from jumpscan import detect
from jumpscan.detect import RawJump, _resolve_threshold, cusum_refine, detect_pipeline, mjpd_detect
from jumpscan.field import MultiscaleField, ScaleConfig, _multiscale_fields, _rows, multiscale_field
from jumpscan.filters import builtin_wstar, construct_beta_filter
from jumpscan.threshold import fs_correction
from jumpscan.tuning import auto_detect, select_s_star, select_scales

W = builtin_wstar()
CFG = ScaleConfig(s_lower=0.061, s_upper=0.167, s_star=0.03)


def synthetic_field(g_values, s_upper=0.1):
    """Wrap a raw statistic array into a MultiscaleField for detector tests."""
    n = len(g_values)
    b = int(math.floor(n * s_upper))
    valid = np.zeros(n, dtype=bool)
    valid[b : n - b] = True
    g = np.where(valid, g_values, np.nan)
    cfg = ScaleConfig(s_lower=s_upper / 3, s_upper=s_upper, s_star=s_upper / 6)
    return MultiscaleField(
        grid=np.array([s_upper]),
        hmax=np.abs(np.asarray(g_values, dtype=float)),
        arg=np.zeros(n, dtype=np.int16),
        xi=np.ones(n),
        g=g,
        valid=valid,
        cfg=cfg,
        filt=W,
    )


# ---------------------------------------------------------------------------
# greedy extraction
# ---------------------------------------------------------------------------

def test_all_below_threshold_gives_empty():
    f = synthetic_field(np.full(300, 1.0))
    assert mjpd_detect(f, threshold=2.0) == []


def test_peaks_separated_by_s_upper():
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = synthetic_field(rng.uniform(0, 5, 400), s_upper=0.08)
        jumps = mjpd_detect(f, threshold=1.0)
        locs = [j.location for j in jumps]
        for a, b in zip(locs, locs[1:]):
            assert b - a > 0.08


def test_threshold_monotone_nested_sets():
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = synthetic_field(rng.uniform(0, 6, 300), s_upper=0.07)
        lo = mjpd_detect(f, threshold=2.0)
        hi = mjpd_detect(f, threshold=3.5)
        assert len(hi) <= len(lo)
        assert {j.location for j in hi} <= {j.location for j in lo}


def test_greedy_removes_closed_neighborhood():
    n = 200
    g = np.zeros(n)
    g[100] = 5.0
    b = int(n * 0.1)
    g[100 + b] = 4.0      # inside the closed removal radius
    g[100 + b + 1] = 3.0  # just outside
    f = synthetic_field(g, s_upper=0.1)
    jumps = mjpd_detect(f, threshold=2.5)
    locs = sorted(j.location for j in jumps)
    assert len(jumps) == 2
    assert locs == [101 / n, (100 + b + 1 + 1) / n]


def test_reported_values_above_threshold_and_scales_from_grid():
    y = np.where((np.arange(500) + 1) / 500 >= 0.5, 2.5, 0.0) + 0.3 * np.random.default_rng(3).standard_normal(500)
    f = multiscale_field(y, CFG, W)
    jumps = mjpd_detect(f, threshold=4.0)
    assert jumps
    for j in jumps:
        assert j.g_value >= 4.0
        assert j.scale in f.grid


# ---------------------------------------------------------------------------
# CUSUM refinement
# ---------------------------------------------------------------------------

def test_cusum_exact_on_clean_step():
    # generator convention: step switches on strictly after d
    n = 400
    t = (np.arange(n) + 1) / n
    y = np.where(t > 0.5, 2.0, 0.0)
    refined = cusum_refine(y, [RawJump(0.487, 5.0, 0.1)], z=0.05)
    assert refined[0] == pytest.approx(0.5, abs=1e-12)


def test_cusum_on_closed_left_step_off_by_at_most_one_point():
    n = 400
    t = (np.arange(n) + 1) / n
    y = np.where(t >= 0.5, 2.0, 0.0)
    refined = cusum_refine(y, [RawJump(0.487, 5.0, 0.1)], z=0.05)
    assert refined[0] == pytest.approx(0.5 - 1.0 / n, abs=1e-12)


def test_cusum_containment():
    rng = np.random.default_rng(7)
    y = rng.standard_normal(500)
    for d in (0.3, 0.5, 0.7):
        refined = cusum_refine(y, [d], z=0.05)
        assert abs(refined[0] - d) <= 0.05 + 1e-12


def test_cusum_small_window_keeps_raw():
    y = np.random.default_rng(0).standard_normal(200)
    with pytest.warns(UserWarning, match="refinement window"):
        refined = cusum_refine(y, [0.01], z=0.005)
    assert refined[0] == 0.01


def test_cusum_rejects_bad_z():
    with pytest.raises(ValueError):
        cusum_refine(np.zeros(100), [0.5], z=0.0)


# ---------------------------------------------------------------------------
# batched peaks and refinement against the one-row loops they replaced
# ---------------------------------------------------------------------------

def _greedy_loop(field_, threshold):
    """Peak indices of the one-row greedy loop: argmax, then mask its radius-s_upper window."""
    n = field_.n
    b = int(math.floor(n * field_.cfg.s_upper))
    g = np.where(field_.valid, field_.g, -np.inf)
    out = []
    while True:
        j = int(np.argmax(g))
        if not np.isfinite(g[j]) or g[j] < threshold:
            break
        out.append(j)
        g[max(0, j - b) : min(n, j + b + 1)] = -np.inf
    return sorted(out)


def _refine_loop(y, locs, z):
    """The per-jump CUSUM refinement loop, with its warnings."""
    n = len(y)
    csum = np.concatenate([[0.0], np.cumsum(y)])
    refined = []
    for d in locs:
        lo_t = max(d - (2.0 + detect.ALPHA_TILDE) * z, 0.0)
        hi_t = min(d + (2.0 + detect.ALPHA_TILDE) * z, 1.0)
        i0 = max(int(math.ceil(lo_t * n)) - 1, 0)
        i1 = min(int(math.floor(hi_t * n)) - 1, n - 1)
        total = i1 - i0 + 1
        if total < detect.MIN_REFINE_OBS:
            warnings.warn(
                f"refinement window at {d:.4f} has {total} < {detect.MIN_REFINE_OBS} points; "
                "keeping raw"
            )
            refined.append(d)
            continue
        ii = np.arange(i0, i1 + 1)
        v = (csum[ii + 1] - csum[i0]) - (ii - i0 + 1.0) / total * (csum[i1 + 1] - csum[i0])
        cand = (ii + 1.0) / n
        in_search = (cand >= d - z - 1e-12) & (cand <= d + z + 1e-12)
        if not np.any(in_search):
            refined.append(d)
            continue
        av = np.where(in_search, np.abs(v), -np.inf)
        top = np.flatnonzero(av == av.max())
        best = top[np.lexsort((ii[top], np.abs(cand[top] - d)))[0]]
        refined.append(float(cand[best]))
    return refined


def test_batched_peaks_match_the_greedy_loop():
    rng = np.random.default_rng(11)
    t = (np.arange(500) + 1) / 500
    ymat = np.vstack([
        rng.standard_normal(500),
        3.0 * (t > 0.3) - 3.0 * (t > 0.6) + rng.standard_normal(500),
        2.0 * (t > 0.5) + 0.5 * rng.standard_normal(500),
    ])
    batch = _multiscale_fields(ymat, CFG, W)
    # plateaus: ties go to the smaller index, in every row at once
    ties = replace(batch, g=np.where(batch.valid, np.round(batch.g), np.nan))
    for fields in (batch, ties):
        for thresholds in ([2.0, 2.0, 2.0], [3.5, 1.0, 5.0], [np.inf, 0.0, -np.inf]):
            rows, idx = detect._peaks(fields.g, fields.valid, fields.cfg.s_upper, thresholds)
            for i, thr in enumerate(thresholds):
                want = _greedy_loop(_rows(fields, i), thr)
                assert idx[rows == i].tolist() == want
                assert [round(j.location * 500) - 1 for j in mjpd_detect(_rows(fields, i), thr)] == want


def test_batched_refinement_matches_the_per_jump_loop():
    rng = np.random.default_rng(12)
    n = 300
    t = (np.arange(n) + 1) / n
    ymat = np.vstack([
        rng.standard_normal(n),
        np.round(2.0 * rng.standard_normal(n)),  # integer steps: ties in |CUSUM|
        np.zeros(n),  # every contrast 0: the closest candidate wins
        4.0 * (t > 0.4) + rng.standard_normal(n),
    ])
    locs = [0.001, 0.02, 0.2, 0.4, 0.4 + 1e-13, 0.5, 0.77, 0.99, 1.0]
    for z in (0.0005, 0.004, 0.03, 0.2):
        rows = np.repeat(np.arange(len(ymat)), len(locs))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            batched = detect._refine(ymat, rows, np.tile(locs, len(ymat)), z)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            loops = [_refine_loop(y, locs, z) for y in ymat]
        assert batched.tolist() == [d for row in loops for d in row], z
        assert [str(w.message) for w in got] == [str(w.message) for w in want], z


def test_batched_pass_matches_one_row_and_warns():
    # three synthetic rows at n = 100 (z = s_lower = 0.04 / 3): a peak at
    # t = 0.02 whose refinement window holds 6 < MIN_REFINE_OBS points, two
    # interior peaks, and none
    n = 100
    g = np.zeros((3, n))
    g[0, 1] = 5.0
    g[1, 30], g[1, 60] = 4.0, 6.0
    row = synthetic_field(g[1], s_upper=0.04)
    valid = np.tile(row.valid, (3, 1))
    valid[0, :4] = True
    batch = replace(
        row, hmax=g, arg=np.zeros((3, n), dtype=np.int16), xi=np.ones((3, n)),
        g=np.where(valid, g, np.nan), valid=valid,
    )
    t = (np.arange(n) + 1) / n
    rng = np.random.default_rng(13)
    ymat = np.vstack([3.0 * (t > 0.02), 2.0 * (t > 0.3) - 2.0 * (t > 0.6), np.zeros(n)])
    ymat += 0.1 * rng.standard_normal((3, n))
    with pytest.warns(UserWarning, match="window at 0.0200 has 6 < 8"):
        results = detect._pass_rows(ymat, batch, [0.05, 0.05, 0.05], "fixed:3.0", 0, 1)
    z = row.cfg.s_lower
    with pytest.warns(UserWarning, match="window at 0.0200"):
        want = [mjpd_detect(_rows(batch, i), 3.0) for i in range(3)]
        refined = [cusum_refine(y, raw, z) for y, raw in zip(ymat, want)]
    assert [r.count for r in results] == [1, 2, 0]
    for res, raw, ref in zip(results, want, refined):
        assert res.jumps_raw == raw and res.jumps_refined == ref
        assert res.threshold == 3.0 and res.alpha is None
    assert results[0].jumps_refined == [0.02]
    assert results[1].jumps_refined == [0.3, 0.6]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def step_series(n=500, height=2.5, where=0.5, seed=0, sd=1.0):
    rng = np.random.default_rng(seed)
    t = (np.arange(n) + 1) / n
    return height * (t >= where) + sd * rng.standard_normal(n)


def test_pipeline_detects_single_step():
    res = detect_pipeline(step_series(seed=4), CFG, W, alpha=0.05)
    assert res.count == 1
    assert res.jumps_raw[0].location == pytest.approx(0.5, abs=0.01)
    assert abs(res.jumps_refined[0] - res.jumps_raw[0].location) <= CFG.s_lower + 1e-12


def test_pipeline_fixed_infinite_threshold_empty():
    res = detect_pipeline(step_series(seed=5), CFG, W, threshold_mode="fixed:inf")
    assert res.count == 0
    assert res.alpha is None


@pytest.mark.parametrize("a", [0.2, 5.0])
def test_pipeline_scale_invariance_fixed_threshold(a):
    y = step_series(seed=6)
    r1 = detect_pipeline(y, CFG, W, threshold_mode="fixed:4.0")
    r2 = detect_pipeline(a * y, CFG, W, threshold_mode="fixed:4.0")
    assert [j.location for j in r1.jumps_raw] == [j.location for j in r2.jumps_raw]
    assert r1.jumps_refined == r2.jumps_refined


def test_pipeline_tiny_amplitude_matches_unit_amplitude():
    # the degenerate-denominator floor is relative, so a 1e-150 scaling
    # leaves every denominator entry valid and the detection unchanged
    y = step_series(seed=6)
    r1 = detect_pipeline(y, CFG, W, alpha=0.05)
    r2 = detect_pipeline(1e-150 * y, CFG, W, alpha=0.05)
    assert r1.count == r2.count >= 1
    assert [j.location for j in r1.jumps_raw] == [j.location for j in r2.jumps_raw]
    assert r1.jumps_refined == r2.jumps_refined
    for a, b in zip(r1.jumps_raw, r2.jumps_raw):
        assert b.g_value == pytest.approx(a.g_value, rel=1e-9)


def test_pipeline_huge_offset_matches_centred():
    # the denominator band leaves the boundary rows, where a 1e9 offset
    # dominates the responses, out of its cumulative sum
    y = step_series(seed=3)
    r1 = detect_pipeline(y, CFG, W, alpha=0.05)
    r2 = detect_pipeline(y + 1e9, CFG, W, alpha=0.05)
    assert r1.count == r2.count >= 1
    assert [j.location for j in r1.jumps_raw] == [j.location for j in r2.jumps_raw]
    assert r1.jumps_refined == r2.jumps_refined
    for a, b in zip(r1.jumps_raw, r2.jumps_raw):
        assert b.g_value == pytest.approx(a.g_value, rel=1e-6)


def test_pipeline_refinement_containment_and_json():
    res = detect_pipeline(step_series(seed=8), CFG, W, alpha=0.05)
    z = res.config["z"]
    for rj, ref in zip(res.jumps_raw, res.jumps_refined):
        assert abs(ref - rj.location) <= z + 1e-12
    d = res.to_dict()
    assert set(d) == {"alpha", "threshold", "jumps", "config"}
    assert d["jumps"][0]["raw"] == res.jumps_raw[0].location


def test_pipeline_bootstrap_mode_deterministic():
    y = step_series(seed=9)
    r1 = detect_pipeline(y, CFG, W, alpha=0.05, threshold_mode="bootstrap:200", seed=3)
    r2 = detect_pipeline(y, CFG, W, alpha=0.05, threshold_mode="bootstrap:200", seed=3)
    assert r1.threshold == r2.threshold
    assert [j.location for j in r1.jumps_raw] == [j.location for j in r2.jumps_raw]


def test_pipeline_unknown_mode():
    with pytest.raises(ValueError, match="threshold mode"):
        detect_pipeline(step_series(), CFG, W, threshold_mode="magic")


@pytest.mark.parametrize(
    "mode", ["fixed", "fixed:", "fixedfoo:3", "fixed:nan", "analytic:1", "bootstrap:", "bootstrap:abc"]
)
def test_malformed_threshold_mode_raises(mode):
    with pytest.raises(ValueError, match="threshold mode"):
        detect_pipeline(step_series(), CFG, W, threshold_mode=mode)
    with pytest.raises(ValueError, match="threshold mode"):
        _resolve_threshold(mode, 0.05, CFG, W, 500, 0, 1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"alpha": "auto"}, "auto_detect"),
        ({"alpha": 0.7}, "alpha must be"),
        ({"threshold_mode": "bogus"}, "threshold mode"),
    ],
    ids=["auto", "level", "mode"],
)
def test_pipeline_checks_level_and_mode_before_any_transform(kwargs, match, monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("built the field before checking the arguments")

    monkeypatch.setattr(detect, "_multiscale_fields", fail)
    with pytest.raises(ValueError, match=match):
        detect_pipeline(step_series(), CFG, W, **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "path",
    ["detect_pipeline", "multiscale_field", "auto_detect", "auto_scales", "select_s_star", "select_scales"],
)
def test_non_finite_input_fails_before_any_transform(path, bad):
    y = step_series(seed=3)
    y[17] = bad
    run = {
        "detect_pipeline": lambda: detect_pipeline(y, CFG, W),
        "multiscale_field": lambda: multiscale_field(y, CFG, W),
        "auto_detect": lambda: auto_detect(y, W, cfg=CFG, alpha=0.05),
        "auto_scales": lambda: auto_detect(y, W, cfg=None),
        "select_s_star": lambda: select_s_star(y, CFG.s_lower, CFG.s_upper, W),
        "select_scales": lambda: select_scales(y, W),
    }[path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the filter bank must not see the value
        with pytest.raises(ValueError, match="non-finite input at index 17"):
            run()


def test_pipeline_runs_with_beta_filter():
    beta, _ = construct_beta_filter(2, 50)
    n = 500
    t = (np.arange(n) + 1) / n
    y = 4.0 * (t > 0.5) + np.random.default_rng(2).standard_normal(n)
    res = detect_pipeline(y, CFG, beta, alpha=0.05)
    assert res.count == 1
    assert abs(res.jumps_refined[0] - 0.5) <= 0.01


@pytest.mark.parametrize("mode", ["analytic", "bootstrap:200", "fixed:4.0"])
def test_fs_factor_is_the_one_threshold_rule(mode):
    for a in (0.05, 0.10):
        c, k, _ = _resolve_threshold(mode, a, CFG, W, 500, 0, 1)
        if mode.startswith("fixed"):
            assert (c, k) == (4.0, 1.0)
        else:
            assert k == fs_correction(500, CFG, W, alpha=a)

import math

import numpy as np
import pytest

from jumpscan.detect import RawJump, _resolve_threshold, cusum_refine, detect_pipeline, mjpd_detect
from jumpscan.field import MultiscaleField, ScaleConfig, multiscale_field
from jumpscan.filters import builtin_wstar, construct_beta_filter
from jumpscan.threshold import fs_correction

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


def test_pipeline_reuses_prebuilt_field():
    y = step_series(seed=10)
    f = multiscale_field(y, CFG, W)
    r1 = detect_pipeline(y, CFG, W, alpha=0.05, field_=f)
    r2 = detect_pipeline(y, CFG, W, alpha=0.05)
    assert [j.location for j in r1.jumps_raw] == [j.location for j in r2.jumps_raw]


def test_pipeline_rejects_a_field_of_another_config_or_length():
    y = step_series(seed=10)
    other = ScaleConfig(s_lower=0.045, s_upper=0.12, s_star=0.03)
    with pytest.raises(ValueError, match="field_ was built for"):
        detect_pipeline(y, CFG, W, field_=multiscale_field(y, other, W))
    with pytest.raises(ValueError, match="field_ was built for"):
        detect_pipeline(y[:400], CFG, W, field_=multiscale_field(y, CFG, W))


def test_pipeline_rejects_a_field_of_another_filter():
    from jumpscan.simulate import PlsScenario, gen_series

    y, _ = gen_series(PlsScenario.make("II", "PLS", n=500, seed=7))
    beta, _ = construct_beta_filter(2, 50)
    assert detect_pipeline(y, CFG, beta, field_=multiscale_field(y, CFG, beta)).count == 2
    # the built-in filter's field of this series has no peak above the beta threshold
    with pytest.raises(ValueError, match="field_ was built with"):
        detect_pipeline(y, CFG, beta, field_=multiscale_field(y, CFG, W))
    # an equal filter built anew is the same filter
    detect_pipeline(y, CFG, builtin_wstar(), field_=multiscale_field(y, CFG, W))


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

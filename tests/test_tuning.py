import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from jumpscan import detect, tuning
from jumpscan.detect import detect_pipeline, mjpd_detect
from jumpscan.cli import LADDER
from jumpscan.field import MIN_N, ScaleConfig, _multiscale_fields, multiscale_field
from jumpscan.filters import builtin_wstar
from jumpscan.simulate import PlsScenario, gen_series
from jumpscan.threshold import critical_value, tail_constants
from jumpscan.tuning import (
    _norm_cdf,
    auto_detect,
    select_alpha,
    select_s_star,
    select_scales,
    sigma_sup_estimate,
)

W = builtin_wstar()


def step_series(n, height, seed, where=0.5):
    rng = np.random.default_rng(seed)
    t = (np.arange(n) + 1) / n
    return height * (t > where) + rng.standard_normal(n)


# ---------------------------------------------------------------------------
# s_star selection
# ---------------------------------------------------------------------------

def test_select_s_star_interior_choice_rate():
    inside = 0
    for seed in range(100):
        y = np.random.default_rng((13, seed)).standard_normal(2000)
        rep = select_s_star(y, s_lower=0.043, s_upper=0.125, filt=W)
        if 0 < rep.chosen_index < len(rep.candidates) - 1:
            inside += 1
    assert inside >= 90


def test_select_s_star_scale_invariant():
    y = np.random.default_rng(3).standard_normal(1500)
    a = select_s_star(y, 0.05, 0.12, W)
    b = select_s_star(10.0 * y, 0.05, 0.12, W)
    assert a.chosen_index == b.chosen_index


def test_select_s_star_preconditions():
    y = np.random.default_rng(0).standard_normal(500)
    # at s_upper = 1/2 the valid core is empty
    with pytest.raises(ValueError, match="s_upper < 1/2"):
        select_s_star(y, 0.2, 0.5, W)


def test_select_s_star_report_minimizes():
    y = np.random.default_rng(5).standard_normal(1000)
    rep = select_s_star(y, 0.05, 0.125, W)
    finite = [s for s in rep.scores if np.isfinite(s)]
    assert rep.scores[rep.chosen_index] == min(finite)


# ---------------------------------------------------------------------------
# (s_lower, s_upper) selection
# ---------------------------------------------------------------------------

def _interior_pairs(n):
    k = tuning._SCALE_RADIUS
    g1, g2 = tuning._scale_grids(n)
    return [(float(a), float(b)) for a in g1[k:-k] for b in g2[k:-k]]


def test_select_scales_single_big_jump():
    y = step_series(1000, 4.0, seed=1)
    rep = select_scales(y, W)
    assert rep.candidates == _interior_pairs(1000)
    assert rep.scores[rep.chosen_index] == min(rep.scores)


def test_select_scales_tie_break_smallest_sum():
    # at n = 800 all 49 pairs are admissible, and a jump of 12 noise
    # standard deviations counts exactly one at each, so SE ties at 0
    y = step_series(800, 12.0, seed=2)
    rep = select_scales(y, W)
    assert rep.scores == [0.0] * 9
    assert rep.chosen == min(_interior_pairs(800), key=lambda p: p[0] + p[1])


def _per_pair_counts(y, filt):
    """The sweep's counts as one field and one peak search per pair (the oracle)."""
    grid1, grid2 = tuning._scale_grids(len(y))
    s_star = {}
    counts = np.full((len(grid1), len(grid2)), -1, dtype=int)
    for i, sl in enumerate(grid1):
        for j, su in enumerate(grid2):
            if sl >= su:
                continue
            if float(sl) not in s_star:
                s_star[float(sl)] = select_s_star(y, float(sl), float(grid2[-1]), filt).chosen
            cfg = ScaleConfig(s_lower=float(sl), s_upper=float(su), s_star=s_star[float(sl)])
            c = critical_value(tuning._SWEEP_LEVEL, tail_constants(filt, cfg.s_lower, cfg.s_upper))
            counts[i, j] = len(mjpd_detect(multiscale_field(y, cfg, filt), c))
    return counts


def _report_of_counts(counts, n):
    """The minimum-volatility report of a count matrix, scored pair by pair."""
    k = tuning._SCALE_RADIUS
    grid1, grid2 = tuning._scale_grids(n)
    pairs, scores = [], []
    for i in range(k, len(grid1) - k):
        for j in range(k, len(grid2) - k):
            nb = counts[i - k : i + k + 1, j - k : j + k + 1]
            pairs.append((float(grid1[i]), float(grid2[j])))
            scores.append(float(np.var(nb[nb >= 0], ddof=1)))
    best = min(range(len(pairs)), key=lambda r: (scores[r], pairs[r][0] + pairs[r][1]))
    return tuning.MvReport(candidates=pairs, scores=scores, chosen_index=best)


def _sweep_cases():
    cases = [(f"II:PLS-500-{s}", "II", "PLS", 500, s) for s in range(6)]
    cases += [("I:GS-200", "I", "GS", 200, 3), ("II:PLS-5000", "II", "PLS", 5000, 1)]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("mean,noise,n,seed", _sweep_cases())
def test_column_batched_sweep_matches_the_per_pair_loop(mean, noise, n, seed):
    y, _ = gen_series(PlsScenario.make(mean, noise, n=n, seed=seed))
    want = _per_pair_counts(y, W)
    got = tuning._sweep_counts(y, W)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if n < 729:
        assert (want == -1).any()  # inadmissible corner pairs
    assert select_scales(y, W) == _report_of_counts(want, n)


def test_column_batched_sweep_matches_the_per_pair_loop_on_the_tie_case():
    y = step_series(800, 12.0, seed=2)
    want = _per_pair_counts(y, W)
    assert np.array_equal(tuning._sweep_counts(y, W), want)
    assert select_scales(y, W) == _report_of_counts(want, 800)


def test_default_scale_grids_have_only_admissible_interior_pairs():
    # why select_scales needs no guard against an empty interior or a
    # neighborhood of fewer than two counts: for every n, each interior pair
    # has s_lower < s_upper < 1/2 (then so has the pair left of it)
    k = tuning._SCALE_RADIUS
    sizes = np.concatenate([np.arange(MIN_N, 5000), np.geomspace(5000, 10**7, 2000).round()])
    for n in sizes.astype(int):
        g1, g2 = tuning._scale_grids(int(n))
        assert np.all(g2 < 0.5), n
        assert np.all(g1[k:-k, None] < g2[None, k:-k]), n


# ---------------------------------------------------------------------------
# numpy stand-ins for scipy helpers
# ---------------------------------------------------------------------------

def test_norm_cdf_matches_ndtr():
    from scipy.special import ndtr

    x = np.linspace(-40.0, 40.0, 80_001)
    assert np.max(np.abs(_norm_cdf(x) - ndtr(x))) <= 1e-15
    assert _norm_cdf(0.0) == 0.5


def test_norm_cdf_screen_within_its_error_bound():
    from scipy.special import ndtr

    x = np.concatenate([np.linspace(-60.0, 60.0, 240_001), [-1e300, 1e300]])
    exact = ndtr(x)
    err = np.abs(tuning._norm_cdf_screen(x) - exact)
    # the fit's fractional error, plus one unit in the last place of 1 for the rounding
    assert np.all(err <= tuning._ERFCC_ERROR * np.minimum(exact, 1.0 - exact) + 2.0 ** -52)


# ---------------------------------------------------------------------------
# alpha selection
# ---------------------------------------------------------------------------

def _rule_of_thumb_ratio(n, s_upper, delta, sigma=1.0):
    """Detectability ratio of a jump of size ``delta`` at noise level ``sigma``."""
    m = W.moments()
    return math.sqrt(n * s_upper) * delta * m.f0 / (sigma * math.sqrt(m.u11))


def test_select_alpha_on_grid_and_minimal():
    tc = tail_constants(W, 0.061, 0.167)
    # a jump of size s_upper at unit noise, n = 500, s_upper = 0.167, one of 1 / (2 s_upper)
    xi = _rule_of_thumb_ratio(500, 0.167, 0.167)
    a = select_alpha(xi, 1 / (2 * 0.167), tc, 1.0)
    grid = np.arange(0.001, 0.301, 0.001)
    assert np.min(np.abs(grid - a)) < 1e-12
    # recompute the objective and check minimality
    from scipy.stats import norm

    cv = np.array([critical_value(q, tc) for q in grid])
    delta = grid + 1 - (1 - (norm.cdf(cv - xi) - norm.cdf(-cv - xi))) ** (1 / (2 * 0.167))
    assert delta[np.argmin(np.abs(grid - a))] <= delta.min() + 1e-12


def test_select_alpha_large_signal_picks_grid_minimum():
    tc = tail_constants(W, 0.061, 0.167)
    a = select_alpha(_rule_of_thumb_ratio(500, 0.167, 50.0), 1 / (2 * 0.167), tc, 1.0)
    assert a == pytest.approx(0.001)


def test_select_alpha_zero_signal_in_range():
    tc = tail_constants(W, 0.061, 0.167)
    a = select_alpha(0.0, 1 / (2 * 0.167), tc, 1.0)
    assert 0.001 <= a <= 0.300


def _exhaustive_alpha(xi_n, m, tc, correction):
    """The 300-level search the screened one replaced: (level, objective at every level)."""
    cvals = tuning._cv_grid(tc) * correction
    # both tails of hit in one call: P(Z < c - xi_n) - P(Z < -c - xi_n)
    tails = _norm_cdf(np.concatenate([cvals - xi_n, -cvals - xi_n]))
    hit = tails[: len(cvals)] - tails[len(cvals) :]
    miss = 1.0 - (1.0 - hit) ** m
    delta = tuning._Q_GRID + miss
    return float(tuning._Q_GRID[int(np.argmin(delta))]), delta


@pytest.mark.parametrize("row", LADDER, ids=[str(r[0]) for r in LADDER])
def test_screened_level_search_is_the_exhaustive_one(row):
    _, s_lower, s_upper = row
    tc = tail_constants(W, s_lower, s_upper)
    cv = tuning._cv_grid(tc)
    saturated = 0
    for factor in (1.0, 1.05, 1.1):
        # ratios at 0 and 1e-9 (every level misses one of 8 jumps for sure), around
        # the smallest, middle and largest critical value, and at 50 (no level misses)
        near = factor * cv[[0, 149, 299], None] + np.array([-1.0, -1e-3, 0.0, 1e-3, 1.0])
        xis = np.concatenate([[0.0, 1e-9, 50.0], near.ravel()])
        for m in (1, 2, 1 / (2 * s_upper), 8):
            ms = np.full(len(xis), m)
            got = tuning._select_levels(xis, ms, tc, factor)
            screened, bound = tuning._screen(cv * factor, xis, ms)
            for i, xi in enumerate(xis):
                want, delta = _exhaustive_alpha(float(xi), m, tc, factor)
                assert got[i] == want, (xi, m, factor)
                assert np.max(np.abs(screened[i] - delta)) <= bound[i, 0], (xi, m, factor)
                saturated += bool(np.all(delta == tuning._Q_GRID + 1.0))
                saturated += bool(np.all(delta == tuning._Q_GRID))
            assert select_alpha(float(xis[5]), m, tc, factor) == got[5]
    # the cases decided by the grid order alone are in the sweep
    assert saturated >= 3 * (2 + 4)


# ratios where the screened objective's own argmin is not the exhaustive level,
# so the re-evaluation decides: (LADDER n, m, correction, ratio)
_NEAR_TIES = [
    (500, 1, 1.0, 4.5326), (500, 2, 1.0, 3.468), (500, 8, 1.0, 4.2648),
    (1000, 4.0, 1.0, 4.3122), (1000, 8, 1.0, 4.4228),
]


def test_screened_level_search_settles_near_ties_exactly():
    rows = {n: (sl, su) for n, sl, su in LADDER}
    flipped = 0
    for n, m, factor, xi in _NEAR_TIES:
        tc = tail_constants(W, *rows[n])
        want, _ = _exhaustive_alpha(xi, m, tc, factor)
        assert select_alpha(xi, m, tc, factor) == want, (n, m, factor, xi)
        screened, _ = tuning._screen(tuning._cv_grid(tc) * factor, np.array([xi]), np.array([m]))
        flipped += tuning._Q_GRID[np.argmin(screened[0])] != want
    assert flipped >= 3


def test_select_alpha_needs_one_jump():
    tc = tail_constants(W, 0.061, 0.167)
    for m in (0.999, 0, -2, math.nan):
        with pytest.raises(ValueError, match="at least one jump"):
            select_alpha(3.0, m, tc, 1.0)


def test_select_alpha_rejects_nonfinite_signal():
    tc = tail_constants(W, 0.061, 0.167)
    for xi in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="detectability ratio"):
            select_alpha(xi, 1 / (2 * 0.167), tc, 1.0)


# ---------------------------------------------------------------------------
# sigma_sup
# ---------------------------------------------------------------------------

def test_sigma_sup_near_one_for_unit_noise():
    # the max over t rides the sampling noise of Xi, so the estimator sits
    # ~25% above sigma at this configuration; range frozen from a 100-run
    # oracle sweep (observed [1.09, 1.51], median 1.25)
    cfg = ScaleConfig(0.020, 0.056, 0.0069)
    ok = 0
    for seed in range(100):
        y = np.random.default_rng((17, seed)).standard_normal(5000)
        f = multiscale_field(y, cfg, W)
        if 0.8 <= sigma_sup_estimate(f) <= 1.55:
            ok += 1
    assert ok >= 95


@pytest.mark.parametrize(
    "n, cfg",
    [(501, ScaleConfig(0.061, 0.167, 0.03)), (3000, ScaleConfig(0.035, 0.1, 0.0175))],
    ids=["501", "3000"],
)
def test_sigma_sup_near_max_of_median_filtered_xi(n, cfg):
    # Xi is already averaged over 2 floor(n s_upper) + 1 points, so a sliding
    # median over floor(n s_star) of them moves its maximum little; 25 series
    # of five models at each n read ratios of 0.9995-1.0043 here
    from scipy.ndimage import median_filter


    w = int(math.floor(n * cfg.s_star))
    for scenario in ["I:GS", "II:PLS", "zero:ARMA"]:
        for seed in range(3):
            y, _ = gen_series(PlsScenario.make(*scenario.split(":"), n=n, seed=seed))
            f = multiscale_field(y, cfg, W)
            smoothed = median_filter(f.xi, size=w, mode="nearest")
            want = math.sqrt(np.max(smoothed[f.valid]) / f.u11)
            assert sigma_sup_estimate(f) == pytest.approx(want, rel=0.03), (scenario, seed)


def test_sigma_sup_ignores_xi_off_the_valid_mask():
    f = multiscale_field(step_series(500, 3.0, seed=11), ScaleConfig(0.061, 0.167, 0.03), W)
    raised = dataclasses.replace(f, xi=np.where(f.valid, f.xi, 1e6 * f.xi.max()))
    assert not f.valid.all()
    assert sigma_sup_estimate(raised) == sigma_sup_estimate(f)


def test_sigma_sup_scales_linearly():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    y = np.random.default_rng(19).standard_normal(1000)
    s1 = sigma_sup_estimate(multiscale_field(y, cfg, W))
    s3 = sigma_sup_estimate(multiscale_field(3.0 * y, cfg, W))
    assert s3 == pytest.approx(3.0 * s1, rel=1e-9)


def test_sigma_sup_increases_with_heteroscedastic_noise():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    higher = 0
    for seed in range(40):
        rng = np.random.default_rng((23, seed))
        e = rng.standard_normal(1000)
        t = (np.arange(1000) + 1) / 1000
        s_flat = sigma_sup_estimate(multiscale_field(e, cfg, W))
        s_ramp = sigma_sup_estimate(multiscale_field((1 + 0.5 * t) * e, cfg, W))
        if s_ramp >= s_flat:
            higher += 1
    assert higher >= 38


# ---------------------------------------------------------------------------
# auto pipeline
# ---------------------------------------------------------------------------

def test_auto_detect_with_fixed_scales_finds_step():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    y = step_series(500, 2.5, seed=29)
    res, info = auto_detect(y, W, cfg=cfg, alpha="auto")
    assert res.count == 1
    assert res.jumps_raw[0].location == pytest.approx(0.5, abs=0.01)
    assert info["alpha"] == res.alpha
    assert 0.001 <= res.alpha <= 0.300
    assert np.array_equal(info["field"].g, multiscale_field(y, cfg, W).g, equal_nan=True)


def test_auto_detect_full_auto_scales():
    y = step_series(600, 4.0, seed=31)
    res, info = auto_detect(y, W, cfg=None, alpha="auto")
    assert res.count == 1
    assert "scale_report" in info and "s_star_report" in info


@pytest.mark.parametrize("cfg", [ScaleConfig(0.061, 0.167, 0.03), None], ids=["fixed", "auto"])
def test_auto_detect_refines_once(cfg, monkeypatch):
    # the probe takes raw peaks only: one refinement, the final pass's
    calls = []
    refine = detect._refine

    def counting(*args, **kwargs):
        calls.append(1)
        return refine(*args, **kwargs)

    monkeypatch.setattr(detect, "_refine", counting)
    auto_detect(step_series(600, 4.0, seed=31), W, cfg=cfg, alpha="auto")
    assert len(calls) == 1


# one Monte-Carlo-like chunk: no jump and no probe peak, a probe peak but no
# strong candidate (no round 2), one jump, three jumps, and two Model II rows
# whose final levels differ
_CHUNK = [("zero", "GS", 0), ("zero", "ARMA", 6), ("I", "GS", 0), ("InP", "GS", 0),
          ("II", "PLS", 0), ("II", "PLS", 1)]


def test_batched_pass_matches_one_row_detection():

    cfg = ScaleConfig(0.061, 0.167, 0.03)
    scenarios = [PlsScenario.make(mean, noise, n=500, seed=seed) for mean, noise, seed in _CHUNK]
    ymat = np.vstack([gen_series(sc)[0] for sc in scenarios])
    results, infos = tuning._detect_rows(ymat, _multiscale_fields(ymat, cfg, W), "auto")
    for y, res, info in zip(ymat, results, infos):
        one, one_info = auto_detect(y, W, cfg=cfg, alpha="auto")
        assert res.to_dict() == one.to_dict()
        assert res.to_dict() == detect_pipeline(y, cfg, W, alpha=info["alpha"]).to_dict()
        assert one_info == {"config": cfg, "field": one_info["field"], **info}
    assert [r.count for r in results] == [0, 0, 1, 3, 2, 2]
    assert len({info["alpha"] for info in infos}) == 4
    probe = detect.mjpd_detect(
        multiscale_field(ymat[1], cfg, W),
        detect._resolve_threshold("analytic", 0.10, cfg, W, 500, 0, 1)[0],
    )
    assert probe and "alpha_round2" not in infos[1]


@pytest.mark.parametrize(
    "y",
    [step_series(500, 2.5, seed=29), step_series(500, 1.2, seed=3),
     np.random.default_rng(8).standard_normal(500)],
    ids=["strong-step", "weak-step", "null"],
)
def test_auto_detect_is_one_pipeline_pass_at_its_level(y):
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    res, info = auto_detect(y, W, cfg=cfg, alpha="auto")
    again = detect_pipeline(y, cfg, W, alpha=info["alpha"])
    assert res.to_dict() == again.to_dict()


def test_auto_detect_calibrates_only_its_chosen_scales(monkeypatch):
    cfgs = []
    calibrate = detect.fs_correction

    def recording(n, cfg, *args, **kwargs):
        cfgs.append(cfg)
        return calibrate(n, cfg, *args, **kwargs)

    monkeypatch.setattr(detect, "fs_correction", recording)
    _, info = auto_detect(step_series(600, 4.0, seed=31), W, cfg=None, alpha="auto")
    assert cfgs
    assert all(cfg == info["config"] for cfg in cfgs)


@pytest.mark.parametrize("mode", ["bootstrap:200", "fixed:4.0"])
def test_scale_sweep_ignores_the_detection_mode(mode, monkeypatch):
    # a sweep at fixed:4.0 would pick other scales for this series
    y = step_series(600, 2.0, seed=31)
    _, want = auto_detect(y, W, cfg=None, alpha=0.05)
    cfgs = []
    simulate = detect.bootstrap_cv

    def recording(alpha, n, cfg, *args, **kwargs):
        cfgs.append(cfg)
        return simulate(alpha, n, cfg, *args, **kwargs)

    monkeypatch.setattr(detect, "bootstrap_cv", recording)
    _, info = auto_detect(y, W, cfg=None, alpha=0.05, threshold_mode=mode)
    assert info["config"] == want["config"]
    assert cfgs == ([want["config"]] if mode == "bootstrap:200" else [])


@pytest.fixture()
def no_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("filtered the series before checking the arguments")

    monkeypatch.setattr(tuning, "multiscale_field", fail)
    monkeypatch.setattr(tuning, "filter_bank", fail)
    monkeypatch.setattr(tuning, "_field_batch", fail)


@pytest.mark.parametrize("mode", ["fixed", "fixed:", "fixedfoo:3", "analytic:1", "bootstrap:abc"])
def test_auto_detect_rejects_malformed_mode_before_any_work(mode, no_work):
    with pytest.raises(ValueError, match="threshold mode"):
        auto_detect(step_series(500, 3.0, seed=4), W, cfg=None, alpha=0.05, threshold_mode=mode)


@pytest.mark.parametrize("alpha", [0.7, 0.0, "abc"])
def test_auto_detect_rejects_bad_level_before_any_work(alpha, no_work):
    with pytest.raises(ValueError, match="alpha must be 'auto' or lie in"):
        auto_detect(step_series(500, 3.0, seed=4), W, cfg=None, alpha=alpha)


def test_auto_detect_returns_the_field_of_its_filter():
    from jumpscan.filters import construct_beta_filter

    # the built-in filter's field of this series has no peak above the beta threshold
    y, _ = gen_series(PlsScenario.make("II", "PLS", n=500, seed=7))
    beta, _ = construct_beta_filter(2, 50)
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    res, info = auto_detect(y, beta, cfg=cfg, alpha=0.05)
    assert info["field"].filt == beta and info["field"].cfg == cfg
    assert res.count == 2
    assert res.to_dict() == detect_pipeline(y, cfg, beta, alpha=0.05).to_dict()


def test_auto_detect_fixed_level_is_detect_pipeline():
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    y = step_series(500, 2.5, seed=29)
    res, info = auto_detect(y, W, cfg=cfg, alpha=0.05)
    again = detect_pipeline(y, cfg, W, alpha=0.05)
    assert info["alpha"] == 0.05
    assert [j.location for j in res.jumps_raw] == [j.location for j in again.jumps_raw]
    assert res.jumps_refined == again.jumps_refined
    assert res.threshold == again.threshold


# levels and counts of the automatic level, recorded before select_alpha read
# the ratio directly: (alpha_round1, alpha_round2, count) per seed 0..3
_PINNED_LEVELS = {
    "I:GS": [(0.001, 0.001, 1), (0.001, 0.001, 1), (0.001, 0.07, 1), (0.001, 0.001, 1)],
    "II:PLS": [(0.001, 0.121, 2), (0.001, 0.012, 2), (0.001, 0.16, 2), (0.001, 0.149, 2)],
    "II:ARMA": [
        (0.001, 0.007, 2),
        (0.001, 0.016, 2),
        (0.001, 0.009000000000000001, 2),
        (0.001, 0.060000000000000005, 2),
    ],
}


@pytest.mark.parametrize("scenario", sorted(_PINNED_LEVELS))
def test_automatic_level_is_pinned(scenario):

    mean, noise = scenario.split(":")
    cfg = ScaleConfig(0.061, 0.167, 0.03)
    got = []
    for seed in range(4):
        y, _ = gen_series(PlsScenario.make(mean, noise, n=500, seed=seed))
        res, info = auto_detect(y, W, cfg=cfg, alpha="auto")
        got.append((info["alpha_round1"], info.get("alpha_round2"), res.count))
    assert got == _PINNED_LEVELS[scenario]


def _digest(result: dict) -> str:
    """sha256 prefix of a result's JSON, floats to ten significant digits.

    The rounding keeps the pin clear of last-bit differences between FFT builds.
    """
    def rounded(v):
        if isinstance(v, float):
            return float(f"{v:.10g}")
        if isinstance(v, dict):
            return {k: rounded(x) for k, x in v.items()}
        if isinstance(v, list):
            return [rounded(x) for x in v]
        return v

    text = json.dumps(rounded(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# the automatic level on unit-scale series at three lengths, fixed:4.0 from
# n = 5000 so that no calibration runs: (alpha_round1, alpha_round2, count,
# _digest of the result) per scenario for seeds 0 and 1
_PINNED_LENGTHS = {
    500: (
        ScaleConfig(0.061, 0.167, 0.03),
        "analytic",
        {
            "I:GS": [(0.001, 0.001, 1, "4b948047a17e9ad1"), (0.001, 0.001, 1, "42d91a2e44c374b0")],
            "II:PLS": [(0.001, 0.121, 2, "200f5eb3a450740a"), (0.001, 0.012, 2, "00c25c42f2d1317b")],
            "zero:ARMA": [
                (0.001, 0.10300000000000001, 1, "c0f63a13b2647971"),
                (0.001, None, 0, "fcb5b543d5e7df68"),
            ],
        },
    ),
    5000: (
        ScaleConfig(0.029, 0.08, 0.0145),
        "fixed:4.0",
        {
            "I:GS": [(0.001, 0.001, 1, "df5740e85b225e57"), (0.001, 0.001, 1, "6e6d0540979e7cbc")],
            "II:PLS": [(0.001, 0.001, 2, "f26c6d570154e8ba"), (0.001, 0.154, 3, "0aeacbf9903d2a1e")],
            "zero:ARMA": [(0.001, 0.098, 1, "189a33fc2c9640dd"), (0.001, None, 0, "285bb3edea6dad58")],
        },
    ),
    20000: (
        ScaleConfig(0.018, 0.063, 0.009),
        "fixed:4.0",
        {
            "I:GS": [(0.001, 0.001, 1, "98502cd5310e4ece"), (0.001, 0.001, 1, "c03054f6f2f0fcef")],
            "II:PLS": [(0.001, 0.001, 2, "c2643fe144d4d0f4"), (0.001, 0.001, 2, "b2b7014ea78cf95f")],
            "zero:ARMA": [(0.001, None, 0, "6a0da8f24e6fef75"), (0.001, None, 0, "6a0da8f24e6fef75")],
        },
    ),
}


@pytest.mark.parametrize("n", sorted(_PINNED_LENGTHS))
def test_automatic_level_is_pinned_across_lengths(n):

    cfg, mode, pinned = _PINNED_LENGTHS[n]
    for scenario, want in pinned.items():
        got = []
        for seed in range(2):
            y, _ = gen_series(PlsScenario.make(*scenario.split(":"), n=n, seed=seed))
            res, info = auto_detect(y, W, cfg=cfg, alpha="auto", threshold_mode=mode)
            got.append(
                (info["alpha_round1"], info.get("alpha_round2"), res.count, _digest(res.to_dict()))
            )
        assert got == want, scenario


# the series of both pin tests, with their own configuration and mode, and
# zero:GS seed 1, whose level once moved under 0.1 y: (scenario, n, seed) -> (cfg, mode)
_INVARIANCE_SERIES = {
    **{(scenario, 500, seed): (ScaleConfig(0.061, 0.167, 0.03), "analytic")
       for scenario in _PINNED_LEVELS for seed in range(4)},
    **{(scenario, n, seed): (cfg, mode)
       for n, (cfg, mode, pinned) in _PINNED_LENGTHS.items()
       for scenario in pinned for seed in range(2)},
    ("zero:GS", 500, 1): (ScaleConfig(0.061, 0.167, 0.03), "analytic"),
}
# (c, d) of c y + d; at c = 1e-6 an offset of 10 leaves FFT round-off in
# proportion to max|y| of ~1e-9 relative in G, so offsets start at c = 1e-3
_AFFINE = [(c, 0.0) for c in (1e-6, 1e-3, 0.03, 0.1, 0.3, 1e3, 1e6)] + [
    (c, 10.0) for c in (1e-3, 0.03, 0.1, 0.3, 1e3, 1e6)
]


def _assert_same_detection(res, info, want, want_info):
    assert info["alpha"] == want_info["alpha"]
    assert info.get("alpha_round2") == want_info.get("alpha_round2")
    assert res.count == want.count
    assert [j.location for j in res.jumps_raw] == [j.location for j in want.jumps_raw]
    assert res.jumps_refined == want.jumps_refined
    np.testing.assert_allclose(
        [j.g_value for j in res.jumps_raw], [j.g_value for j in want.jumps_raw], rtol=1e-9
    )


@pytest.mark.parametrize(
    "key", sorted(_INVARIANCE_SERIES), ids=lambda k: f"{k[0]}-n{k[1]}-seed{k[2]}"
)
def test_automatic_level_is_affine_invariant(key):
    scenario, n, seed = key
    cfg, mode = _INVARIANCE_SERIES[key]
    y, _ = gen_series(PlsScenario.make(*scenario.split(":"), n=n, seed=seed))
    want, want_info = auto_detect(y, W, cfg=cfg, alpha="auto", threshold_mode=mode)
    for c, d in _AFFINE:
        res, info = auto_detect(c * y + d, W, cfg=cfg, alpha="auto", threshold_mode=mode)
        _assert_same_detection(res, info, want, want_info)


@pytest.mark.parametrize("scenario", ["I:GS", "II:PLS", "zero:ARMA"])
def test_automatic_scales_and_level_are_scale_invariant(scenario):
    for seed in range(2):
        y, _ = gen_series(PlsScenario.make(*scenario.split(":"), n=500, seed=seed))
        want, want_info = auto_detect(y, W, cfg=None, alpha="auto")
        for c in (1e-3, 0.1, 1e3):
            res, info = auto_detect(c * y, W, cfg=None, alpha="auto")
            assert info["config"] == want_info["config"]
            _assert_same_detection(res, info, want, want_info)

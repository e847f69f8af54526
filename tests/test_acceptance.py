"""Acceptance gate: every release criterion, one test per criterion.

Each test prints a PASS/FAIL line so a plain pytest run doubles as the
acceptance report.  Tolerances are fixed here, not tuned at run time.
Reference critical values and hit/MAD targets are desk-scale versions of
the large reference experiments (200-400 replications instead of 2000).
"""

import math
import time

import numpy as np
import pytest

from jumpscan.cli import LADDER
from jumpscan.convolve import brute_filtered_series, fast_filtered_series
from jumpscan.detect import detect_pipeline, mjpd_detect
from jumpscan.field import ScaleConfig, multiscale_field, scale_grid
from jumpscan.filters import builtin_wstar, legendre_optimizer_coeffs, moments, verify_order
from jumpscan.simulate import DetectorSpec, PlsScenario, gen_series, monte_carlo
from jumpscan.threshold import bootstrap_cv, critical_value, fs_correction, tail_constants
from jumpscan.util import rng_for

W = builtin_wstar()

CV_TABLE = {  # n: (s_lower, s_upper, c10, c05, c01)
    500: (0.061, 0.167, 3.530, 3.735, 4.170),
    1000: (0.043, 0.125, 3.672, 3.870, 4.289),
    1500: (0.036, 0.100, 3.742, 3.935, 4.349),
    2000: (0.031, 0.100, 3.800, 3.990, 4.397),
    2500: (0.028, 0.083, 3.828, 4.017, 4.422),
    3000: (0.026, 0.071, 3.850, 4.037, 4.439),
    3500: (0.024, 0.071, 3.879, 4.066, 4.466),
    4000: (0.023, 0.062, 3.895, 4.080, 4.478),
    4500: (0.022, 0.062, 3.913, 4.098, 4.494),
    5000: (0.020, 0.056, 3.942, 4.125, 4.518),
}
SIM_TABLE = {  # n: (alpha -> simulated reference value)
    500: {0.10: 3.576, 0.05: 3.766, 0.01: 4.132},
    5000: {0.10: 3.978, 0.05: 4.166, 0.01: 4.587},
}

# denominator scale used by the desk-scale experiments: the smallest
# admissible candidate of the data-driven ladder, (1/6) n^(-1/2) log^(1/2) n
def _s_star(n):
    return (1.0 / 6.0) * n ** -0.5 * math.log(n) ** 0.5


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_critical_value_table():
    t0 = time.perf_counter()
    worst = 0.0
    for n, (sl, su, *cs) in CV_TABLE.items():
        tc = tail_constants(W, sl, su)
        for alpha, ref in zip((0.10, 0.05, 0.01), cs):
            worst = max(worst, abs(critical_value(alpha, tc) - ref))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (critical values, 30 cells)",
        worst <= 0.01 and elapsed < 1.0,
        f"max |error| = {worst:.4f} (limit 0.01), runtime {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_2_bootstrap_agreement():
    worst_sim = worst_analytic = 0.0
    for n in (500, 5000):
        sl, su, *cs = CV_TABLE[n]
        cfg = ScaleConfig(sl, su, _s_star(n))
        tc = tail_constants(W, sl, su)
        tol_sim = 0.08 if n == 500 else 0.12
        for alpha, ref_c in zip((0.10, 0.05, 0.01), cs):
            bcv = bootstrap_cv(alpha, n, cfg, W, B=2000, seed=1234, threads=4)
            worst_sim = max(worst_sim, abs(bcv - SIM_TABLE[n][alpha]) - tol_sim + 0.12)
            gap = abs(bcv - critical_value(alpha, tc))
            worst_analytic = max(worst_analytic, gap)
    _report(
        "criterion 2 (bootstrap vs analytic/reference)",
        worst_analytic <= 0.12 and worst_sim <= 0.12,
        f"max |bootstrap - analytic| = {worst_analytic:.3f} (limit 0.12); "
        f"max |bootstrap - reference| - tolerance + 0.12 = {worst_sim:.3f} (limit 0.12)",
    )


def test_criterion_3_filter_audit():
    sn = moments(W).sn
    rep = verify_order(W, 2)
    a = legendre_optimizer_coeffs(4, 200_000)
    ok = (
        abs(sn - 0.446) <= 1e-3
        and rep.ok
        and abs(a[2] - 35.0 / 9.0) <= 1e-8
        and abs(a[3] - 7.0 / 9.0) <= 1e-8
    )
    _report(
        "criterion 3 (filter audit)",
        ok,
        f"SN = {sn:.4f}, order-2 checks {'ok' if rep.ok else 'FAIL'}, "
        f"a2 err {abs(a[2] - 35 / 9):.1e}, a3 err {abs(a[3] - 7 / 9):.1e}",
    )


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        rng = rng_for(4242, k)
        n = int(rng.integers(100, 4001))
        h = int(rng.integers(2, n // 2 + 1))
        s = min((h + rng.uniform(0, 1)) / n, 0.5)
        y = rng.standard_normal(n) * 10.0 ** float(rng.integers(-2, 3))
        fast = fast_filtered_series(y, s, W).values
        brute = brute_filtered_series(y, s, W).values
        worst = max(worst, float(np.max(np.abs(fast - brute) / (1 + np.abs(brute)))))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (fast vs brute, 50 configs)",
        worst <= 1e-8 and elapsed < 30,
        f"max rel deviation = {worst:.2e} (limit 1e-8), runtime {elapsed:.1f}s (limit 30s)",
    )


# desk-scale Monte Carlo configuration for n=500 detection experiments
MC_CFG = ScaleConfig(s_lower=0.061, s_upper=0.20, s_star=0.03)


@pytest.mark.parametrize("noise", ["GS", "ARMA", "PS", "LS", "PLS"])
def test_criterion_5_model_I(noise):
    det = DetectorSpec(cfg=MC_CFG, alpha="auto")
    m = monte_carlo(PlsScenario.make("I", noise, n=500), det, R=200, seed=3, threads=4)
    ok = m["hit_rate"] >= 0.95 and m["mad_refined"] <= 5e-3 and m["mad_raw"] <= 5e-3
    _report(
        f"criterion 5 (Model I + {noise})",
        ok,
        f"hit = {m['hit_rate']:.3f} (>= 0.95), MAD raw/refined = "
        f"{m['mad_raw']:.4f}/{m['mad_refined']:.4f} (<= 0.005)",
    )


@pytest.mark.parametrize("noise", ["GS", "ARMA", "PS", "LS", "PLS"])
def test_criterion_5_model_II(noise):
    det = DetectorSpec(cfg=MC_CFG, alpha="auto")
    m = monte_carlo(PlsScenario.make("II", noise, n=500), det, R=200, seed=3, threads=4)
    ok = m["hit_rate"] >= 0.93 and m["mad_refined"] <= 5e-3
    _report(
        f"criterion 5 (Model II + {noise})",
        ok,
        f"hit = {m['hit_rate']:.3f} (>= 0.93), MAD refined = {m['mad_refined']:.4f}",
    )


@pytest.mark.parametrize("n,alpha,lo,hi", [
    (500, 0.05, 0.025, 0.10),
    (1000, 0.05, 0.025, 0.10),
    (500, 0.10, 0.06, 0.16),
    (1000, 0.10, 0.06, 0.16),
])
def test_criterion_6_type_one_error(n, alpha, lo, hi):
    sl, su, *_ = CV_TABLE[n]
    cfg = ScaleConfig(sl, su, _s_star(n))
    det = DetectorSpec(cfg=cfg, alpha=alpha)
    sc = PlsScenario.make("smooth_shift", n=n, d=0.0)
    m = monte_carlo(sc, det, R=400, seed=77, threads=4)
    reject = 1.0 - m["hit_rate"]  # truth is empty, so any detection rejects
    _report(
        f"criterion 6 (type I, n={n}, alpha={alpha})",
        lo <= reject <= hi,
        f"rejection = {reject:.4f} (target [{lo}, {hi}])",
    )


@pytest.mark.parametrize("n", [1000, 2000])
def test_criterion_7_second_stage_gain(n):
    sl, su, *_ = CV_TABLE[n]
    cfg = ScaleConfig(sl, su, _s_star(n))
    det = DetectorSpec(cfg=cfg, alpha="auto")
    m = monte_carlo(PlsScenario.make("increasing", n=n), det, R=200, seed=11, threads=4)
    raw, ref = m["mad_raw_median"], m["mad_refined_median"]
    ok = m["hit_rate"] >= 0.9 and ref < raw and ref <= 0.6 * raw
    _report(
        f"criterion 7 (refinement gain, n={n})",
        ok,
        f"hit = {m['hit_rate']:.3f}, median MAD raw = {raw:.5f}, refined = {ref:.5f} "
        f"(need refined <= 0.6 * raw)",
    )


def test_criterion_8_performance():
    n = 5000
    sl, su, *_ = CV_TABLE[n]
    # 26-scale grid: slightly denser than the default floor(log n)^1.5 = 24
    eps = math.log(26.99) / math.log(math.log(n)) - 1.0
    cfg = ScaleConfig(sl, su, _s_star(n), grid_eps=eps)
    assert len(scale_grid(n, cfg)) == 26
    y, _ = gen_series(PlsScenario.make("increasing", n=n, seed=5))

    # per-scale cost and doubling ratio
    per_scale = {}
    for m in (1000, 2000, 4000):
        ym = y[:m]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for s in scale_grid(m, ScaleConfig(0.043, 0.125, 0.02)):
                fast_filtered_series(ym, s, W)
            best = min(best, time.perf_counter() - t0)
        per_scale[m] = best / len(scale_grid(m, ScaleConfig(0.043, 0.125, 0.02)))
    ratios = [per_scale[2000] / per_scale[1000], per_scale[4000] / per_scale[2000]]

    fs_correction(n, cfg, W)  # per-configuration calibration, cached like a table
    best_total = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        res = detect_pipeline(y, cfg, W, alpha=0.05, threads=1)
        best_total = min(best_total, time.perf_counter() - t0)
    ok = (
        best_total < 5.0
        and per_scale[4000] < 1.0
        and all(r <= 2.4 for r in ratios)
    )
    _report(
        "criterion 8 (performance)",
        ok,
        f"pipeline n=5000/26 scales: {best_total:.2f}s (<5s); per-scale doubling "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (<=2.4); detected {res.count} jumps",
    )


def test_criterion_9_property_suite():
    rng = rng_for(99)
    y = rng.standard_normal(600)
    checks = {}

    checks["oddness"] = all(W.eval(-x) == -W.eval(x) for x in np.linspace(0, 2, 50))

    f1 = fast_filtered_series(y, 0.1, W).values
    f2 = fast_filtered_series(2.0 * y + 0.0, 0.1, W).values
    checks["linearity"] = np.allclose(f2, 2 * f1, rtol=1e-9, atol=1e-9)

    fs = fast_filtered_series(y + 7.0, 0.1, W)
    checks["constant kill"] = np.allclose(
        fs.values[fs.valid], f1[fs.valid], rtol=0, atol=1e-8
    )

    cfg = ScaleConfig(0.061, 0.167, 0.03)
    fld1 = multiscale_field(y, cfg, W)
    fld2 = multiscale_field(5.0 * y, cfg, W)
    checks["scaling invariance of G"] = np.allclose(
        fld1.g[fld1.valid], fld2.g[fld2.valid], rtol=1e-10
    )

    t = (np.arange(600) + 1) / 600
    step = 3.0 * (t > 0.5) + rng.standard_normal(600)
    r1 = detect_pipeline(step, cfg, W, threshold_mode="fixed:4.0")
    r2 = detect_pipeline(0.2 * step, cfg, W, threshold_mode="fixed:4.0")
    checks["scaling invariance of locations"] = [j.location for j in r1.jumps_raw] == [
        j.location for j in r2.jumps_raw
    ]

    fld3 = multiscale_field(step, cfg, W)
    locs = [j.location for j in mjpd_detect(fld3, 3.0)]
    checks["separation"] = all(b - a > cfg.s_upper for a, b in zip(locs, locs[1:]))
    lo = mjpd_detect(fld3, 3.0)
    hi = mjpd_detect(fld3, 4.5)
    checks["threshold monotone"] = {j.location for j in hi} <= {j.location for j in lo}

    sc = PlsScenario.make("II", "PLS", n=500, seed=21)
    ya, _ = gen_series(sc)
    yb, _ = gen_series(sc)
    checks["seed reproducibility"] = np.array_equal(ya, yb)

    bad = [k for k, v in checks.items() if not v]
    _report("criterion 9 (property suite)", not bad, f"failing: {bad or 'none'}")

#!/usr/bin/env python3
"""The paper's simulation studies as one seeded table of rows.

Each row of ROWS is one printed line of metrics:
  critical_values  analytic c(alpha) of a LADDER row; with --bootstrap B also
                   sim(alpha), the Gaussian-multiplier value at B replicates
  desk             hit rate, mean jump count and location error before and
                   after refinement: Models I/II x five noises, `increasing`
  null_size        rejection rate on the jump-free smooth trend

    python scripts/study.py                                 # every row
    python scripts/study.py --reps 50 --threads 2           # a smoke run
    python scripts/study.py --only critical_values --bootstrap 2000
"""

import argparse

from jumpscan.cli import LADDER
from jumpscan.field import ScaleConfig
from jumpscan.filters import builtin_wstar
from jumpscan.simulate import DetectorSpec, PlsScenario, gen_series, monte_carlo
from jumpscan.threshold import bootstrap_cv, critical_value, tail_constants
from jumpscan.tuning import min_s_star

ALPHAS = (0.1, 0.05, 0.01)
DIGITS = {"mad_raw": 5, "mad_refined": 5, "rejection": 4}  # every other metric: 3


def ladder(n):
    """The LADDER scales at n with the smallest denominator scale."""
    _, sl, su = next(row for row in LADDER if row[0] == n)
    return ScaleConfig(sl, su, min_s_star(n))


def mc(study, mean, noise, n, cfg, alpha, R, seed):
    """A Monte-Carlo row: R replicates of the scenario from ``seed``."""
    sc = PlsScenario.make(mean, noise, n=n)
    return dict(study=study, n=n, cfg=cfg, scenario=sc, alpha=alpha, R=R, seed=seed)


ROWS = [
    *({"study": "critical_values", "n": n, "cfg": ladder(n)} for n, _, _ in LADDER),
    *(mc("desk", mean, noise, 500, ScaleConfig(0.061, 0.20, 0.03), "auto", 200, 3)
      for mean in ("I", "II") for noise in ("GS", "ARMA", "PS", "LS", "PLS")),
    *(mc("desk", "increasing", None, n, ladder(n), "auto", 200, 11) for n in (1000, 2000)),
    *(mc("null_size", "smooth_shift", None, n, ladder(n), alpha, 400, 77)
      for n in (500, 1000) for alpha in (0.05, 0.10)),
]


def rows_for(only=None, reps=None):
    """The ROWS of the studies in ``only`` (default: all), R replaced by ``reps``."""
    rows = [row for row in ROWS if only is None or row["study"] in only]
    return [dict(row, R=reps) if reps and "R" in row else row for row in rows]


def run(row, bootstrap=0, threads=4):
    """The metrics of one row, by name."""
    cfg, filt = row["cfg"], builtin_wstar()
    if row["study"] == "critical_values":
        tc = tail_constants(filt, cfg.s_lower, cfg.s_upper)
        out = {f"c({a})": critical_value(a, tc) for a in ALPHAS}
        if bootstrap:
            for a in ALPHAS:
                out[f"sim({a})"] = bootstrap_cv(a, row["n"], cfg, filt, B=bootstrap,
                                                seed=1234, threads=threads)
        return out
    det = DetectorSpec(cfg=cfg, alpha=row["alpha"])
    m = monte_carlo(row["scenario"], det, R=row["R"], seed=row["seed"], threads=threads)
    if row["study"] == "null_size":
        return {"rejection": 1.0 - m["hit_rate"]}  # no true jump: any detection rejects
    return {k: m[k] for k in ("hit_rate", "mean_m", "mad_raw", "mad_refined")}


def describe(row):
    """What a row runs, as the start of its printed line."""
    cfg = row["cfg"]
    text = (f"{row['study']:<15} n={row['n']:<5}"
            f" scales=({cfg.s_lower:.3f}, {cfg.s_upper:.3f}, {cfg.s_star:.4f})")
    if "scenario" in row:
        sc = row["scenario"]
        text += (f" {sc.mean_model}:{sc.noise_model} jumps={len(gen_series(sc)[1])}"
                 f" alpha={row['alpha']} R={row['R']} seed={row['seed']}")
    return text


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--only", type=lambda s: s.split(","),
                    help="comma list of studies (default: all)")
    ap.add_argument("--reps", type=int, help="R of every Monte-Carlo row (default: the row's own)")
    ap.add_argument("--bootstrap", type=int, default=0, metavar="B",
                    help="also simulate the critical values with B multiplier replicates")
    ap.add_argument("--threads", type=int, default=4, help="worker processes")
    args = ap.parse_args(argv)
    unknown = set(args.only or ()) - {row["study"] for row in ROWS}
    if unknown:
        ap.error(f"unknown studies: {', '.join(sorted(unknown))}")
    for row in rows_for(args.only, args.reps):
        cells = run(row, args.bootstrap, args.threads)
        print(describe(row), *(f"{k}={v:.{DIGITS.get(k, 3)}f}" for k, v in cells.items()))


if __name__ == "__main__":
    main()

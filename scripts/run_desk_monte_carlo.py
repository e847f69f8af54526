#!/usr/bin/env python3
"""Desk-scale Monte-Carlo study: detection quality across noise models.

Runs the two n=500 mean models against each noise process and the
growing-sample scenario, printing hit rates and localization error before
and after the second-stage refinement.
"""

import argparse

from jumpscan.cli import LADDER
from jumpscan.field import ScaleConfig
from jumpscan.simulate import DetectorSpec, PlsScenario, increasing_jump_count, monte_carlo
from jumpscan.tuning import min_s_star


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()

    cfg500 = ScaleConfig(s_lower=0.061, s_upper=0.20, s_star=0.03)
    det500 = DetectorSpec(cfg=cfg500, alpha="auto")
    print("mean  noise  hit     mean_m  mad_raw   mad_refined")
    for mean in ("I", "II"):
        for noise in ("GS", "ARMA", "PS", "LS", "PLS"):
            m = monte_carlo(
                PlsScenario.make(mean, noise, n=500), det500,
                R=args.reps, seed=args.seed, threads=args.threads,
            )
            print(
                f"{mean:<5} {noise:<6} {m['hit_rate']:<7.3f} {m['mean_m']:<7.3f} "
                f"{m['mad_raw']:<9.5f} {m['mad_refined']:.5f}"
            )

    print("\ngrowing-sample scenario (jump count rises, sizes shrink):")
    print("n      jumps  hit     mad_raw   mad_refined")
    for n, sl, su in (row for row in LADDER if row[0] in (1000, 2000)):
        cfg = ScaleConfig(sl, su, min_s_star(n))
        det = DetectorSpec(cfg=cfg, alpha="auto")
        sc = PlsScenario.make("increasing", n=n)
        m = monte_carlo(sc, det, R=args.reps, seed=11, threads=args.threads)
        print(
            f"{n:<6} {increasing_jump_count(n):<6d} {m['hit_rate']:<7.3f} "
            f"{m['mad_raw']:<9.5f} {m['mad_refined']:.5f}"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Null calibration study: rejection rates on the smooth-trend model.

Simulates the jump-free smooth scenario and reports how often the detector
flags at least one jump, at nominal levels 5% and 10%.
"""

import argparse

from jumpscan.cli import LADDER
from jumpscan.field import ScaleConfig
from jumpscan.simulate import DetectorSpec, PlsScenario, monte_carlo
from jumpscan.tuning import min_s_star


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=400)
    ap.add_argument("--sizes", default="500,1000")
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()

    scales = {n: (sl, su) for n, sl, su in LADDER}
    print("n      alpha  rejection")
    for n in (int(s) for s in args.sizes.split(",")):
        sl, su = scales[n]
        cfg = ScaleConfig(sl, su, min_s_star(n))
        for alpha in (0.05, 0.10):
            det = DetectorSpec(cfg=cfg, alpha=alpha)
            m = monte_carlo(
                PlsScenario.make("smooth_shift", n=n, d=0.0), det,
                R=args.reps, seed=77, threads=args.threads,
            )
            print(f"{n:<6} {alpha:<6} {1.0 - m['hit_rate']:.4f}")


if __name__ == "__main__":
    main()

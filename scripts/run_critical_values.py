#!/usr/bin/env python3
"""Print the analytic critical-value table and compare with the bootstrap.

Reproduces the reference layout: one row per (n, s_lower, s_upper), one
column per level.  With --bootstrap the Gaussian-multiplier value at
B replicates is printed next to each analytic entry.
"""

import argparse

from jumpscan.cli import LADDER
from jumpscan.field import ScaleConfig
from jumpscan.filters import builtin_wstar
from jumpscan.threshold import bootstrap_cv, critical_value, tail_constants
from jumpscan.tuning import min_s_star


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", default="0.1,0.05,0.01")
    ap.add_argument("--bootstrap", type=int, default=0, metavar="B",
                    help="also simulate with B multiplier replicates")
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()

    filt = builtin_wstar()
    alphas = [float(a) for a in args.alphas.split(",")]
    header = "n      s_low   s_up   " + "   ".join(f"c({a})" for a in alphas)
    if args.bootstrap:
        header += "   " + "   ".join(f"sim({a})" for a in alphas)
    print(header)
    for n, sl, su in LADDER:
        tc = tail_constants(filt, sl, su)
        cells = [f"{critical_value(a, tc):.3f}" for a in alphas]
        if args.bootstrap:
            cfg = ScaleConfig(sl, su, min_s_star(n))
            cells += [
                f"{bootstrap_cv(a, n, cfg, filt, B=args.bootstrap, seed=args.seed, threads=args.threads):.3f}"
                for a in alphas
            ]
        print(f"{n:<6} {sl:<7.3f} {su:<6.3f} " + "   ".join(cells))


if __name__ == "__main__":
    main()

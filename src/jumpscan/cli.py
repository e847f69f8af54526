"""Command-line interface: detect, calibrate, tune, simulate, montecarlo."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .detect import _level
from .field import MIN_N, ScaleConfig
from .filters import builtin_wstar, load_filter
from .simulate import DetectorSpec, PlsScenario, gen_series, monte_carlo
from .threshold import critical_value, tail_constants
from .tuning import auto_detect, select_s_star

EXIT_BAD_INPUT = 2
EXIT_BAD_CONFIG = 3

# Reference ladder of scale pairs by sample size (used by `calibrate` and as
# the `montecarlo` default).
LADDER = [
    (500, 0.061, 0.167),
    (1000, 0.043, 0.125),
    (1500, 0.036, 0.100),
    (2000, 0.031, 0.100),
    (2500, 0.028, 0.083),
    (3000, 0.026, 0.071),
    (3500, 0.024, 0.071),
    (4000, 0.023, 0.062),
    (4500, 0.022, 0.062),
    (5000, 0.020, 0.056),
]


class CliError(Exception):
    def __init__(self, msg, code):
        super().__init__(msg)
        self.code = code


def _read_series(path) -> np.ndarray:
    vals = []
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT) from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            fields = [f for f in s.replace(",", " ").split() if f]
            if lineno == 1 and fields and not _is_number(fields[0]):
                continue  # header
            if len(fields) != 1:
                raise CliError(f"{path}: line {lineno}: expected one column, got {len(fields)}", EXIT_BAD_INPUT)
            try:
                v = float(fields[0])
            except ValueError as exc:
                raise CliError(f"{path}: line {lineno}: not a number: {fields[0]!r}", EXIT_BAD_INPUT) from exc
            if not math.isfinite(v):
                raise CliError(f"{path}: line {lineno}: non-finite value", EXIT_BAD_INPUT)
            vals.append(v)
    if len(vals) < MIN_N:
        raise CliError(f"{path}: need at least {MIN_N} observations, got {len(vals)}", EXIT_BAD_INPUT)
    return np.array(vals)


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _threads(args) -> int:
    """``--threads``, else ``JUMPSCAN_THREADS``, else 1; a count below 1 is an error."""
    name, text = "--threads", args.threads
    if text is None:
        name, text = "JUMPSCAN_THREADS", os.environ.get("JUMPSCAN_THREADS") or "1"
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise CliError(f"{name} must be an integer >= 1, got {text!r}", EXIT_BAD_CONFIG)
    return threads


def _alpha(text):
    """The level of ``--alpha``: ``"auto"`` or a float in (0, 0.5)."""
    try:
        return _level(text)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_CONFIG) from exc


def _filter_from(args):
    if getattr(args, "filter", None):
        try:
            return load_filter(args.filter)
        except Exception as exc:
            raise CliError(f"bad filter file {args.filter}: {exc}", EXIT_BAD_CONFIG) from exc
    return builtin_wstar()


def _parse_scenario(text, n, seed):
    parts = text.split(":")
    mean = parts[0]
    try:
        if mean == "smooth_shift":
            d = float(parts[1]) if len(parts) > 1 else 0.0
            noise = parts[2] if len(parts) > 2 else None
            return PlsScenario.make(mean, noise, n=n, seed=seed, d=d)
        noise = parts[1] if len(parts) > 1 else None
        return PlsScenario.make(mean, noise, n=n, seed=seed)
    except (ValueError, KeyError) as exc:
        raise CliError(f"bad scenario {text!r}: {exc}", EXIT_BAD_CONFIG) from exc


def _scales_from(args, y, filt):
    explicit = args.s_lower is not None or args.s_upper is not None
    if explicit:
        if args.s_lower is None or args.s_upper is None:
            raise CliError("provide both --s-lower and --s-upper (or neither)", EXIT_BAD_CONFIG)
        try:
            s_star = args.s_star
            if s_star is None:
                s_star = select_s_star(y, args.s_lower, args.s_upper, filt).chosen
            return ScaleConfig(args.s_lower, args.s_upper, s_star, args.grid_eps)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_BAD_CONFIG) from exc
    return None  # auto


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_detect(args) -> int:
    threads = _threads(args)
    filt = _filter_from(args)
    y = _read_series(args.input)
    alpha = _alpha(args.alpha)
    cfg = _scales_from(args, y, filt)
    try:
        res, info = auto_detect(
            y, filt, cfg=cfg, alpha=alpha,
            threshold_mode=args.threshold, seed=args.seed, threads=threads,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_CONFIG) from exc
    cfg = info["config"]
    field_ = info["field"]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    (out / f"{stem}_result.json").write_text(res.to_json(indent=1))

    t = field_.times()
    marks = np.zeros(len(y), dtype=int)
    for j in res.jumps_raw:
        marks[int(round(j.location * len(y))) - 1] = 1
    with open(out / f"{stem}_plot.csv", "w") as fh:
        fh.write("t,g,threshold,jump\n")
        for i in range(len(y)):
            g = field_.g[i] if field_.valid[i] else math.nan
            fh.write(f"{t[i]:.10g},{g:.10g},{res.threshold:.10g},{marks[i]}\n")
    if args.dump_stat:
        with open(out / f"{stem}_stat.csv", "w") as fh:
            fh.write("t,g\n")
            for i in np.flatnonzero(field_.valid):
                fh.write(f"{t[i]:.10g},{field_.g[i]:.10g}\n")

    print(f"n={len(y)}  scales=({cfg.s_lower:.4g}, {cfg.s_upper:.4g}, {cfg.s_star:.4g})")
    print(f"alpha={res.alpha}  threshold={res.threshold:.4f}")
    if res.jumps_raw:
        print(f"{res.count} jump(s):")
        for rj, ref in zip(res.jumps_raw, res.jumps_refined):
            print(f"  raw t={rj.location:.5f}  refined t={ref:.5f}  G={rj.g_value:.3f}  scale={rj.scale:.4g}")
    else:
        print("no jumps detected")
    return 0


def cmd_calibrate(args) -> int:
    filt = _filter_from(args)
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
        parts = [part.split(":") for part in args.rows.split(",")] if args.rows else LADDER
        rows = [(int(n_), float(sl), float(su)) for n_, sl, su in parts]
        tcs = [tail_constants(filt, sl, su) for _, sl, su in rows]
        table = [[critical_value(a, tc) for a in alphas] for tc in tcs]
    except ValueError as exc:
        raise CliError(f"bad --alphas or --rows: {exc}", EXIT_BAD_CONFIG) from exc
    print("n      s_lower  s_upper  " + "  ".join(f"c({a})" for a in alphas))
    for (n_, sl, su), cs in zip(rows, table):
        print(f"{n_:<6} {sl:<8.3f} {su:<8.3f} " + "  ".join(f"{c:.3f}" for c in cs))
    return 0


def cmd_tune(args) -> int:
    filt = _filter_from(args)
    y = _read_series(args.input)
    try:
        res, info = auto_detect(y, filt, alpha="auto")
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_CONFIG) from exc
    pair, star, cfg = info["scale_report"], info["s_star_report"], info["config"]
    print("scale-pair stability sweep:")
    for (a, b), s in zip(pair.candidates, pair.scores):
        mark = " <-- chosen" if (a, b) == pair.chosen else ""
        print(f"  s_lower={a:.4g} s_upper={b:.4g}  SE={s:.4g}{mark}")
    print("denominator-scale sweep:")
    for c, s in zip(star.candidates, star.scores):
        mark = " <-- chosen" if c == star.chosen else ""
        se = "inf" if not math.isfinite(s) else f"{s:.4g}"
        print(f"  s_star={c:.4g}  SE={se}{mark}")
    block = {
        "s_lower": cfg.s_lower, "s_upper": cfg.s_upper, "s_star": cfg.s_star,
        "alpha": res.alpha, "threshold": res.threshold,
    }
    print(json.dumps(block, indent=1))
    return 0


def cmd_simulate(args) -> int:
    sc = _parse_scenario(args.scenario, args.n, args.seed)
    try:
        y, truth = gen_series(sc)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_CONFIG) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = args.scenario.replace(":", "_")
    series_path = out / f"{stem}_n{args.n}_seed{args.seed}.csv"
    with open(series_path, "w") as fh:
        fh.write("y\n")
        for v in y:
            fh.write(f"{v:.12g}\n")
    sidecar = {
        "scenario": args.scenario,
        "n": args.n,
        "seed": args.seed,
        "jumps": [{"location": loc, "size": size} for loc, size in truth],
    }
    (series_path.with_suffix(".json")).write_text(json.dumps(sidecar, indent=1))
    print(f"wrote {series_path} ({len(y)} points, {len(truth)} jump(s))")
    return 0


def cmd_montecarlo(args) -> int:
    threads = _threads(args)
    filt = _filter_from(args)
    alpha = _alpha(args.alpha)
    sc = _parse_scenario(args.scenario, args.n, args.seed)
    if args.s_lower is None or args.s_upper is None:
        row = min(LADDER, key=lambda r: abs(r[0] - args.n))
        sl, su = row[1], row[2]
    else:
        sl, su = args.s_lower, args.s_upper
    try:
        s_star = args.s_star
        if s_star is None:
            probe, _ = gen_series(sc)
            s_star = select_s_star(probe, sl, su, filt).chosen
        cfg = ScaleConfig(sl, su, s_star, args.grid_eps)
        det = DetectorSpec(cfg=cfg, alpha=alpha, threshold_mode=args.threshold, filt=filt)
        metrics = monte_carlo(sc, det, R=args.reps, seed=args.seed, threads=threads)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_CONFIG) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = args.scenario.replace(":", "_")
    path = out / f"mc_{stem}_n{args.n}.csv"
    keys = ["hit_rate", "mean_m", "mad_raw", "mad_refined", "mad_raw_median",
            "mad_refined_median", "mean_runtime", "mean_gen_runtime"]
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        fh.write(",".join(f"{metrics[k]:.6g}" for k in keys) + "\n")
    for k in keys:
        print(f"{k}: {metrics[k]:.6g}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------

def _common_detect_flags(p):
    p.add_argument("--alpha", default="0.05", help="level in (0, 0.5) or 'auto'")
    p.add_argument("--s-lower", type=float, default=None)
    p.add_argument("--s-upper", type=float, default=None)
    p.add_argument("--s-star", type=float, default=None)
    p.add_argument("--grid-eps", type=float, default=0.5)
    p.add_argument("--filter", default=None, help="JSON filter file (default: built-in)")
    p.add_argument("--threshold", default="analytic",
                   help="analytic | bootstrap[:B] | fixed:C")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes for the bootstrap and montecarlo; results "
                   "are identical for any count (default: JUMPSCAN_THREADS or 1)")


def build_parser():
    ap = argparse.ArgumentParser(prog="jumpscan", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect jumps in a CSV series")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--dump-stat", action="store_true")
    _common_detect_flags(p)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("calibrate", help="print critical values for scale rows")
    p.add_argument("--alphas", default="0.1,0.05,0.01")
    p.add_argument("--rows", default=None, help="comma list n:s_lower:s_upper")
    p.add_argument("--filter", default=None)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("tune", help="data-driven scale and level selection")
    p.add_argument("--input", required=True)
    p.add_argument("--filter", default=None)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("simulate", help="write a synthetic series + truth sidecar")
    p.add_argument("--scenario", required=True,
                   help="mean[:noise], e.g. I:GS, II:PLS, increasing, smooth_shift:0.4")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("montecarlo", help="replicate a scenario and score detection")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--out", default=".")
    _common_detect_flags(p)
    p.set_defaults(fn=cmd_montecarlo)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

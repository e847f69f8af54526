"""Layered benchmark for jumpscan.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Runs one workload (see ``workloads.SPECS``) against the package under
``src/`` in a closed loop from one client for ``--seconds`` seconds and
checks every op's output against ``reference.json``.  Human-readable lines
(environment stamp, every metric with its unit, the tail percentile and the
quality scores) come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
time between an untraced loop and one with spans recorded around the
package's public functions (``spans.py``), and reports the per-layer metrics, the tracing
overhead (traced minus untraced ``latency_p50_s``) and a filter-bank/field
size sweep.  Full results, spans included, are written to
``.perfbench-out/`` at the end of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl
from spans import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = wl.ROOT / ".perfbench-out"

SETUP_REPEATS = 3
# Traced-only size sweep: the scale rows `jumpscan bench` uses at these n,
# thresholded with a fixed constant so no calibration runs.
SWEEP = {
    500: (0.061, 0.167, 0.01525),
    5000: (0.020, 0.056, 0.005),
    20000: (0.020, 0.056, 0.005),
    100000: (0.020, 0.056, 0.005),
}
SWEEP_THRESHOLD = "fixed:4.0"
SWEEP_REPEATS = 3
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "JUMPSCAN_THREADS")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_once(spec, tracer=None):
    """Package import plus the workload's calibration pre-warm, timed."""
    t0 = time.perf_counter()
    import jumpscan  # noqa: F401  (first import in this process)

    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    try:
        wl.prewarm(spec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0


def probe_setup(args):
    """``setup_once`` in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, check=True,
                          timeout=wl.CLI_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def _auto_child(spec, inp, tracer, op_id):
    mark = tracer.mark() if tracer else 0
    if tracer:
        tracer.op = op_id
    t0 = time.perf_counter()
    out = wl.op_auto(spec, inp)
    dt = time.perf_counter() - t0
    return dt, out, tracer.since(mark) if tracer else None


class Runner:
    def __init__(self, spec, keys, inputs, reference, work, tracer):
        self.spec, self.keys, self.inputs, self.ref = spec, keys, inputs, reference
        self.work, self.tracer = Path(work), tracer
        self.ops = []
        if spec.kind == "cli":
            for k in keys:
                wl.write_csv(self.csv(k), inputs[k][0])
        if tracer and spec.kind == "mc":
            tracer.follow_forks(self.work)  # replicates run in forked pool workers

    def csv(self, key):
        return self.work / (key.replace(":", "_").replace("#", "_s") + ".csv")

    def _call(self, key, op_id, traced):
        """(latency, output, extra) of one op."""
        spec, inp = self.spec, self.inputs[key]
        if spec.kind == "auto":
            dt, out, spans = wl.in_fresh_fork(_auto_child, spec, inp, self.tracer if traced else None, op_id)
            if traced:
                self.tracer.merge(spans, op_id)
            return dt, out, {}
        if spec.kind == "cli":
            out_dir = self.work / f"out-{op_id}"
            report = self.work / f"spans-{op_id}.json" if traced else None
            try:
                wall, out, rep = wl.run_cli(spec, self.csv(key), out_dir, report)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            extra = {}
            if traced:
                self.tracer.merge(rep["spans"], op_id)
                roots = sum(s[2] - s[1] for s in rep["spans"] if s[3] is None)
                extra = {"import_s": rep["import_s"], "self_s": wall - rep["import_s"] - roots}
            return wall, out, extra
        if traced:
            self.tracer.op = op_id
        t0 = time.perf_counter()
        out = wl.IN_PROCESS[spec.kind](spec, inp)
        dt = time.perf_counter() - t0
        if traced and spec.kind == "mc":
            self.tracer.collect_forks()
        return dt, out, {}

    def run_op(self, key, traced=False):
        """One checked op; every op counts in ``attempted``."""
        op = {"id": len(self.ops), "key": key, "traced": traced, "error": None}
        try:
            op["latency"], op["out"], op["extra"] = self._call(key, op["id"], traced)
            op["error"] = wl.mismatch(self.spec, self.ref[key], op["out"])
        except Exception as exc:  # a failed op is counted, not fatal
            op.update(latency=None, out=None, extra={}, error=repr(exc))
        if op["error"]:
            print(f"op {op['id']} on {key} failed: {op['error']}", file=sys.stderr)
        self.ops.append(op)
        return op

    def phase(self, seconds, traced=False):
        """Closed loop over the run's inputs until ``seconds`` have passed."""
        if traced:
            self.tracer.install()
        ops = []
        deadline = time.perf_counter() + seconds
        try:
            while True:
                ops.append(self.run_op(self.keys[len(ops) % len(self.keys)], traced))
                if time.perf_counter() >= deadline:
                    break
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.op = None
        return ops


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def series_per_op(spec):
    return spec.reps if spec.kind == "mc" else 1


def latency_stats(spec, ops):
    lat = sorted(o["latency"] for o in ops if o["latency"] is not None)
    if not lat:
        return None
    m = len(lat)
    # With fewer than 2 * TAIL_BEYOND + 1 ops no percentile above the median
    # has TAIL_BEYOND ops beyond it; the slowest op stands in for the tail.
    beyond = TAIL_BEYOND if m > 2 * TAIL_BEYOND else 0
    return {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": lat[m - 1 - beyond],
        "tail_percentile": 100.0 * (m - beyond) / m,
        "tail_beyond": beyond,
        "ops_timed": m,
        "series_per_s": series_per_op(spec) * m / sum(lat),
    }


def quality_scores(spec, runner):
    hits = scored = 0
    errs = []
    seen = set()
    for op in runner.ops:
        if op["error"] or op["key"] in seen:
            continue
        seen.add(op["key"])
        h, s, e = wl.quality(spec, op["out"], runner.inputs[op["key"]][-1])
        hits, scored = hits + h, scored + s
        errs += e
    failed = sum(1 for o in runner.ops if o["error"])
    return {
        "failed_frac": failed / len(runner.ops),
        "hit_rate": hits / scored if scored else 0.0,
        "loc_err_refined": statistics.fmean(errs) if errs else 0.0,
        "series_scored": scored,
        "hits_located": len(errs),
    }


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child.

    A forked child's RSS includes the pages it still shares with this
    process, so those pages are counted twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _dur(s):
    return s[2] - s[1]


def layer_metrics(spec, runner, tracer, untraced, traced, sweep, gen_per_series):
    spans = tracer.spans
    ids = {o["id"] for o in traced}
    n_ops = len(traced)
    in_ops = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        if s[4] in ids:
            in_ops[s[0]].append(s)
        if s[3] is not None:
            child_time[s[3]] += _dur(s)

    def per_op(name):
        return sum(_dur(s) for s in in_ops[name]) / n_ops

    def count_per_op(name):
        return len(in_ops[name]) / n_ops

    bank = in_ops["convolve.fast_filtered_series"]
    bank_s = sum(_dur(s) for s in bank)
    fields = [(i, s) for i, s in enumerate(spans) if s[0] == "field.multiscale_field" and s[4] in ids]
    fs = [s for s in spans if s[0] == "threshold.fs_correction" and s[5] is not None]
    cold = [s for s in fs if not s[5]["hit"]]
    warm = [s for s in fs if s[5]["hit"]]
    fs_cold_s = statistics.median(_dur(s) for s in cold) if cold else 0.0
    b_reps = cold[0][5]["B"] if cold else None
    lat_t = latency_stats(spec, traced)
    lat_u = latency_stats(spec, untraced)
    ok = [o for o in traced if o["out"] is not None]

    m = {
        "convolve.bank_s": bank_s / n_ops,
        "convolve.points_per_s": sum(s[5]["n"] for s in bank) / bank_s if bank_s else 0.0,
        "field.field_s": per_op("field.multiscale_field"),
        "field.self_s": sum(_dur(s) - child_time[i] for i, s in fields) / n_ops,
        "field.calls_per_op": count_per_op("field.multiscale_field"),
        "field.n_valid": statistics.fmean(s[5]["n_valid"] for _, s in fields) if fields else 0.0,
        "field.n_degenerate": sum(s[5]["n_degenerate"] for _, s in fields),
        "threshold.fs_cold_s": fs_cold_s,
        "threshold.null_reps_per_s": b_reps / fs_cold_s if cold and b_reps else 0.0,
        "threshold.fs_warm_s": statistics.median(_dur(s) for s in warm) if warm else 0.0,
        "threshold.fs_hits": sum(1 for s in warm if s[4] in ids) / n_ops,
        "threshold.fs_misses": sum(1 for s in cold if s[4] in ids) / n_ops,
        "detect.peaks_s": per_op("detect.mjpd_detect"),
        "detect.refine_s": per_op("detect.cusum_refine"),
        "detect.jumps": statistics.fmean(
            statistics.fmean(o["out"]["counts"]) if spec.kind == "mc" else o["out"]["count"] for o in ok
        ) if ok else 0.0,
        "tuning.select_scales_s": per_op("tuning.select_scales"),
        "tuning.pipeline_calls": count_per_op("detect.detect_pipeline"),
        "tuning.select_s_star_s": per_op("tuning.select_s_star"),
        "tuning.select_alpha_s": per_op("tuning.select_alpha"),
        "simulate.gen_s": 0.0,
        "simulate.detect_s": 0.0,
        "simulate.pool_s": 0.0,
        "cli.import_s": 0.0,
        "cli.self_s": 0.0,
        "trace.overhead_s": lat_t["latency_p50_s"] - lat_u["latency_p50_s"] if lat_t and lat_u else 0.0,
    }
    if spec.kind == "mc" and ok:
        gen = spec.reps * gen_per_series
        det = statistics.fmean(o["out"]["mean_runtime"] * spec.reps for o in ok)
        m["simulate.gen_s"] = gen
        m["simulate.detect_s"] = det
        # Replicates are shared evenly by the workers; the rest of the call's
        # wall time is pool start-up, shipping and imbalance.
        m["simulate.pool_s"] = statistics.fmean(o["latency"] for o in ok) - (gen + det) / wl.MC_THREADS
    if spec.kind == "cli" and ok:
        m["cli.import_s"] = statistics.fmean(o["extra"]["import_s"] for o in ok)
        m["cli.self_s"] = statistics.fmean(o["extra"]["self_s"] for o in ok)
    m.update(sweep)
    q = quality_scores(spec, runner)
    m.update({f"quality.{k}": q[k] for k in ("hit_rate", "loc_err_refined", "failed_frac")})
    return m


def size_sweep(tracer, seed, repeats):
    """convolve.bank_s.n<N> and field.field_s.n<N>: medians over ``repeats`` calls."""
    import jumpscan as js
    import numpy as np

    out = {}
    filt = js.builtin_wstar()
    tracer.install()
    try:
        for n, scales in SWEEP.items():
            y = np.random.default_rng([seed, n]).standard_normal(n)
            cfg = js.ScaleConfig(*scales)
            bank, field = [], []
            for r in range(repeats):
                tracer.op = f"sweep-n{n}-{r}"
                mark = tracer.mark()
                js.detect_pipeline(y, cfg, filt, threshold_mode=SWEEP_THRESHOLD)
                new = tracer.spans[mark:]
                bank.append(sum(_dur(s) for s in new if s[0] == "convolve.fast_filtered_series"))
                field.append(sum(_dur(s) for s in new if s[0] == "field.multiscale_field"))
            out[f"convolve.bank_s.n{n}"] = statistics.median(bank)
            out[f"field.field_s.n{n}"] = statistics.median(field)
    finally:
        tracer.uninstall()
        tracer.op = None
    return out


def gen_time_per_series(spec, tracer, seed):
    """Median ``gen_series`` wall time for the workload's scenario (mc only)."""
    import jumpscan as js

    tracer.install()
    tracer.op = "gen"
    mark = tracer.mark()
    try:
        for r in range(spec.reps):
            js.gen_series(js.PlsScenario.make("II", "PLS", n=spec.n, seed=seed * 1000 + r))
    finally:
        tracer.uninstall()
        tracer.op = None
    return statistics.median(_dur(s) for s in tracer.spans[mark:] if s[0] == "simulate.gen_series")


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def env_stamp():
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "jumpscan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------

def load_declared():
    with open(wl.ROOT / "BENCHMARK.json") as fh:
        decl = json.load(fh)
    return decl["end_to_end"], decl["per_layer"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (wl.SRC / "jumpscan" / "__init__.py").is_file():
        print(f"perfbench: no package at {wl.SRC / 'jumpscan'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    spec = wl.spec_for(args.workload, args.tiny)
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_once(spec)}))
        return 0

    end_to_end, per_layer = load_declared()
    tracer = Tracer() if args.trace else None
    setups = [setup_once(spec, tracer)]

    reference = wl.load_reference(spec, args.tiny)
    keys = wl.run_keys(spec, args.seed)
    inputs = {k: wl.make_input(spec, k) for k in keys}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work:
        runner = Runner(spec, keys, inputs, reference, work, tracer)
        if spec.setup_prewarm:
            # The first op after a pre-warmed set-up pays one-time
            # allocation costs, so it is checked but not timed.
            runner.run_op(keys[0])
        # A traced run splits its measuring time between the two loops.
        loop_s = args.seconds / 2 if args.trace else args.seconds
        untraced = runner.phase(loop_s)
        if args.trace:
            traced = runner.phase(loop_s, traced=True)
            gen = gen_time_per_series(spec, tracer, args.seed) if spec.kind == "mc" else 0.0
            sweep = size_sweep(tracer, args.seed, 1 if args.tiny else SWEEP_REPEATS)

    if not args.trace:
        # Read before the fresh set-up probes, which are not part of the loop.
        rss = peak_rss_mb()
        setups += [probe_setup(args) for _ in range(SETUP_REPEATS - 1 if not args.tiny else 1)]

    failed = sum(1 for o in runner.ops if o["error"])
    lat = latency_stats(spec, untraced)
    quality = quality_scores(spec, runner)
    if args.trace:
        values = layer_metrics(spec, runner, tracer, untraced, traced, sweep, gen)
        declared = per_layer
    else:
        values = dict(lat or {}, setup_s=statistics.median(setups), peak_rss_mb=rss)
        declared = end_to_end
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared if d["name"] in values}
    correct = failed == 0 and len(metrics) == len(declared)

    stamp = env_stamp()
    print(f"workload {spec.name}{' (tiny)' if args.tiny else ''}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(stamp))
    for name, mv in metrics.items():
        print(f"{name} {mv['value']:.6g} {mv['unit']}")
    if lat:
        print(f"latency_tail_s is p{lat['tail_percentile']:.1f}: {lat['tail_beyond']} of "
              f"{lat['ops_timed']} untraced ops beyond it")
        print(f"setup_s samples {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"failed_frac {quality['failed_frac']:.6g} ratio ({failed} of {len(runner.ops)} ops)")
    print(f"hit_rate {quality['hit_rate']:.6g} ratio (over {quality['series_scored']} series)")
    print(f"loc_err_refined {quality['loc_err_refined']:.6g} 1/n (over {quality['hits_located']} hits)")

    record = {
        "workload": spec.name, "tiny": args.tiny, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": stamp, "values": values, "quality": quality,
        "latency": lat, "setup_samples": setups,
        "ops": [{k: o[k] for k in ("id", "key", "traced", "latency", "error")} for o in runner.ops],
        "spans": tracer.spans if tracer else None,
    }
    tag = f"{spec.name}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": correct, "attempted": len(runner.ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

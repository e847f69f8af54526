"""Workloads: seeded inputs, one operation each, and the reference check.

Every input a run can use belongs to a fixed universe per workload, and
``reference.json`` holds the detections the package produced for each of
them (written by ``record.py``).  A run's ``--seed`` picks which inputs of
the universe it cycles through, so two seeds give different inputs and every
output can still be checked exactly.

The package is imported lazily (``import jumpscan`` inside functions) so the
caller can time the first import.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Reference check: counts and locations must match exactly; thresholds and
# per-jump G to REL_TOL; Monte-Carlo replicate location errors to MC_REL_TOL.
REL_TOL = 1e-6
MC_REL_TOL = 1e-12

ALPHA = 0.05
CLI_TIMEOUT_S = 170
MC_THREADS = 2  # every workload uses at most two worker processes


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str            # warm | cli | auto | mc
    n: int
    scales: tuple | None  # (s_lower, s_upper, s_star); None = automatic
    scenarios: tuple     # "mean:noise" or "smooth_shift:d"
    universe: int        # seeds per scenario recorded in the reference
    sample: int          # distinct inputs one run cycles through
    reps: int = 0        # Monte-Carlo replicates per op
    setup_prewarm: bool = False  # calibrate once in set-up; the first op is then untimed

    def keys(self):
        return [f"{sc}#{s}" for sc in self.scenarios for s in range(self.universe)]


MIX = ("I:GS", "II:PLS", "smooth_shift:0")

SPECS = {
    # Steady-state user: many same-length series, calibration paid in set-up.
    "warm-n5000": Spec("warm-n5000", "warm", 5000, (0.020, 0.056, 0.01), MIX, 40, 48,
                       setup_prewarm=True),
    # First-time user: one fresh CLI process per series, calibration every op.
    "cold-cli-n2000": Spec("cold-cli-n2000", "cli", 2000, (0.031, 0.100, 0.015), MIX, 8, 6),
    # Automatic scales and level: the tuning sweeps dominate.
    "auto-n500": Spec("auto-n500", "auto", 500, None, ("II:PLS",), 24, 4),
    # Monte-Carlo harness: generators plus the process pool.
    "mc-n500": Spec("mc-n500", "mc", 500, (0.061, 0.167, 0.03), ("II:PLS",), 24, 12, reps=100,
                    setup_prewarm=True),
}

# Small variants used by the self-test; recorded in the reference as well.
TINY = {
    "warm-n5000": replace(SPECS["warm-n5000"], n=500, scales=(0.061, 0.167, 0.03), universe=3, sample=4),
    "cold-cli-n2000": replace(SPECS["cold-cli-n2000"], n=500, scales=(0.061, 0.167, 0.03), universe=1, sample=2),
    "auto-n500": replace(SPECS["auto-n500"], n=200, universe=3, sample=2),
    "mc-n500": replace(SPECS["mc-n500"], n=200, universe=3, sample=2),
}


def spec_for(name, tiny=False):
    return (TINY if tiny else SPECS)[name]


def run_keys(spec, seed):
    """The seeded sample of the universe one run cycles through."""
    return random.Random(seed).sample(spec.keys(), min(spec.sample, len(spec.keys())))


def load_reference(spec, tiny=False):
    with open(REFERENCE) as fh:
        return json.load(fh)["tiny" if tiny else "full"][spec.name]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def config(spec):
    import jumpscan as js

    return None if spec.scales is None else js.ScaleConfig(*spec.scales)


def scenario(spec, key):
    import jumpscan as js

    sc, seed = key.split("#")
    mean, rest = sc.split(":", 1)
    seed = int(seed)
    if mean == "smooth_shift":
        return js.PlsScenario.make(mean, None, n=spec.n, seed=seed, d=float(rest))
    return js.PlsScenario.make(mean, rest, n=spec.n, seed=seed)


def make_input(spec, key):
    """(y, truth) for series workloads; (scenario, mc seed, truth) for mc."""
    import jumpscan as js

    sc = scenario(spec, key)
    if spec.kind == "mc":
        _, truth = js.gen_series(sc)
        return sc, sc.seed, truth
    return js.gen_series(sc)


def prewarm(spec):
    """Calibration the workload pays once, before its first op."""
    import jumpscan as js

    if spec.setup_prewarm:
        js.fs_correction(spec.n, config(spec), js.builtin_wstar())


# ---------------------------------------------------------------------------
# operations; each returns a plain summary of the program's output
# ---------------------------------------------------------------------------

def summarize(result):
    """The checked part of a detection result, given as its JSON dict."""
    jumps = result["jumps"]
    return {
        "count": len(jumps),
        "raw": [j["raw"] for j in jumps],
        "refined": [j["refined"] for j in jumps],
        "threshold": result["threshold"],
        "g": [j["g"] for j in jumps],
    }


def _nan_to_none(xs):
    return [None if isinstance(x, float) and math.isnan(x) else x for x in xs]


def op_warm(spec, inp):
    import jumpscan as js

    y, _ = inp
    return summarize(js.detect_pipeline(y, config(spec), js.builtin_wstar(), alpha=ALPHA).to_dict())


def op_auto(spec, inp):
    import jumpscan as js

    y, _ = inp
    res, _ = js.auto_detect(y, js.builtin_wstar(), alpha="auto")
    return summarize(res.to_dict())


def op_mc(spec, inp):
    import jumpscan as js

    sc, mc_seed, _ = inp
    det = js.DetectorSpec(cfg=config(spec), alpha="auto", filt=js.builtin_wstar())
    out = js.monte_carlo(sc, det, R=spec.reps, seed=mc_seed, threads=MC_THREADS)
    return {
        "counts": out["counts"],
        "mad_raw_all": _nan_to_none(out["mad_raw_all"]),
        "mad_refined_all": _nan_to_none(out["mad_refined_all"]),
        "mean_runtime": out["mean_runtime"],
    }


def op_cli_equivalent(spec, inp):
    """What ``jumpscan detect`` computes for the CLI workload, in process."""
    import jumpscan as js

    y, _ = inp
    res, _ = js.auto_detect(y, js.builtin_wstar(), cfg=config(spec), alpha=ALPHA,
                            threshold_mode="analytic", seed=0, threads=1)
    return summarize(res.to_dict())


IN_PROCESS = {"warm": op_warm, "auto": op_auto, "mc": op_mc, "cli": op_cli_equivalent}


def write_csv(path, y):
    with open(path, "w") as fh:
        fh.write("y\n")
        for v in y:
            fh.write(repr(float(v)) + "\n")


def cli_argv(spec, csv_path, out_dir):
    sl, su, ss = spec.scales
    return ["detect", "--input", str(csv_path), "--out", str(out_dir),
            "--s-lower", repr(sl), "--s-upper", repr(su), "--s-star", repr(ss),
            "--alpha", repr(ALPHA), "--threads", "1"]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(spec, csv_path, out_dir, span_report=None):
    """One fresh ``jumpscan detect`` process; returns (wall_s, summary, span report).

    With ``span_report`` set, the process runs ``cli_traced.py`` instead,
    which writes its spans and import time to that path.
    """
    argv = cli_argv(spec, csv_path, out_dir)
    if span_report is None:
        cmd = [sys.executable, "-m", "jumpscan.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "cli_traced.py"), str(span_report), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"jumpscan detect exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    with open(Path(out_dir) / f"{Path(csv_path).stem}_result.json") as fh:
        summary = summarize(json.load(fh))
    report = None
    if span_report is not None:
        with open(span_report) as fh:
            report = json.load(fh)
    return wall, summary, report


def _child(conn, fn, args):
    try:
        conn.send(("ok", fn(*args)))
    except Exception as exc:  # reported to the parent as a failed op
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


def in_fresh_fork(fn, *args):
    """Run ``fn(*args)`` in a child forked from this process and return its result.

    The child starts from the parent's state (package imported, nothing
    cached by earlier ops), so every op pays the same first-call costs.
    """
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send, fn, args))
    proc.start()
    send.close()
    try:
        status, payload = recv.recv()
    except EOFError:
        status, payload = "error", "child exited without a result"
    finally:
        recv.close()
        proc.join(CLI_TIMEOUT_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
    if status != "ok":
        raise RuntimeError(payload)
    return payload


# ---------------------------------------------------------------------------
# reference check and quality scores
# ---------------------------------------------------------------------------

def _close(a, b, rel):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def mismatch(spec, ref, out):
    """Why ``out`` differs from the recorded ``ref``, or None if it matches."""
    if spec.kind == "mc":
        if out["counts"] != ref["counts"]:
            return "replicate jump counts differ"
        for k in ("mad_raw_all", "mad_refined_all"):
            if len(out[k]) != len(ref[k]) or not all(_close(a, b, MC_REL_TOL) for a, b in zip(out[k], ref[k])):
                return f"{k} differs"
        return None
    if out["count"] != ref["count"]:
        return f"count {out['count']} != {ref['count']}"
    if out["raw"] != ref["raw"]:
        return "raw locations differ"
    if out["refined"] != ref["refined"]:
        return "refined locations differ"
    if not _close(out["threshold"], ref["threshold"], REL_TOL):
        return f"threshold {out['threshold']!r} != {ref['threshold']!r}"
    if not all(_close(a, b, REL_TOL) for a, b in zip(out["g"], ref["g"])):
        return "per-jump G differs"
    return None


def quality(spec, out, truth):
    """(hits, scored, location errors in units of 1/n) for one op's output."""
    true_locs = sorted(loc for loc, _ in truth)
    if spec.kind == "mc":
        hits = sum(c == len(truth) for c in out["counts"])
        errs = [m * spec.n for m in out["mad_refined_all"] if m is not None]
        return hits, len(out["counts"]), errs
    if out["count"] != len(truth):
        return 0, 1, []
    errs = [abs(a - b) * spec.n for a, b in zip(sorted(out["refined"]), true_locs)]
    return 1, 1, ([sum(errs) / len(errs)] if errs else [])

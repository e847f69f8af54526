"""In-memory span recorder wrapped around jumpscan's public functions.

Spans are recorded from the benchmark's side of each call: ``install``
replaces every public function listed in ``TRACED`` by a wrapper in each
``jumpscan`` module namespace that holds it (modules import each other's
names, so patching the defining module alone would miss most calls), and
``uninstall`` puts the originals back.  Nothing inside the package changes.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index
of the enclosing span in the same process (or None), ``op`` the benchmark
operation it belongs to, and ``info`` a small dict of counts taken from the
call's arguments or result.  This module imports only the standard library,
but some of it (``inspect``, ``json``) the package also needs: load it after
any import that is being timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

# module -> public functions recorded as spans named "<module>.<function>"
TRACED = {
    "convolve": ("fast_filtered_series",),
    "field": ("multiscale_field",),
    "threshold": ("fs_correction",),
    "detect": ("detect_pipeline", "mjpd_detect", "cusum_refine"),
    "tuning": ("auto_detect", "select_scales", "select_s_star", "select_alpha"),
    "simulate": ("gen_series", "monte_carlo"),
}


def _info_filter(tracer, bound, result):
    return {"n": len(result.values)}


def _info_field(tracer, bound, result):
    n = result.n
    core = n - 2 * int(math.floor(n * result.cfg.s_upper))
    n_valid = int(result.valid.sum())
    return {"n": n, "n_valid": n_valid, "n_degenerate": core - n_valid}


def _info_fs(tracer, bound, result):
    a = bound.arguments
    # The package keeps calibrations per (n, cfg, filter, B, seed); a key seen
    # before in this process is counted as a cache hit.
    key = tuple(a.get(k) for k in ("n", "cfg", "filt", "B", "seed"))
    hit = key in tracer.fs_seen
    tracer.fs_seen.add(key)
    return {"hit": hit, "B": a.get("B")}


INFO = {
    "convolve.fast_filtered_series": _info_filter,
    "field.multiscale_field": _info_field,
    "threshold.fs_correction": _info_fs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.fs_seen = set()
        self._stack = []
        self._patched = []
        self._fork_dir = None

    def _wrap(self, name, fn):
        info_fn = INFO.get(name)
        sig = inspect.signature(fn) if info_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if info_fn:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = info_fn(self, bound, result)
            return result

        return wrapper

    def install(self):
        if self._patched:
            return
        modules = [m for k, m in list(sys.modules.items()) if k == "jumpscan" or k.startswith("jumpscan.")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"jumpscan.{mod_name}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def mark(self):
        """Index to pass to :meth:`since` to collect spans recorded after now."""
        return len(self.spans)

    def since(self, mark):
        """Spans recorded after ``mark``, re-rooted so they can be merged elsewhere."""
        out = []
        for name, t0, t1, parent, op, info in self.spans[mark:]:
            out.append([name, t0, t1, None if parent is None or parent < mark else parent - mark, op, info])
        return out

    def merge(self, spans, op=None):
        """Append spans recorded in another process, tagging them with ``op`` if given."""
        base = len(self.spans)
        for name, t0, t1, parent, span_op, info in spans:
            self.spans.append([name, t0, t1, None if parent is None else parent + base,
                               span_op if op is None else op, info])

    def follow_forks(self, directory):
        """Also keep spans of children forked while installed, such as pool workers.

        Each such child writes its spans to ``directory`` when it exits
        through multiprocessing; :meth:`collect_forks` merges them.
        """
        if self._fork_dir is None:
            # Runs in the child after multiprocessing has reset its exit hooks.
            multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        self._fork_dir = Path(directory)

    def _after_fork(self):
        if self._patched:
            path = self._fork_dir / f"forkspans-{os.getpid()}.json"
            multiprocessing.util.Finalize(None, self._dump, args=(self.mark(), path), exitpriority=100)

    def _dump(self, mark, path):
        with open(path, "w") as fh:
            json.dump(self.since(mark), fh)

    def collect_forks(self):
        for path in sorted(self._fork_dir.glob("forkspans-*.json")):
            with open(path) as fh:
                self.merge(json.load(fh))
            path.unlink()

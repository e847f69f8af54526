"""Small shared helpers: seeded RNG streams, and the chunks and forked workers
that every batch of simulated rows runs in (the Monte-Carlo replicates and
the Gaussian null series behind the thresholds)."""

from __future__ import annotations

import os
import pickle

import numpy as np

__all__ = ["rng_for"]

# series values one chunk of simulated rows holds at most (a Monte-Carlo
# replicate counts its burn-in); bounds a chunk's working set
_CHUNK_VALUES = 1 << 16


def rng_for(seed, *stream) -> np.random.Generator:
    """Independent, reproducible generator for (seed, stream...).

    Streams derived from the same seed with different stream indices are
    statistically independent; no global state is touched.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream)))


def _chunks(R: int, workers: int, row_values: int) -> list:
    """Contiguous, near-equal ranges of rows covering 0 .. R-1: a multiple of
    ``workers`` of them (so each worker gets as many), each of at most
    ``_CHUNK_VALUES // row_values`` rows, and never more ranges than rows."""
    most = max(1, _CHUNK_VALUES // row_values)
    count = min(R, workers * -(-R // (workers * most)))
    bounds = [R * i // count for i in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _pool_chunks(fn, tasks, workers):
    """``[fn(task) for task in tasks]``, on up to ``workers`` forked children.

    With one worker or task, or no ``os.fork``, the tasks run here.  Else
    each of ``min(workers, len(tasks))`` contiguous shares runs in a child
    forked for this call, which pickles ``("ok", results)`` or ``("error",
    exc)`` into its own pipe and leaves through ``os._exit``; this process
    runs no task and reads the pipes in share order.  A child's exception
    is re-raised unchanged, and a child that closes its pipe without a
    result raises ``RuntimeError``; neither reruns anything here.  Only a
    fork that raises ``OSError`` runs the tasks here, after killing the
    children already started.  Every child is reaped before this returns or
    raises, after SIGKILL on any error path.
    """
    workers = min(workers, len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    children = []  # (pid, read end of its pipe)
    done = False
    try:
        for i in range(workers):
            share = tasks[len(tasks) * i // workers : len(tasks) * (i + 1) // workers]
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    try:
                        out = ("ok", [fn(t) for t in share])
                    except Exception as exc:
                        out = ("error", exc)
                    with open(w, "wb") as f:
                        f.write(pickle.dumps(out))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        else:
            results = []
            for pid, r in children:
                with open(r, "rb", closefd=False) as f:
                    data = f.read()
                if not data:
                    raise RuntimeError(f"worker {pid} exited without a result")
                status, value = pickle.loads(data)
                if status == "error":
                    raise value
                results.extend(value)
            done = True
            return results
    finally:
        if not done:
            import signal  # only an error path needs it

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
    return [fn(t) for t in tasks]

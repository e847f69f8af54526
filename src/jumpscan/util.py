"""Small shared helpers: seeded RNG streams."""

from __future__ import annotations

import numpy as np

__all__ = ["rng_for"]


def rng_for(seed, *stream) -> np.random.Generator:
    """Independent, reproducible generator for (seed, stream...).

    Streams derived from the same seed with different stream indices are
    statistically independent; no global state is touched.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream)))

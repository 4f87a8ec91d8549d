"""Deterministic seeding for stochastic components (``REPRO_SEED``).

Randomized pieces of the system — the stochastic search, the loadgen
payload generator, the hunt's case sampler, retry jitter in tests —
derive their seeds through :func:`default_seed` so one environment
variable reproduces a whole run::

    REPRO_SEED=1234 python -m pytest tests/hunt tests/search

Unset, every caller's documented fallback seed applies and runs are
reproducible by default.  :func:`derive_seed` folds extra labels (a worker
id, a test name) into the base seed so sibling streams stay decorrelated
but still replay from the one knob.
"""

from __future__ import annotations

import os
import zlib

#: the one environment variable controlling every random stream
SEED_ENV_VAR = "REPRO_SEED"


def default_seed(fallback: int = 0) -> int:
    """The base seed: ``$REPRO_SEED`` if set (any int literal), else
    ``fallback``."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None or not raw.strip():
        return fallback
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def derive_seed(base: int, *labels: object) -> int:
    """A stable sub-seed for one named stream under ``base``."""
    text = ":".join([str(base)] + [str(x) for x in labels])
    return zlib.crc32(text.encode("utf-8"))


def derive_rng(base: int, *labels: object):
    """A numpy :class:`~numpy.random.Generator` for one named stream.

    Shorthand for ``np.random.default_rng(derive_seed(base, *labels))`` —
    the idiom every seeded sampler (the ``repro hunt`` case generator,
    loadgen payloads) uses to obtain a decorrelated but
    replayable stream under the one ``REPRO_SEED`` knob.
    """
    import numpy as np

    return np.random.default_rng(derive_seed(base, *labels))

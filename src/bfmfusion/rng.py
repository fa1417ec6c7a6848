"""Named, reproducible random substreams.

Every random choice in the package flows from one user-supplied integer
seed, expanded into independent substreams keyed by a stream name plus
optional integer indices (generation number, repeat number, ...). Two
substreams with different keys never collide, and the same key always
reproduces the same stream.
"""

from __future__ import annotations

import numpy as np

# Registered stream names. Fixed codes keep substreams stable across versions.
_STREAM_CODES = {
    "synth": 0,
    "init": 1,
    "mutation": 2,
}


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Generator for the substream `name[indices]` under `seed`."""
    try:
        code = _STREAM_CODES[name]
    except KeyError:
        raise ValueError(f"unknown rng stream {name!r}; known: {sorted(_STREAM_CODES)}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(code, *indices)))

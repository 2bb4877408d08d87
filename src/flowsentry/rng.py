"""Seeded randomness plumbing.

Every component draws from its own named sub-stream derived from one root
seed, so component-level determinism composes across the pipeline.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK63 = (1 << 63) - 1


def derive_seed(seed: int, *labels: str) -> int:
    """Derive a child seed from a root seed and a path of stream labels.

    SHA-256 based, so the mapping is stable across platforms and runs.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little") & _MASK63


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))

"""Percentile threshold calibration over benign reconstruction errors and
window classification.

The threshold is the configured percentile (linear interpolation between
closest ranks) of the unweighted reconstruction errors of the benign
training windows. A window is flagged attack iff its score exceeds the
threshold strictly; a score exactly at the threshold stays benign.

Scoring cuts the windows into fixed chunks of :data:`CHUNK` windows and
scores them on worker threads, as many as the CPUs this process may use
divided by the threads BLAS was told to use (``OPENBLAS_NUM_THREADS``, else
``OMP_NUM_THREADS``). With neither set, BLAS already uses every CPU, so one
worker scores in the caller; ``OPENBLAS_NUM_THREADS=1`` lets scoring use
every core. Each chunk in flight holds about 17.5 MiB at L 25 / H 64. A
window's score depends only on the chunk it falls in, never on the number
of workers or on thread timing.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCalibrationSet
from .model import AutoencoderModel, decode_batch, encode_batch
from .sequencing import Sequence


@dataclass(frozen=True)
class ThresholdModel:
    threshold: float
    percentile: float
    calibration_count: int

    def __post_init__(self):
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must lie in (0, 100]")
        # a NaN threshold would call every window benign, since score > nan is false
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise ValueError("threshold must be finite and >= 0")


# Windows a scoring chunk: the slices are fixed, so the GEMM batch a window
# sits in (and so its last bits) never depends on the worker count.
CHUNK = 256
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _scoring_workers(n_chunks: int) -> int:
    """Worker threads for ``n_chunks`` chunks, by the rule in the module
    docstring, read at each call; at most one per chunk. As OpenBLAS does,
    a variable that holds no positive integer is skipped. ``trainer.train``
    reads the same rule for its two row halves, and SMOTE's neighbour
    search (``smote._nearest_neighbors``) for its chunks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for var in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            return max(1, min(cpus // int(value), n_chunks))
    return 1


def score_windows(
    model: AutoencoderModel, windows: np.ndarray, chunk: int = CHUNK
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window anomaly scores (MSE between each window and its
    reconstruction) and latent codes of a (W, L, n) tensor, from one encode
    and one decode of each chunk. Chunks run on :func:`_scoring_workers`
    threads, each writing its own slice of the results; every thread has
    ended when this returns, and an error in any chunk is raised here."""
    scores = np.empty(len(windows))
    codes = np.empty((len(windows), model.config.latent_dim))

    def score_chunk(lo: int) -> None:
        X = np.ascontiguousarray(windows[lo : lo + chunk])
        # keep_cache=False (positional): scoring never backpropagates
        z = encode_batch(model, X, None, False).z
        diff = decode_batch(model, z, X.shape[1], False).outputs - X
        scores[lo : lo + chunk] = np.mean(diff * diff, axis=(1, 2))
        codes[lo : lo + chunk] = z

    starts = range(0, len(windows), chunk)
    workers = _scoring_workers(len(starts))
    if workers == 1:
        for lo in starts:
            score_chunk(lo)
    else:
        # leaving the block joins every thread; a chunk's error cancels the
        # chunks not yet started and is raised once the running ones end
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(score_chunk, starts):
                pass
    return scores, codes


def reconstruction_errors(
    model: AutoencoderModel, windows: np.ndarray | list[Sequence], chunk: int = CHUNK
) -> np.ndarray:
    """Per-window anomaly scores of :func:`score_windows`. A list of
    :class:`Sequence` records is scored as the stack of their values."""
    if isinstance(windows, list):
        windows = np.asarray([s.values for s in windows], dtype=np.float64)
    return score_windows(model, windows, chunk)[0]


def percentile_threshold(errors: np.ndarray, percentile: float) -> float:
    """Linear-interpolation percentile of an error sample."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise EmptyCalibrationSet("no calibration errors")
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    return float(np.percentile(errors, percentile))


def calibrate(
    model: AutoencoderModel, benign_windows: np.ndarray, percentile: float = 99.0
) -> ThresholdModel:
    """Calibrate the detection threshold on a (W, L, n) tensor of benign
    training windows.

    Errors are the raw reconstruction MSEs, never scaled by the training
    loss weights.
    """
    if not len(benign_windows):
        raise EmptyCalibrationSet("calibration needs at least one benign window")
    errors = reconstruction_errors(model, benign_windows)
    return ThresholdModel(
        threshold=percentile_threshold(errors, percentile),
        percentile=percentile,
        calibration_count=len(benign_windows),
    )


def classify_many(
    model: AutoencoderModel, threshold: ThresholdModel, windows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scores of a (W, L, n) tensor of windows, and whether each is flagged
    attack (score strictly above the threshold)."""
    scores = reconstruction_errors(model, windows)
    return scores, scores > threshold.threshold

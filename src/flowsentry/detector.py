"""Percentile threshold calibration over benign reconstruction errors and
window classification.

The threshold is the configured percentile (linear interpolation between
closest ranks) of the unweighted reconstruction errors of the benign
training windows. A window is flagged attack iff its score exceeds the
threshold strictly; a score exactly at the threshold stays benign.

:func:`score_windows` is the one scoring pass, and ``detect`` and ``eval``
run it over the same time-ordered windows, so they score each window alike.

Scoring cuts the windows into fixed chunks of :data:`CHUNK` windows, and
the caller and worker threads score them by the rule of
:mod:`flowsentry.workers`. Each chunk in flight holds about 6 MiB at
L 25 / H 64, since its passes keep no cache and project each step's inputs
only as the recurrence reaches it (see :mod:`flowsentry.lstm`). A window's
score depends only on the chunk it falls in, never on the number of workers
or on thread timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCalibrationSet
from .model import AutoencoderModel, decode_batch, encode_batch
from .sequencing import Sequence
from .workers import run_chunks


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


def score_windows(
    model: AutoencoderModel, windows: np.ndarray, chunk: int = CHUNK
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window anomaly scores (MSE between each window and its
    reconstruction) and latent codes of a (W, L, n) tensor, from one encode
    and one decode of each chunk. :func:`flowsentry.workers.run_chunks` runs
    the chunks, each writing its own slice of the results."""
    scores = np.empty(len(windows))
    codes = np.empty((len(windows), model.config.latent_dim))

    def score_chunk(i: int) -> None:
        lo = i * chunk
        X = np.ascontiguousarray(windows[lo : lo + chunk])
        # keep_cache=False (positional): scoring never backpropagates
        z = encode_batch(model, X, None, False).z
        diff = decode_batch(model, z, X.shape[1], False).outputs - X
        scores[lo : lo + chunk] = np.mean(diff * diff, axis=(1, 2))
        codes[lo : lo + chunk] = z

    run_chunks(lambda: score_chunk, -(-len(windows) // chunk))
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

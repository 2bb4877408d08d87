"""Percentile threshold calibration over benign reconstruction errors and
window classification.

The threshold is the configured percentile (linear interpolation between
closest ranks) of the unweighted reconstruction errors of the benign
training windows. A window is flagged attack iff its score exceeds the
threshold strictly; a score exactly at the threshold stays benign.
"""

from __future__ import annotations

import math
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


def score_windows(
    model: AutoencoderModel, windows: np.ndarray, chunk: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window anomaly scores (MSE between each window and its
    reconstruction) and latent codes of a (W, L, n) tensor, from one encode
    and one decode of each chunk."""
    scores = np.empty(len(windows))
    codes = np.empty((len(windows), model.config.latent_dim))
    for lo in range(0, len(windows), chunk):
        X = np.ascontiguousarray(windows[lo : lo + chunk])
        # keep_cache=False (positional): scoring never backpropagates
        z = encode_batch(model, X, None, False).z
        diff = decode_batch(model, z, X.shape[1], False).outputs - X
        scores[lo : lo + chunk] = np.mean(diff * diff, axis=(1, 2))
        codes[lo : lo + chunk] = z
    return scores, codes


def reconstruction_errors(
    model: AutoencoderModel, windows: np.ndarray | list[Sequence], chunk: int = 512
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

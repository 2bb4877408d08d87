"""Percentile threshold calibration over benign reconstruction errors and
sequence classification.

The threshold is the configured percentile (linear interpolation between
closest ranks) of the unweighted reconstruction errors of the benign
training sequences. A sequence is flagged attack iff its score exceeds the
threshold strictly; a score exactly at the threshold stays benign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCalibrationSet
from .ingest import ATTACK, BENIGN
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


@dataclass(frozen=True)
class Verdict:
    label: str
    score: float

    @property
    def is_attack(self) -> bool:
        return self.label == ATTACK


def score_windows(
    model: AutoencoderModel,
    sequences: list[Sequence],
    chunk: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sequence anomaly scores (MSE between each sequence and its
    reconstruction) and latent codes, from one encode and one decode of
    each chunk. Sequences must share one length."""
    scores = np.empty(len(sequences))
    codes = np.empty((len(sequences), model.config.latent_dim))
    if not sequences:
        return scores, codes
    lengths = {s.length for s in sequences}
    if len(lengths) != 1:
        raise ValueError("sequences must share one length for batched scoring")
    L = lengths.pop()
    for lo in range(0, len(sequences), chunk):
        hi = min(lo + chunk, len(sequences))
        X = np.stack([s.values for s in sequences[lo:hi]])
        # keep_cache=False (positional): scoring never backpropagates
        z = encode_batch(model, X, None, False).z
        diff = decode_batch(model, z, L, False).outputs - X
        scores[lo:hi] = np.mean(diff * diff, axis=(1, 2))
        codes[lo:hi] = z
    return scores, codes


def reconstruction_errors(
    model: AutoencoderModel,
    sequences: list[Sequence],
    chunk: int = 512,
) -> np.ndarray:
    """Per-sequence anomaly scores of :func:`score_windows`."""
    return score_windows(model, sequences, chunk)[0]


def percentile_threshold(errors: np.ndarray, percentile: float) -> float:
    """Linear-interpolation percentile of an error sample."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise EmptyCalibrationSet("no calibration errors")
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    return float(np.percentile(errors, percentile))


def calibrate(
    model: AutoencoderModel,
    benign_train_sequences: list[Sequence],
    percentile: float = 99.0,
) -> ThresholdModel:
    """Calibrate the detection threshold on benign training sequences.

    Errors are the raw reconstruction MSEs, never scaled by the training
    loss weights.
    """
    if not benign_train_sequences:
        raise EmptyCalibrationSet("calibration needs at least one benign sequence")
    errors = reconstruction_errors(model, benign_train_sequences)
    return ThresholdModel(
        threshold=percentile_threshold(errors, percentile),
        percentile=percentile,
        calibration_count=len(benign_train_sequences),
    )


def classify(
    model: AutoencoderModel, threshold: ThresholdModel, seq: Sequence
) -> Verdict:
    """Score one sequence and compare against the calibrated threshold."""
    score = float(reconstruction_errors(model, [seq])[0])
    return Verdict(ATTACK if score > threshold.threshold else BENIGN, score)


def classify_many(
    model: AutoencoderModel, threshold: ThresholdModel, sequences: list[Sequence]
) -> list[Verdict]:
    scores = reconstruction_errors(model, sequences)
    return [
        Verdict(ATTACK if s > threshold.threshold else BENIGN, float(s))
        for s in scores
    ]

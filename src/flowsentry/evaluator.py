"""Detection metrics: benign/anomaly accuracy, precision, recall, F1,
per-attack-category breakdowns, precision-recall curves across percentile
thresholds, and the latent-cohesion score.

Attack is the positive class throughout. Ratios with a zero denominator are
reported as None rather than zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyCalibrationSet, InsufficientCodes, UnknownCategory
from .detector import ThresholdModel, percentile_threshold, score_windows
from .model import AutoencoderModel, LatentCode
from .sequencing import Windows


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricSummary:
    benign_accuracy: float | None   # percent
    anomaly_accuracy: float | None  # percent
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class CategoryMetrics:
    anomaly_accuracy: float | None
    precision: float | None
    recall: float | None


@dataclass(frozen=True)
class PRPoint:
    percentile: float
    precision: float | None
    recall: float | None
    benign_accuracy: float | None
    anomaly_accuracy: float | None


@dataclass(frozen=True)
class EvalReport:
    counts: ConfusionCounts
    benign_accuracy: float | None
    anomaly_accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None
    per_category: dict[str, CategoryMetrics]
    pr_curve: tuple[PRPoint, ...]
    latent_cohesion: float | None


def _ratio(num: int, denom: int) -> float | None:
    return num / denom if denom else None


def compute_metrics(counts: ConfusionCounts) -> MetricSummary:
    """Benign accuracy TN/(TN+FP), anomaly accuracy TP/(TP+FN) (both as
    percentages), precision, recall, and the harmonic-mean F1."""
    ba = _ratio(counts.tn, counts.tn + counts.fp)
    aa = _ratio(counts.tp, counts.tp + counts.fn)
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    recall = aa
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricSummary(
        benign_accuracy=None if ba is None else 100.0 * ba,
        anomaly_accuracy=None if aa is None else 100.0 * aa,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def counts_from_scores(
    benign_scores: np.ndarray, attack_scores: np.ndarray, threshold: float
) -> ConfusionCounts:
    """Confusion counts with the strict score > threshold attack rule."""
    benign_scores = np.asarray(benign_scores)
    attack_scores = np.asarray(attack_scores)
    fp = int((benign_scores > threshold).sum())
    tp = int((attack_scores > threshold).sum())
    return ConfusionCounts(
        tp=tp,
        fp=fp,
        tn=benign_scores.size - fp,
        fn=attack_scores.size - tp,
    )


def per_category_eval(
    benign_scores: np.ndarray,
    attack_scores: np.ndarray,
    attack_categories: np.ndarray | list[str | None],
    threshold: float,
) -> dict[str, CategoryMetrics]:
    """Anomaly accuracy / precision / recall per attack category, each
    against the shared benign scores. ``attack_categories[i]`` is the
    dominant category of the window scored ``attack_scores[i]``."""
    attack_scores = np.asarray(attack_scores)
    missing = [i for i, c in enumerate(attack_categories) if c is None]
    if missing:
        raise UnknownCategory(f"attack window {missing[0]} has no category")
    names = np.asarray(attack_categories, dtype=object)
    out = {}
    for category in sorted(set(attack_categories)):
        m = compute_metrics(
            counts_from_scores(benign_scores, attack_scores[names == category], threshold)
        )
        out[category] = CategoryMetrics(
            anomaly_accuracy=m.anomaly_accuracy, precision=m.precision, recall=m.recall
        )
    return out


def pr_across_percentiles(
    benign_scores: np.ndarray,
    attack_scores: np.ndarray,
    percentiles: Iterable[float],
) -> tuple[PRPoint, ...]:
    """Recalibrate the threshold at each percentile of the benign scores
    (no retraining) and recompute the metrics."""
    benign_scores = np.asarray(benign_scores, dtype=np.float64)
    if benign_scores.size == 0:
        raise EmptyCalibrationSet("no benign scores")
    points = []
    for q in percentiles:
        thr = percentile_threshold(benign_scores, q)
        m = compute_metrics(counts_from_scores(benign_scores, attack_scores, thr))
        points.append(
            PRPoint(
                percentile=float(q),
                precision=m.precision,
                recall=m.recall,
                benign_accuracy=m.benign_accuracy,
                anomaly_accuracy=m.anomaly_accuracy,
            )
        )
    return tuple(points)


def latent_cohesion(codes: Iterable[LatentCode] | np.ndarray) -> float:
    """Mean over latent dimensions of (max - min) along that dimension."""
    if isinstance(codes, np.ndarray):
        matrix = np.asarray(codes, dtype=np.float64)
    else:
        matrix = np.stack([c.z if isinstance(c, LatentCode) else np.asarray(c) for c in codes])
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise InsufficientCodes("latent cohesion needs at least two codes")
    return float(np.mean(matrix.max(axis=0) - matrix.min(axis=0)))


def benign_latent_codes(
    model: AutoencoderModel, windows: np.ndarray, chunk: int = 512
) -> np.ndarray:
    """Latent codes of a (W, L, n) tensor of windows as a (W, latent_dim)
    matrix."""
    return score_windows(model, windows, chunk)[1]


def evaluate_detector(
    model: AutoencoderModel,
    threshold: ThresholdModel,
    benign: Windows,
    attacks: Windows,
    pr_percentiles: Iterable[float] = (),
) -> tuple[EvalReport, np.ndarray]:
    """Score every window once and assemble the full evaluation report at a
    calibrated threshold from those scores.

    The per-category report is made when any attack window carries a
    category. Returns the report and the benign latent codes, a
    (len(benign), latent_dim) matrix from the same pass.
    """
    benign_scores, benign_codes = score_windows(model, benign.values)
    attack_scores, _ = score_windows(model, attacks.values)
    counts = counts_from_scores(benign_scores, attack_scores, threshold.threshold)
    summary = compute_metrics(counts)

    per_category: dict[str, CategoryMetrics] = {}
    if any(c is not None for c in attacks.categories):
        per_category = per_category_eval(
            benign_scores, attack_scores, attacks.categories, threshold.threshold
        )

    pr_curve: tuple[PRPoint, ...] = ()
    percentiles = list(pr_percentiles)
    if percentiles:
        pr_curve = pr_across_percentiles(benign_scores, attack_scores, percentiles)

    cohesion = None
    if len(benign) >= 2:
        cohesion = latent_cohesion(benign_codes)

    report = EvalReport(
        counts=counts,
        benign_accuracy=summary.benign_accuracy,
        anomaly_accuracy=summary.anomaly_accuracy,
        precision=summary.precision,
        recall=summary.recall,
        f1=summary.f1,
        per_category=per_category,
        pr_curve=pr_curve,
        latent_cohesion=cohesion,
    )
    return report, benign_codes

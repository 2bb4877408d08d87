"""Benign-only anomaly detection for network flow sequences.

A recurrent autoencoder is trained on benign flow windows under a weighted
joint objective (reconstruction MSE plus a triplet margin loss on latent
codes), thresholded at a percentile of benign reconstruction errors, and
evaluated with benign/anomaly accuracy, precision, recall, and F1.
"""

from .detector import ThresholdModel, calibrate, classify_many
from .evaluator import (
    ConfusionCounts,
    EvalReport,
    compute_metrics,
    evaluate_detector,
    latent_cohesion,
    per_category_eval,
    pr_across_percentiles,
)
from .ingest import (
    FlowSchema,
    FlowTable,
    NormalizationStats,
    fit_normalizer,
    load_flows,
    normalize,
    split_benign,
)
from .model import (
    AutoencoderModel,
    LatentCode,
    ModelConfig,
    decode,
    encode,
    init_model,
    reconstruction_error,
)
from .sequencing import TripletConfig, Triplets, Windows, build_sequences, make_triplets
from .smote import SmoteConfig, smote_oversample
from .trainer import (
    FreezeSpec,
    TrainConfig,
    TrainReport,
    joint_loss,
    sweep,
    train,
    triplet_margin_loss,
)

__version__ = "0.1.0"

__all__ = [
    "AutoencoderModel",
    "ConfusionCounts",
    "EvalReport",
    "FlowSchema",
    "FlowTable",
    "FreezeSpec",
    "LatentCode",
    "ModelConfig",
    "NormalizationStats",
    "SmoteConfig",
    "ThresholdModel",
    "TrainConfig",
    "TrainReport",
    "TripletConfig",
    "Triplets",
    "Windows",
    "build_sequences",
    "calibrate",
    "classify_many",
    "compute_metrics",
    "decode",
    "encode",
    "evaluate_detector",
    "fit_normalizer",
    "init_model",
    "joint_loss",
    "latent_cohesion",
    "load_flows",
    "make_triplets",
    "normalize",
    "per_category_eval",
    "pr_across_percentiles",
    "reconstruction_error",
    "smote_oversample",
    "split_benign",
    "sweep",
    "train",
    "triplet_margin_loss",
]

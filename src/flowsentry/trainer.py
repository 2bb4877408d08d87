"""Training of the autoencoder under the weighted joint objective.

The joint loss is lam_tml * L_TML + lam_rec * L_REC (plus lam_kl * KL in
variational mode): L_REC is the mean MSE of anchor reconstructions over the
batch, and L_TML is the mean hinge max(||z_a - z_p|| - ||z_a - z_n|| + m, 0)
over latent codes. Gradients are computed analytically through the full
recurrent stack; the optimizer is Adam with global-norm gradient clipping.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .evaluator import EvalReport

from .errors import (
    DimensionMismatch,
    DivergedLoss,
    EmptyBatch,
    EmptyTrainingSet,
)
from .model import (
    AutoencoderModel,
    ModelConfig,
    PARAMETER_GROUPS,
    decode_backward,
    decode_batch,
    encode_backward,
    encode_batch,
    init_model,
    parameter_group,
    zero_grads,
)
from .rng import derive_seed, rng_from
from .sequencing import Triplets, Windows
from .workers import side_pool


@dataclass(frozen=True)
class TrainConfig:
    lam_rec: float = 0.8
    lam_tml: float = 0.9
    lam_kl: float = 0.0
    margin: float = 1.0
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam_rec <= 1.0 or not 0.0 <= self.lam_tml <= 1.0:
            raise ValueError("loss weights must lie in [0, 1]")
        if not math.isfinite(self.lam_kl) or self.lam_kl < 0:
            raise ValueError("lam_kl must be finite and >= 0")
        for name in ("margin", "learning_rate", "clip_norm"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass(frozen=True)
class FreezeSpec:
    """Parameter groups excluded from optimizer updates."""

    frozen: frozenset[str] = frozenset()

    def __post_init__(self):
        unknown = set(self.frozen) - set(PARAMETER_GROUPS)
        if unknown:
            raise ValueError(f"unknown freeze groups: {sorted(unknown)}")

    def is_frozen(self, param_name: str) -> bool:
        return parameter_group(param_name) in self.frozen


# CLI regimes: freezing "the encoder" fixes the whole encoder including its
# first-layer input weights; "all-but-io" leaves only the input and output
# layers trainable.
FREEZE_REGIMES = {
    "encoder": frozenset({"encoder", "input_layer"}),
    "all-but-io": frozenset({"encoder", "decoder_core"}),
}


@dataclass(frozen=True)
class TrainReport:
    joint_loss: np.ndarray
    reconstruction_loss: np.ndarray
    triplet_loss: np.ndarray
    kl_loss: np.ndarray | None
    model: AutoencoderModel


@dataclass
class LossParts:
    total: float
    reconstruction: float
    triplet: float
    kl: float


def triplet_margin_loss(
    anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray, margin: float
) -> float:
    """max(||a - p||_2 - ||a - n||_2 + margin, 0) on latent vectors."""
    a, p, n = (np.asarray(v, dtype=np.float64) for v in (anchor, positive, negative))
    if not (a.shape == p.shape == n.shape):
        raise DimensionMismatch("triplet members must share one dimension")
    d_ap = float(np.linalg.norm(a - p))
    d_an = float(np.linalg.norm(a - n))
    return max(d_ap - d_an + margin, 0.0)


def _batch(triplets: Triplets, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchors, positives and negatives of the triplets ``idx``."""
    return triplets.anchors[idx], triplets.positives[idx], triplets.anchors[triplets.negatives[idx]]


def _draw_etas(
    model: AutoencoderModel, rng: np.random.Generator, batch: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    if not model.config.variational:
        return None
    Z = model.config.latent_dim
    return tuple(rng.standard_normal((batch, Z)) for _ in range(3))


def loss_and_grads(
    model: AutoencoderModel,
    A: np.ndarray,
    P: np.ndarray,
    N: np.ndarray,
    cfg: TrainConfig,
    etas: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    want_grads: bool = True,
    *,
    workspace: dict | None = None,
    pool: Executor | None = None,
) -> tuple[LossParts, dict[str, np.ndarray] | None]:
    """Joint loss and its analytic gradients over a stacked triplet batch.

    The three branches share the encoder, so with lam_tml > 0 anchors,
    positives and negatives are encoded and backpropagated as one batch of
    3B rows. When lam_tml is 0 only the anchors are encoded, so the gradient
    equals the reconstruction-only gradient by construction. A ``workspace``
    (see :mod:`flowsentry.lstm`) lends the recurrent layers their big arrays,
    which the next call handed it overwrites; with it, ``pool`` may run one
    row half of every recurrence.
    """
    B, L, _ = A.shape
    if B == 0:
        raise EmptyBatch("loss requested on an empty batch")
    variational = model.config.variational
    if variational and etas is None:
        rng = rng_from(derive_seed(cfg.seed, "loss-eta"))
        etas = _draw_etas(model, rng, B)

    use_tml = cfg.lam_tml > 0
    use_rec = cfg.lam_rec > 0
    # without a workspace the passes are called as plain (model, X, ...)
    # functions, which is what wrappers of them may assume
    reuse = {} if workspace is None else {"workspace": workspace, "pool": pool}

    if use_tml:
        eta = np.concatenate(etas) if variational else None
        enc = encode_batch(model, np.concatenate([A, P, N]), eta, **reuse)
        z_a, z_p, z_n = enc.z[:B], enc.z[B : 2 * B], enc.z[2 * B :]
    else:
        enc = encode_batch(model, A, etas[0] if variational else None, **reuse)
        z_a = enc.z
    dec = decode_batch(model, z_a, L, **reuse) if use_rec else None

    # reconstruction term
    if use_rec:
        diff = dec.outputs - A
        rec = float(np.mean(diff * diff))
    else:
        rec = 0.0

    # triplet term
    tml = 0.0
    if use_tml:
        ap = z_a - z_p
        an = z_a - z_n
        d_ap = np.linalg.norm(ap, axis=1)
        d_an = np.linalg.norm(an, axis=1)
        hinge = d_ap - d_an + cfg.margin
        active = hinge > 0
        tml = float(np.mean(np.maximum(hinge, 0.0)))

    # KL term (anchor posterior against the unit Gaussian)
    kl = 0.0
    if variational and cfg.lam_kl > 0:
        mu, lv = enc.mean[:B], enc.log_variance[:B]
        kl = float(np.mean(-0.5 * np.sum(1.0 + lv - mu * mu - np.exp(lv), axis=1)))

    total = cfg.lam_tml * tml + cfg.lam_rec * rec + cfg.lam_kl * kl
    parts = LossParts(total, rec, tml, kl)
    if not want_grads:
        return parts, None

    grads = zero_grads(model)
    d_z = np.zeros_like(enc.z)  # rows as in enc.z: anchors first
    d_za = d_z[:B]

    if use_rec:
        d_out = (2.0 * cfg.lam_rec / diff.size) * diff
        d_za += decode_backward(model, dec, z_a, d_out, grads, **reuse)

    if use_tml:
        scale = cfg.lam_tml / B
        # unit vectors with a zero subgradient at coincident points
        unit_ap = np.where(d_ap[:, None] > 0, ap / np.where(d_ap, d_ap, 1.0)[:, None], 0.0)
        unit_an = np.where(d_an[:, None] > 0, an / np.where(d_an, d_an, 1.0)[:, None], 0.0)
        act = active[:, None]
        d_za += scale * np.where(act, unit_ap - unit_an, 0.0)
        d_z[B : 2 * B] = scale * np.where(act, -unit_ap, 0.0)
        d_z[2 * B :] = scale * np.where(act, unit_an, 0.0)

    d_mean_extra = d_logvar_extra = None
    if variational and cfg.lam_kl > 0:
        # the KL term reaches the anchors' heads only
        w = cfg.lam_kl / B
        d_mean_extra = np.zeros_like(d_z)
        d_logvar_extra = np.zeros_like(d_z)
        d_mean_extra[:B] = w * mu
        d_logvar_extra[:B] = w * 0.5 * (np.exp(lv) - 1.0)

    encode_backward(model, enc, d_z, grads, d_mean_extra, d_logvar_extra, **reuse)
    return parts, grads


def joint_loss(
    triplets: Triplets,
    model: AutoencoderModel,
    cfg: TrainConfig,
    etas: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> float:
    """Scalar joint loss over a triplet batch."""
    if not len(triplets):
        raise EmptyBatch("loss requested on an empty batch")
    A, P, N = _batch(triplets, np.arange(len(triplets)))
    parts, _ = loss_and_grads(model, A, P, N, cfg, etas, want_grads=False)
    return parts.total


class Adam:
    """Per-parameter adaptive moment optimizer (beta1=0.9, beta2=0.999)."""

    def __init__(self, names: list[str], like: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(like[k]) for k in names}
        self.v = {k: np.zeros_like(like[k]) for k in names}
        self.t = 0

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float
    ) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for k in self.m:
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / corr1
            v_hat = self.v[k] / corr2
            params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _clip_global_norm(grads: dict[str, np.ndarray], names: list[str], max_norm: float) -> None:
    total = math.sqrt(sum(float(np.sum(grads[k] * grads[k])) for k in names))
    if total > max_norm:
        scale = max_norm / total
        for k in names:
            grads[k] *= scale


def train(
    triplets: Triplets,
    model: AutoencoderModel,
    cfg: TrainConfig,
    freeze: FreezeSpec = FreezeSpec(),
) -> TrainReport:
    """Mini-batch gradient training of the joint objective, in place.

    Frozen parameter groups are never touched by the optimizer, so they
    stay bit-identical. Deterministic per cfg.seed, whatever the number of
    threads: one pool thread (:func:`flowsentry.workers.side_pool`) runs a
    row half of every recurrent pass cut in two (see :mod:`flowsentry.lstm`),
    and it has ended when this returns.
    """
    if not len(triplets):
        raise EmptyTrainingSet("no triplets to train on")

    total = len(triplets)
    trainable = [k for k in model.param_names() if not freeze.is_frozen(k)]
    opt = Adam(trainable, model.params)
    rng = rng_from(derive_seed(cfg.seed, "train"))
    # the recurrent layers' big arrays, overwritten by every batch and
    # dropped when training ends
    workspace: dict = {}

    variational = model.config.variational
    hist = {
        "joint": np.zeros(cfg.epochs),
        "rec": np.zeros(cfg.epochs),
        "tml": np.zeros(cfg.epochs),
        "kl": np.zeros(cfg.epochs),
    }
    with side_pool() as pool:
        for epoch in range(cfg.epochs):
            order = rng.permutation(total)
            sums = {"joint": 0.0, "rec": 0.0, "tml": 0.0, "kl": 0.0}
            for lo in range(0, total, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                etas = _draw_etas(model, rng, len(idx)) if variational else None
                parts, grads = loss_and_grads(
                    model, *_batch(triplets, idx), cfg, etas, workspace=workspace, pool=pool
                )
                if not math.isfinite(parts.total):
                    raise DivergedLoss(f"non-finite loss at epoch {epoch}")
                _clip_global_norm(grads, trainable, cfg.clip_norm)
                opt.step(model.params, grads, cfg.learning_rate)
                w = len(idx)
                sums["joint"] += parts.total * w
                sums["rec"] += parts.reconstruction * w
                sums["tml"] += parts.triplet * w
                sums["kl"] += parts.kl * w
            for key in sums:
                hist[key][epoch] = sums[key] / total
    return TrainReport(
        joint_loss=hist["joint"],
        reconstruction_loss=hist["rec"],
        triplet_loss=hist["tml"],
        kl_loss=hist["kl"] if variational else None,
        model=model,
    )


DEFAULT_GRID = tuple(round(i / 10, 1) for i in range(11))


@dataclass(frozen=True)
class SweepEvalData:
    """Held-out data each sweep cell is calibrated and scored on."""

    calibration_sequences: Windows
    benign_test_sequences: Windows
    attack_sequences: Windows
    percentile: float = 99.0


@dataclass(frozen=True)
class SweepResult:
    lam_rec: float
    lam_tml: float
    report: "EvalReport"


def sweep(
    triplets: Triplets,
    model_config: ModelConfig,
    train_cfg: TrainConfig,
    eval_data: SweepEvalData,
    rec_values: tuple[float, ...] = DEFAULT_GRID,
    tml_values: tuple[float, ...] = DEFAULT_GRID,
) -> tuple[list[SweepResult], SweepResult]:
    """Train one model per (lam_rec, lam_tml) pair and evaluate each cell.

    Every cell starts from the same seeded initialization and owns an
    independent training stream. Selection maximizes F1 when attack
    windows are provided, else benign accuracy at the calibrated
    threshold.
    """
    from .detector import calibrate, score_windows
    from .evaluator import evaluate_detector

    if any(not 0.0 <= v <= 1.0 for v in rec_values + tml_values):
        raise ValueError("grid values must lie in [0, 1]")

    base = init_model(model_config)
    results = []
    for lam_rec in rec_values:
        for lam_tml in tml_values:
            cell_cfg = replace(
                train_cfg,
                lam_rec=lam_rec,
                lam_tml=lam_tml,
                seed=derive_seed(train_cfg.seed, "sweep", repr(lam_rec), repr(lam_tml)),
            )
            cell_model = base.copy()
            train(triplets, cell_model, cell_cfg)
            threshold = calibrate(
                cell_model, eval_data.calibration_sequences.values, eval_data.percentile
            )
            benign_scores, benign_codes = score_windows(
                cell_model, eval_data.benign_test_sequences.values
            )
            attack_scores, _ = score_windows(cell_model, eval_data.attack_sequences.values)
            # the cells are ranked without a per-category report
            report = evaluate_detector(threshold, benign_scores, attack_scores, benign_codes)
            results.append(SweepResult(lam_rec, lam_tml, report))

    def key(r: SweepResult) -> float:
        if len(eval_data.attack_sequences):
            return -1.0 if r.report.f1 is None else r.report.f1
        ba = r.report.benign_accuracy
        return -1.0 if ba is None else ba

    best = max(results, key=key)
    return results, best

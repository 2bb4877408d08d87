"""Recurrent encoder-decoder over flow windows, with an optional
variational mode.

The encoder is a stacked LSTM whose final hidden state is projected to the
latent code (or to mean / log-variance heads in variational mode). The
decoder is a stacked LSTM unrolled for the target length: its first layer
starts from a linear seed of the latent code and receives zero vectors as
step inputs, and every step's top hidden state passes through a linear
output layer. All parameters live in float64 numpy arrays keyed by name.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .ingest import NormalizationStats
from .lstm import LstmCache, lstm_backward, lstm_forward
from .rng import derive_seed, rng_from

MODE_DETERMINISTIC = "deterministic"
MODE_VARIATIONAL = "variational"

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

GROUP_ENCODER = "encoder"
GROUP_DECODER_CORE = "decoder_core"
GROUP_INPUT_LAYER = "input_layer"
GROUP_OUTPUT_LAYER = "output_layer"
PARAMETER_GROUPS = (
    GROUP_ENCODER,
    GROUP_DECODER_CORE,
    GROUP_INPUT_LAYER,
    GROUP_OUTPUT_LAYER,
)


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden_dim: int = 64
    latent_dim: int = 32
    num_layers: int = 1
    mode: str = MODE_DETERMINISTIC
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "latent_dim", "num_layers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise InvalidConfig(f"{name} must be an integer >= 1")
        if self.mode not in (MODE_DETERMINISTIC, MODE_VARIATIONAL):
            raise InvalidConfig(f"unknown mode {self.mode!r}")

    @property
    def variational(self) -> bool:
        return self.mode == MODE_VARIATIONAL


@dataclass(frozen=True)
class LatentCode:
    z: np.ndarray
    mean: np.ndarray | None = None
    log_variance: np.ndarray | None = None


class AutoencoderModel:
    """Parameter container plus forward passes.

    Parameters are mutated in place by the trainer only; inference paths
    are pure.
    """

    def __init__(
        self,
        config: ModelConfig,
        params: dict[str, np.ndarray],
        norm_stats: NormalizationStats | None = None,
    ):
        self.config = config
        self.params = params
        self.norm_stats = norm_stats

    def param_names(self) -> list[str]:
        return sorted(self.params)

    def copy(self) -> "AutoencoderModel":
        return AutoencoderModel(
            self.config,
            {k: v.copy() for k, v in self.params.items()},
            self.norm_stats,
        )


def parameter_group(name: str) -> str:
    """Map a parameter name to its freeze group.

    The four groups partition all parameters: the first encoder layer's
    input-to-hidden weights form ``input_layer``, the final linear
    projection forms ``output_layer``, the remaining encoder-side tensors
    (including the latent / variational heads) form ``encoder``, and the
    seed projection plus decoder LSTM form ``decoder_core``.
    """
    if name == "enc0.W":
        return GROUP_INPUT_LAYER
    if name.startswith("out."):
        return GROUP_OUTPUT_LAYER
    if name.startswith(("enc", "lat.", "mu.", "logvar.")):
        return GROUP_ENCODER
    if name.startswith(("dec", "seed.")):
        return GROUP_DECODER_CORE
    raise KeyError(f"unknown parameter {name!r}")


def _layer_dims(cfg: ModelConfig) -> list[int]:
    return [cfg.input_dim] + [cfg.hidden_dim] * (cfg.num_layers - 1)


def param_layout(cfg: ModelConfig) -> dict[str, tuple[tuple[int, ...], int]]:
    """Name -> (shape, fan-in) of every parameter, in initialization order.

    LSTM biases use the hidden size as fan-in; linear biases use their
    layer's input size.
    """
    H, Z = cfg.hidden_dim, cfg.latent_dim
    layout: dict[str, tuple[tuple[int, ...], int]] = {}
    for prefix in ("enc", "dec"):
        for layer, D in enumerate(_layer_dims(cfg)):
            layout[f"{prefix}{layer}.W"] = ((4 * H, D), D)
            layout[f"{prefix}{layer}.U"] = ((4 * H, H), H)
            layout[f"{prefix}{layer}.b"] = ((4 * H,), H)
    for head in ("mu", "logvar") if cfg.variational else ("lat",):
        layout[f"{head}.W"] = ((Z, H), H)
        layout[f"{head}.b"] = ((Z,), H)
    layout["seed.W"] = ((H, Z), Z)
    layout["seed.b"] = ((H,), Z)
    layout["out.W"] = ((cfg.input_dim, H), H)
    layout["out.b"] = ((cfg.input_dim,), H)
    return layout


def init_model(
    cfg: ModelConfig, norm_stats: NormalizationStats | None = None
) -> AutoencoderModel:
    """Initialize parameters from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    with the fan-in of :func:`param_layout`. Deterministic per config seed.
    """
    rng = rng_from(cfg.seed)
    params: dict[str, np.ndarray] = {}
    for name, (shape, fan_in) in param_layout(cfg).items():
        limit = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-limit, limit, shape)
    return AutoencoderModel(cfg, params, norm_stats)


@dataclass
class EncodeState:
    """Forward-pass activations needed by the encoder backward pass."""

    caches: list[LstmCache]
    z: np.ndarray                      # (B, Z)
    mean: np.ndarray | None = None
    log_variance: np.ndarray | None = None  # clamped
    logvar_mask: np.ndarray | None = None   # 1 where the clamp is inactive
    eta: np.ndarray | None = None


@dataclass
class DecodeState:
    caches: list[LstmCache]
    outputs: np.ndarray  # (B, L, n)


def encode_batch(
    model: AutoencoderModel,
    X: np.ndarray,
    eta: np.ndarray | None = None,
    keep_cache: bool = True,
    *,
    workspace: dict | None = None,
    pool: Executor | None = None,
) -> EncodeState:
    """Run the stacked encoder over (B, L, n) inputs.

    Without ``keep_cache`` the layers keep no gate or cell history, so the
    state gives the codes but cannot be backpropagated. ``workspace`` holds
    one ``lstm`` workspace per layer, reused by every call that is handed it;
    with it, ``pool`` may run one row half of each layer's loop (see
    :mod:`flowsentry.lstm`).
    """
    cfg = model.config
    if X.ndim != 3 or X.shape[2] != cfg.input_dim:
        raise DimensionMismatch(
            f"expected (B, L, {cfg.input_dim}) input, got {X.shape}"
        )
    p = model.params
    caches = []
    current = np.asarray(X, dtype=np.float64)
    for layer in range(cfg.num_layers):
        cache = lstm_forward(
            p[f"enc{layer}.W"], p[f"enc{layer}.U"], p[f"enc{layer}.b"], current,
            keep_cache=keep_cache, workspace=_layer_workspace(workspace, f"enc{layer}"),
            pool=pool,
        )
        caches.append(cache)
        current = cache.outputs
    h_last = caches[-1].last_hidden
    if not cfg.variational:
        z = h_last @ p["lat.W"].T + p["lat.b"]
        return EncodeState(caches, z)
    mean = h_last @ p["mu.W"].T + p["mu.b"]
    logvar_raw = h_last @ p["logvar.W"].T + p["logvar.b"]
    logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
    mask = ((logvar_raw > LOGVAR_MIN) & (logvar_raw < LOGVAR_MAX)).astype(np.float64)
    if eta is None:
        eta = _inference_eta(model, mean.shape[0])
    z = mean + np.exp(0.5 * logvar) * eta
    return EncodeState(caches, z, mean, logvar, mask, eta)


def _layer_workspace(workspace: dict | None, layer: str) -> dict | None:
    return None if workspace is None else workspace.setdefault(layer, {})


def _inference_eta(model: AutoencoderModel, batch: int) -> np.ndarray:
    # One fixed seeded draw per model, tiled over the batch, so scores
    # reproduce for the same chunking of windows into batches. They may
    # differ in the last bits between chunkings, since a GEMM row's result
    # can depend on the rows batched with it: with numpy's OpenBLAS at
    # H = 64, only products of 1-4 rows (one-window encoding among them)
    # round differently from the batched one, but at other hidden sizes
    # blocks of 25 rows (H = 100) or 96 rows (H = 50) can too. Scoring's
    # chunk size is fixed (detector.CHUNK), so scores never depend on how
    # many threads score the chunks.
    base = rng_from(derive_seed(model.config.seed, "encode-eta")).standard_normal(
        model.config.latent_dim
    )
    return np.tile(base, (batch, 1))


def encode_backward(
    model: AutoencoderModel,
    state: EncodeState,
    d_z: np.ndarray,
    grads: dict[str, np.ndarray],
    d_mean_extra: np.ndarray | None = None,
    d_logvar_extra: np.ndarray | None = None,
    *,
    workspace: dict | None = None,
    pool: Executor | None = None,
) -> None:
    """Accumulate gradients of the encoder stack given dL/dz.

    ``d_mean_extra`` / ``d_logvar_extra`` carry loss terms that hit the
    variational heads directly (the KL term). ``workspace`` and ``pool`` are
    the ones the forward pass was given.
    """
    cfg = model.config
    p = model.params
    h_last = state.caches[-1].last_hidden
    if not cfg.variational:
        grads["lat.W"] += d_z.T @ h_last
        grads["lat.b"] += d_z.sum(axis=0)
        d_h = d_z @ p["lat.W"]
    else:
        d_mean = d_z.copy()
        d_logvar = d_z * state.eta * 0.5 * np.exp(0.5 * state.log_variance)
        if d_mean_extra is not None:
            d_mean += d_mean_extra
        if d_logvar_extra is not None:
            d_logvar += d_logvar_extra
        d_logvar *= state.logvar_mask  # clamp gradient
        grads["mu.W"] += d_mean.T @ h_last
        grads["mu.b"] += d_mean.sum(axis=0)
        grads["logvar.W"] += d_logvar.T @ h_last
        grads["logvar.b"] += d_logvar.sum(axis=0)
        d_h = d_mean @ p["mu.W"] + d_logvar @ p["logvar.W"]

    d_outputs = None
    d_h_last = d_h
    for layer in range(cfg.num_layers - 1, -1, -1):
        cache = state.caches[layer]
        dW, dU, db, d_inputs, _, _ = lstm_backward(
            p[f"enc{layer}.W"], p[f"enc{layer}.U"], cache, d_outputs, d_h_last,
            want_d_inputs=layer > 0, workspace=_layer_workspace(workspace, f"enc{layer}"),
            pool=pool,
        )
        grads[f"enc{layer}.W"] += dW
        grads[f"enc{layer}.U"] += dU
        grads[f"enc{layer}.b"] += db
        d_outputs = d_inputs
        d_h_last = None


def decode_batch(
    model: AutoencoderModel,
    Z: np.ndarray,
    length: int,
    keep_cache: bool = True,
    *,
    workspace: dict | None = None,
    pool: Executor | None = None,
) -> DecodeState:
    """Unroll the stacked decoder for ``length`` steps from latent codes.

    The first layer's step inputs are all zero, so their projection is
    skipped. ``keep_cache``, ``workspace`` and ``pool`` are as in
    :func:`encode_batch`.
    """
    cfg = model.config
    if Z.ndim != 2 or Z.shape[1] != cfg.latent_dim:
        raise DimensionMismatch(f"expected (B, {cfg.latent_dim}) latent, got {Z.shape}")
    p = model.params
    B = Z.shape[0]
    h0 = Z @ p["seed.W"].T + p["seed.b"]
    caches = []
    current = (B, length)
    for layer in range(cfg.num_layers):
        cache = lstm_forward(
            p[f"dec{layer}.W"],
            p[f"dec{layer}.U"],
            p[f"dec{layer}.b"],
            current,
            h0=h0 if layer == 0 else None,
            keep_cache=keep_cache,
            workspace=_layer_workspace(workspace, f"dec{layer}"),
            pool=pool,
        )
        caches.append(cache)
        current = cache.outputs
    outputs = current @ p["out.W"].T + p["out.b"]
    return DecodeState(caches, outputs)


def decode_backward(
    model: AutoencoderModel,
    state: DecodeState,
    Z: np.ndarray,
    d_outputs: np.ndarray,
    grads: dict[str, np.ndarray],
    *,
    workspace: dict | None = None,
    pool: Executor | None = None,
) -> np.ndarray:
    """Accumulate decoder gradients given dL/d(outputs); returns dL/dZ.
    ``workspace`` and ``pool`` are the ones the forward pass was given."""
    cfg = model.config
    p = model.params
    B, L, _ = d_outputs.shape
    top = state.caches[-1].outputs
    grads["out.W"] += d_outputs.reshape(B * L, -1).T @ top.reshape(B * L, -1)
    grads["out.b"] += d_outputs.sum(axis=(0, 1))
    d_hs = d_outputs @ p["out.W"]
    d_h0 = None
    for layer in range(cfg.num_layers - 1, -1, -1):
        cache = state.caches[layer]
        dW, dU, db, d_inputs, dh0, _ = lstm_backward(
            p[f"dec{layer}.W"], p[f"dec{layer}.U"], cache, d_hs,
            workspace=_layer_workspace(workspace, f"dec{layer}"), pool=pool,
        )
        grads[f"dec{layer}.W"] += dW
        grads[f"dec{layer}.U"] += dU
        grads[f"dec{layer}.b"] += db
        d_hs = d_inputs
        if layer == 0:
            d_h0 = dh0
    grads["seed.W"] += d_h0.T @ Z
    grads["seed.b"] += d_h0.sum(axis=0)
    return d_h0 @ p["seed.W"]


def _as_matrix(x: np.ndarray) -> np.ndarray:
    values = np.asarray(x, dtype=np.float64)
    if values.ndim != 2:
        raise DimensionMismatch("window values must be a (length, n) matrix")
    return values


def encode(
    model: AutoencoderModel, x: np.ndarray, eta: np.ndarray | None = None
) -> LatentCode:
    """Encode one (length, n) window to its latent code.

    In variational mode the code is the reparameterized sample
    z = mean + exp(log_variance / 2) * eta with a seeded eta.
    """
    values = _as_matrix(x)
    state = encode_batch(model, values[None, :, :], eta=None if eta is None else eta[None, :])
    if model.config.variational:
        return LatentCode(state.z[0], state.mean[0], state.log_variance[0])
    return LatentCode(state.z[0])


def decode(
    model: AutoencoderModel, code: LatentCode | np.ndarray, length: int
) -> np.ndarray:
    """Decode a latent code into an (length, n) reconstruction."""
    z = code.z if isinstance(code, LatentCode) else np.asarray(code, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionMismatch("latent code must be a vector")
    return decode_batch(model, z[None, :], length).outputs[0]


def reconstruction_error(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared difference over all length * n elements."""
    values = _as_matrix(x)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if values.shape != x_hat.shape:
        raise DimensionMismatch(f"shape mismatch: {values.shape} vs {x_hat.shape}")
    diff = values - x_hat
    return float(np.mean(diff * diff))


def reconstruct(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """Encode then decode a (length, n) window at its own length."""
    values = _as_matrix(x)
    return decode(model, encode(model, values), values.shape[0])


def zero_grads(model: AutoencoderModel, names: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    names = model.param_names() if names is None else list(names)
    return {k: np.zeros_like(model.params[k]) for k in names}

"""Fixed-length windowing of flows and triplet construction for training.

A window's label is attack iff strictly more than half of its flows are
attack-labeled; ties stay benign. Training triplets pair each benign anchor
with a noise-augmented copy and a temporally distinct benign window.
Windows and triplets are arrays, not per-window objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NeedAtLeastTwoSequences, SequenceLongerThanData
from .ingest import ATTACK, FlowTable


@dataclass(frozen=True)
class Sequence:
    """One window as a record. The pipeline passes :class:`Windows`;
    :func:`~flowsentry.detector.reconstruction_errors` still accepts a list
    of these."""

    values: np.ndarray  # (length, n_features)
    label: str
    category: str | None
    start_index: int

    @property
    def is_attack(self) -> bool:
        return self.label == ATTACK

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Windows:
    """Fixed-length windows of a flow table as parallel arrays, one row per
    window; window w holds the flows from ``starts[w]`` on."""

    values: np.ndarray      # (W, length, n_features)
    starts: np.ndarray      # (W,) int64
    is_attack: np.ndarray   # (W,) bool, the majority label
    categories: np.ndarray  # (W,) object: dominant attack category, or None

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, mask: np.ndarray) -> "Windows":
        """The windows where ``mask`` is true; their values are copied."""
        return Windows(self.values[mask], self.starts[mask], self.is_attack[mask],
                       self.categories[mask])


@dataclass(frozen=True)
class Triplets:
    """Training triplets as arrays: triplet i is (anchors[i], positives[i],
    anchors[negatives[i]])."""

    anchors: np.ndarray    # (T, length, n_features)
    positives: np.ndarray  # (T, length, n_features)
    negatives: np.ndarray  # (T,) int64 rows of anchors

    def __len__(self) -> int:
        return len(self.negatives)


@dataclass(frozen=True)
class TripletConfig:
    sequence_length: int = 25
    stride: int | None = None  # None = sequence_length (non-overlapping tiling)
    noise_scale: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.sequence_length < 1:
            raise ValueError("sequence_length must be >= 1")
        if self.stride is not None and self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not math.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise ValueError("noise_scale must be finite and >= 0")

    @property
    def effective_stride(self) -> int:
        return self.sequence_length if self.stride is None else self.stride


def _dominant_categories(flows: FlowTable, starts: np.ndarray, length: int) -> np.ndarray:
    """Most frequent category among each window's attack flows, ties broken
    lexicographically; None for a window without a categorized attack flow."""
    names = sorted(set(flows.categories) - {None})
    if not names:
        return np.full(len(starts), None, dtype=object)
    code_of = {name: k for k, name in enumerate(names)}
    codes = np.fromiter(map(code_of.get, flows.categories, repeat(-1)), np.int64, len(flows))
    codes[~flows.is_attack] = -1
    window_codes = codes[starts[:, None] + np.arange(length)]
    window = np.broadcast_to(np.arange(len(starts))[:, None], window_codes.shape)
    keep = window_codes >= 0
    # per-window counts of each code, ordered by (window, code)
    keys, counts = np.unique(window[keep] * len(names) + window_codes[keep], return_counts=True)
    window, code = np.divmod(keys, len(names))
    # a stable sort on (window, -count) keeps the smallest code first among ties
    order = np.lexsort((-counts, window))
    window, code = window[order], code[order]
    first = np.ones(len(window), dtype=bool)
    first[1:] = window[1:] != window[:-1]
    dominant = np.full(len(starts), None, dtype=object)
    dominant[window[first]] = np.asarray(names, dtype=object)[code[first]]
    return dominant


def build_sequences(flows: FlowTable, length: int, stride: int | None = None) -> Windows:
    """Window a flow table into windows starting at 0, stride, 2*stride, ...

    The trailing partial window is discarded. The windows' values are a
    read-only view into the table's features.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    stride = length if stride is None else stride
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if length > len(flows):
        raise SequenceLongerThanData(
            f"window of {length} flows requested but table has {len(flows)}"
        )
    values = sliding_window_view(flows.features, (length, flows.n_features))[::stride, 0]
    starts = np.arange(0, len(flows) - length + 1, stride, dtype=np.int64)
    attack_count = np.concatenate(([0], np.cumsum(flows.is_attack)))
    is_attack = 2 * (attack_count[starts + length] - attack_count[starts]) > length  # strict majority
    categories = np.full(len(starts), None, dtype=object)
    attack_windows = np.flatnonzero(is_attack)
    if attack_windows.size:
        categories[attack_windows] = _dominant_categories(flows, starts[attack_windows], length)
    return Windows(values, starts, is_attack, categories)


def make_triplets(windows: Windows, cfg: TripletConfig) -> Triplets:
    """Build one triplet per anchor: (anchor, anchor + noise, other window).

    The positive adds element-wise uniform noise in [-eps, +eps], clamped to
    [0, 1]; the negative is drawn uniformly among the windows with a
    different start index. Each anchor draws its noise, then its negative,
    from its own seed-derived stream, so results are deterministic and
    order-independent.
    """
    if windows.is_attack.any():
        raise ValueError("triplet construction expects benign windows only")
    starts = windows.starts
    if len(windows) < 2 or len(np.unique(starts)) < 2:
        raise NeedAtLeastTwoSequences(
            "need at least two benign windows with distinct start indices"
        )
    eps = cfg.noise_scale
    anchors = windows.values
    positives = np.empty(anchors.shape) if eps > 0 else anchors
    negatives = np.empty(len(windows), dtype=np.int64)
    children = np.random.SeedSequence(cfg.seed).spawn(len(windows))
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        if eps > 0:
            positives[i] = rng.uniform(-eps, eps, anchors.shape[1:])
        negatives[i] = rng.choice(np.flatnonzero(starts != starts[i]))
    if eps > 0:
        np.clip(np.add(anchors, positives, out=positives), 0.0, 1.0, out=positives)
    return Triplets(anchors, positives, negatives)

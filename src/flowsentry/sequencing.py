"""Fixed-length windowing of flows and triplet construction for training.

A window's label is attack iff strictly more than half of its flows are
attack-labeled; ties stay benign. Training triplets pair each benign anchor
with a noise-augmented copy and a temporally distinct benign sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NeedAtLeastTwoSequences, SequenceLongerThanData
from .ingest import ATTACK, BENIGN, FlowTable


@dataclass(frozen=True)
class Sequence:
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
class Triplet:
    anchor: Sequence
    positive: Sequence
    negative: Sequence


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


def _dominant_categories(
    flows: FlowTable, starts: np.ndarray, length: int
) -> list[str | None]:
    """Most frequent category among each window's attack flows, ties broken
    lexicographically; None for a window without a categorized attack flow."""
    names = sorted(set(flows.categories) - {None})
    if not names:
        return [None] * len(starts)
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
    dominant: list[str | None] = [None] * len(starts)
    for w, k in zip(window[first].tolist(), code[first].tolist()):
        dominant[w] = names[k]
    return dominant


def build_sequences(
    flows: FlowTable, length: int, stride: int | None = None
) -> list[Sequence]:
    """Window a flow table into sequences starting at 0, stride, 2*stride, ...

    The trailing partial window is discarded. Each sequence's values are a
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
    windows = sliding_window_view(flows.features, (length, flows.n_features))[::stride, 0]
    starts = np.arange(0, len(flows) - length + 1, stride)
    attack_count = np.concatenate(([0], np.cumsum(flows.is_attack)))
    is_attack = 2 * (attack_count[starts + length] - attack_count[starts]) > length  # strict majority
    categories: list[str | None] = [None] * len(starts)
    attack_windows = np.flatnonzero(is_attack)
    if attack_windows.size:
        dominant = _dominant_categories(flows, starts[attack_windows], length)
        for w, category in zip(attack_windows.tolist(), dominant):
            categories[w] = category
    return [
        Sequence(values, ATTACK if attack else BENIGN, category, start)
        for values, attack, category, start in zip(
            windows, is_attack.tolist(), categories, starts.tolist()
        )
    ]


def make_triplets(benign_sequences: list[Sequence], cfg: TripletConfig) -> list[Triplet]:
    """Build one triplet per anchor: (anchor, anchor + noise, other sequence).

    The positive adds element-wise uniform noise in [-eps, +eps], clamped to
    [0, 1]; the negative is drawn uniformly among benign sequences with a
    different start index. Each anchor draws from its own seed-derived
    stream, so results are deterministic and order-independent.
    """
    if any(s.is_attack for s in benign_sequences):
        raise ValueError("triplet construction expects benign sequences only")
    starts = [s.start_index for s in benign_sequences]
    if len(benign_sequences) < 2 or len(set(starts)) < 2:
        raise NeedAtLeastTwoSequences(
            "need at least two benign sequences with distinct start indices"
        )
    eps = cfg.noise_scale
    children = np.random.SeedSequence(cfg.seed).spawn(len(benign_sequences))
    start_arr = np.asarray(starts)

    triplets = []
    for i, anchor in enumerate(benign_sequences):
        rng = np.random.default_rng(children[i])
        values = anchor.values
        if eps > 0:
            values = np.clip(values + rng.uniform(-eps, eps, values.shape), 0.0, 1.0)
        positive = Sequence(values, BENIGN, None, anchor.start_index)
        candidates = np.flatnonzero(start_arr != anchor.start_index)
        negative = benign_sequences[int(rng.choice(candidates))]
        triplets.append(Triplet(anchor=anchor, positive=positive, negative=negative))
    return triplets

"""Deterministic synthetic flow corpora for desk-scale experiments.

Benign traffic is a per-feature sinusoid (distinct period, phase, and
amplitude per feature) plus Gaussian noise, which gives windows enough
temporal structure for a recurrent model. Attacks are contiguous bursts
whose values are mean-shifted by a configurable multiple of each feature's
benign standard deviation, tagged with cycling category names.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import BENIGN, ATTACK, FlowSchema, FlowTable
from .rng import rng_from


@dataclass(frozen=True)
class SyntheticSpec:
    n_flows: int = 5000
    n_features: int = 8
    attack_fraction: float = 0.0
    mean_shift: float = 5.0       # in benign per-feature standard deviations
    burst_flows: int = 250        # length of each contiguous attack burst
    burst_alignment: int = 1      # burst starts snap to multiples of this
    noise_sigma: float = 0.05
    categories: tuple[str, ...] = ("bruteforce", "dos", "recon")
    seed: int = 0

    def __post_init__(self):
        if self.n_flows < 1 or self.n_features < 1:
            raise ValueError("n_flows and n_features must be >= 1")
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ValueError("attack_fraction must lie in [0, 1]")
        if self.burst_flows < 1 or self.burst_alignment < 1:
            raise ValueError("burst_flows and burst_alignment must be >= 1")
        if self.attack_fraction > 0 and not self.categories:
            raise ValueError("categories required when attacks are injected")


def synthetic_schema(n_features: int) -> FlowSchema:
    """Schema matching the CSVs written by :func:`write_flows_csv`."""
    return FlowSchema(
        feature_columns=tuple(f"f{j}" for j in range(n_features)),
        label_column="label",
        attack_category_column="category",
        benign_label_value=BENIGN,
    )


def _burst_layout(spec: SyntheticSpec, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Non-overlapping (start, length) bursts covering ~attack_fraction of
    flows, one per equal segment of the corpus, starts aligned."""
    n_attack = int(round(spec.attack_fraction * spec.n_flows))
    if n_attack == 0:
        return []
    lengths = [spec.burst_flows] * (n_attack // spec.burst_flows)
    remainder = n_attack % spec.burst_flows
    if remainder:
        lengths.append(remainder)
    bursts = []
    segment = spec.n_flows / len(lengths)
    align = spec.burst_alignment
    for i, burst_len in enumerate(lengths):
        seg_lo = int(i * segment)
        seg_hi = min(int((i + 1) * segment), spec.n_flows) - burst_len
        lo_slot = -(-seg_lo // align)  # first aligned slot at or after seg_lo
        hi_slot = max(seg_hi // align, lo_slot)
        start = int(rng.integers(lo_slot, hi_slot + 1)) * align
        start = min(start, spec.n_flows - burst_len)
        bursts.append((start, burst_len))
    return bursts


def generate_flows(spec: SyntheticSpec) -> FlowTable:
    """Generate a labeled flow table; bit-identical per seed."""
    rng = rng_from(spec.seed)
    t = np.arange(spec.n_flows)[:, None]
    periods = rng.uniform(20.0, 120.0, spec.n_features)
    phases = rng.uniform(0.0, 2.0 * np.pi, spec.n_features)
    amplitudes = rng.uniform(0.15, 0.35, spec.n_features)
    values = 0.5 + amplitudes * np.sin(2.0 * np.pi * t / periods + phases)
    values += rng.normal(0.0, spec.noise_sigma, values.shape)

    is_attack = np.zeros(spec.n_flows, dtype=bool)
    categories: list[str | None] = [None] * spec.n_flows
    bursts = _burst_layout(spec, rng)
    if bursts:
        benign_std = values.std(axis=0)
        for i, (start, burst_len) in enumerate(bursts):
            window = slice(start, start + burst_len)
            values[window] += spec.mean_shift * benign_std
            is_attack[window] = True
            category = spec.categories[i % len(spec.categories)]
            for k in range(start, start + burst_len):
                categories[k] = category

    return FlowTable(values, is_attack, categories, np.arange(spec.n_flows))


# Rows formatted and written at a time by write_flows_csv.
_WRITE_ROWS = 8192


def _label_cells(is_attack: bool, category: str | None) -> str:
    """The label and category cells of a row and its newline, as
    ``csv.writer`` writes them: a two-cell row quotes each cell as a longer
    row would (a lone empty cell would be written ``""``)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [ATTACK if is_attack else BENIGN, category or ""]
    )
    return buf.getvalue()


def write_flows_csv(path: str | Path, table: FlowTable) -> None:
    """Write a table in the synthetic schema layout (f0..fN, label, category).

    Feature cells are ``repr`` of each float, which ``csv`` never quotes;
    the label and category cells are formatted once per distinct pair.
    """
    labels = list(zip(table.is_attack.tolist(), table.categories))
    tails = {key: _label_cells(*key) for key in set(labels)}
    sep = "," if table.n_features else ""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            [f"f{j}" for j in range(table.n_features)] + ["label", "category"]
        )
        for lo in range(0, len(table), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            lines = (
                ",".join(map(repr, cells)) + sep + tails[key]
                for cells, key in zip(table.features[lo:hi].tolist(), labels[lo:hi])
            )
            fh.write("".join(lines))

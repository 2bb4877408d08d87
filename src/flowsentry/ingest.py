"""Flow CSV ingestion, min-max normalization, and benign train/test splitting.

Flows are kept columnar in a :class:`FlowTable`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence as TypingSequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyFile,
    InsufficientData,
    MissingColumn,
    NoBenignRecords,
    NonNumericValue,
    ShortRow,
)
from .rng import rng_from

BENIGN = "benign"
ATTACK = "attack"


@dataclass(frozen=True)
class FlowSchema:
    """Column layout of a labeled flow CSV.

    Label values are compared against ``benign_label_value`` as exact
    strings; every non-matching value is treated as an attack.
    """

    feature_columns: tuple[str, ...]
    label_column: str
    attack_category_column: str | None = None
    benign_label_value: str = BENIGN
    delimiter: str = ","

    def __post_init__(self):
        if not self.feature_columns:
            raise ValueError("feature_columns must be non-empty")
        names = list(self.feature_columns) + [self.label_column]
        if self.attack_category_column is not None:
            names.append(self.attack_category_column)
        if len(set(names)) != len(names):
            raise ValueError("schema column names must be unique")
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))

    @property
    def n_features(self) -> int:
        return len(self.feature_columns)


class FlowTable:
    """Columnar store of flow records in source order."""

    def __init__(
        self,
        features: np.ndarray,
        is_attack: np.ndarray,
        categories: TypingSequence[str | None],
        original_indices: np.ndarray,
    ):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a (records, n_features) matrix")
        n = features.shape[0]
        is_attack = np.asarray(is_attack, dtype=bool)
        original_indices = np.asarray(original_indices, dtype=np.int64)
        if len(is_attack) != n or len(categories) != n or len(original_indices) != n:
            raise ValueError("column lengths disagree")
        self.features = features
        self.is_attack = is_attack
        self.categories = list(categories)
        self.original_indices = original_indices

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_benign(self) -> int:
        return int((~self.is_attack).sum())

    @property
    def n_attack(self) -> int:
        return int(self.is_attack.sum())

    def __len__(self) -> int:
        return self.features.shape[0]

    def select(self, indices: np.ndarray) -> "FlowTable":
        indices = np.asarray(indices, dtype=np.int64)
        return FlowTable(
            self.features[indices],
            self.is_attack[indices],
            [self.categories[i] for i in indices],
            self.original_indices[indices],
        )

    def benign_only(self) -> "FlowTable":
        return self.select(np.flatnonzero(~self.is_attack))

    def attack_only(self) -> "FlowTable":
        return self.select(np.flatnonzero(self.is_attack))


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature min/max fitted on benign training flows."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=np.float64))
        if self.minimum.shape != self.maximum.shape or self.minimum.ndim != 1:
            raise ValueError("minimum/maximum must be equal-length vectors")
        if np.any(self.minimum > self.maximum):
            raise ValueError("minimum exceeds maximum")

    @property
    def n_features(self) -> int:
        return self.minimum.shape[0]


def load_flows(path: str | Path, schema: FlowSchema) -> FlowTable:
    """Parse a labeled flow CSV into a :class:`FlowTable`.

    A file without a header row raises :class:`EmptyFile`; a header-only
    file yields an empty table. Non-numeric feature cells raise
    :class:`NonNumericValue` with the offending data-row index and column,
    and a data row with fewer cells than the header raises :class:`ShortRow`.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} has no header row") from None

        required = list(schema.feature_columns) + [schema.label_column]
        if schema.attack_category_column is not None:
            required.append(schema.attack_category_column)
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumn(f"{path} is missing columns: {', '.join(missing)}")

        col = {name: header.index(name) for name in required}
        feat_idx = [col[c] for c in schema.feature_columns]
        label_idx = col[schema.label_column]
        cat_idx = (
            col[schema.attack_category_column]
            if schema.attack_category_column is not None
            else None
        )

        feats: list[list[float]] = []
        attacks: list[bool] = []
        cats: list[str | None] = []
        row_index = 0
        for row in reader:
            if not row:
                continue
            if len(row) < len(header):
                raise ShortRow(row_index, len(row), len(header))
            parsed = []
            for j, name in zip(feat_idx, schema.feature_columns):
                cell = row[j]
                try:
                    value = float(cell)
                except ValueError:
                    raise NonNumericValue(row_index, name, cell) from None
                if not math.isfinite(value):
                    raise NonNumericValue(row_index, name, cell)
                parsed.append(value)
            feats.append(parsed)
            attacks.append(row[label_idx] != schema.benign_label_value)
            if cat_idx is not None:
                cats.append(row[cat_idx] or None)
            else:
                cats.append(None)
            row_index += 1

    features = np.asarray(feats, dtype=np.float64).reshape(row_index, schema.n_features)
    return FlowTable(features, np.asarray(attacks, dtype=bool), cats, np.arange(row_index))


def fit_normalizer(benign_flows: FlowTable) -> NormalizationStats:
    """Fit per-feature min/max over the provided (training benign) records."""
    if len(benign_flows) < 2:
        raise InsufficientData("normalization needs at least 2 records")
    return NormalizationStats(
        minimum=benign_flows.features.min(axis=0),
        maximum=benign_flows.features.max(axis=0),
    )


def normalize(flows: FlowTable, stats: NormalizationStats) -> FlowTable:
    """Map each value to (v - min) / (max - min), clamped to [0, 1].

    Constant features (max == min) map to 0.
    """
    if flows.n_features != stats.n_features:
        raise DimensionMismatch(
            f"table has {flows.n_features} features, stats have {stats.n_features}"
        )
    span = stats.maximum - stats.minimum
    safe_span = np.where(span > 0, span, 1.0)
    scaled = (flows.features - stats.minimum) / safe_span
    scaled = np.where(span > 0, scaled, 0.0)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return FlowTable(scaled, flows.is_attack, flows.categories, flows.original_indices)


def split_benign(
    flows: FlowTable, train_fraction: float, seed: int
) -> tuple[FlowTable, FlowTable]:
    """Split benign records into train/test partitions of sizes
    floor(f*B) and B - floor(f*B): a contiguous prefix/suffix split of the
    seeded shuffle, so both partitions window into identically distributed
    sequences. Attack records never appear in either output.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    benign_idx = np.flatnonzero(~flows.is_attack)
    if benign_idx.size == 0:
        raise NoBenignRecords("table contains no benign records")
    perm = rng_from(seed).permutation(benign_idx)
    n_train = int(math.floor(train_fraction * benign_idx.size))
    return flows.select(perm[:n_train]), flows.select(perm[n_train:])

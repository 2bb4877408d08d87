"""Flow CSV ingestion, min-max normalization, and benign train/test splitting.

Flows are kept columnar in a :class:`FlowTable`.
"""

from __future__ import annotations

import codecs
import csv
import math
import re
from dataclasses import dataclass
from itertools import repeat
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
    UndecodableText,
)
from .rng import rng_from

BENIGN = "benign"
ATTACK = "attack"


def check_delimiter(value: str) -> str:
    """Return a CSV delimiter, which must be exactly one character."""
    if len(value) != 1:
        raise ValueError(f"delimiter must be one character, got {value!r}")
    return value


@dataclass(frozen=True)
class FlowSchema:
    """Column layout of a labeled flow CSV.

    Label values are compared against ``benign_label_value`` as exact
    strings; every non-matching value is treated as an attack.
    """

    feature_columns: tuple[str, ...]
    label_column: str = "label"
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
        if not all(names) or not self.benign_label_value:
            raise ValueError("column names and the benign label must be non-empty")
        check_delimiter(self.delimiter)
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
    a data row with fewer cells than the header raises :class:`ShortRow`,
    and a row holding bytes that are not text in the file's encoding
    raises :class:`UndecodableText`.

    Plain files take a columnar fast path; every other file is parsed row
    by row with the ``csv`` module. Both give the same table.
    """
    path = Path(path)
    table = _load_columnar(path, schema)
    return table if table is not None else _load_csv(path, schema)


def read_header(path: str | Path, delimiter: str) -> list[str]:
    """The header row of a CSV, as :func:`load_flows` reads it."""
    with Path(path).open(newline="", errors="surrogateescape") as fh:
        lines = _CheckedLines(fh)
        header = next(csv.reader(lines, delimiter=delimiter), None)
    if header is None:
        raise EmptyFile(f"{path} has no header row")
    if lines.undecodable:
        raise UndecodableText(path, None, fh.encoding)
    return header


def _required_columns(schema: FlowSchema) -> list[str]:
    required = list(schema.feature_columns) + [schema.label_column]
    if schema.attack_category_column is not None:
        required.append(schema.attack_category_column)
    return required


class _CheckedLines:
    """The lines of a text file opened with ``errors="surrogateescape"``;
    ``undecodable`` turns true once a line holds bytes the file's encoding
    cannot decode."""

    _ESCAPED = re.compile("[\udc80-\udcff]")

    def __init__(self, fh):
        self.fh = fh
        self.undecodable = False

    def __iter__(self):
        for line in self.fh:
            if not line.isascii() and self._ESCAPED.search(line):
                self.undecodable = True
            yield line


# Bytes the columnar parser reads at a time. It holds one block's lines and
# cells besides the growing table; 256 KiB parses as fast as larger blocks.
_BLOCK_BYTES = 1 << 18


def _load_columnar(path: Path, schema: FlowSchema) -> FlowTable | None:
    """Parse a flow CSV in bounded byte blocks, one column at a time.

    Each block is cut at its last newline and split into lines and cells in
    bulk. Feature cells are converted by Python's ``float`` on their bytes,
    labels compared as bytes, and category cells decoded once per block, so
    the table equals the ``csv`` path's bit for bit. Returns None, and the
    caller parses the file with the ``csv`` module, for anything read
    otherwise there: a file not opened as UTF-8, a quote character, a NUL
    byte, a carriage return outside a CRLF pair, bytes that are not UTF-8,
    a header without every required column, a row whose cell count differs
    from the header's, a line longer than the ``csv`` field limit or the
    block, and a cell that is not a finite float.
    """
    delimiter = schema.delimiter
    if not delimiter.isascii() or delimiter in '"\r\n\0':
        return None
    sep = delimiter.encode()
    # a lone surrogate in the label matches no UTF-8 cell, as on the csv path
    benign = schema.benign_label_value.encode("utf-8", "surrogatepass")
    n_features = schema.n_features
    header: list[str] | None = None
    features: list[np.ndarray] = [np.empty((0, n_features))]
    attacks: list[np.ndarray] = [np.empty(0, dtype=bool)]
    cats: list[str | None] = []
    with path.open(newline="") as fh:
        if codecs.lookup(fh.encoding).name != "utf-8":
            return None
        pending = b""
        while True:
            block = fh.buffer.read(_BLOCK_BYTES)
            data = pending + block
            if not data:
                break
            cut = data.rfind(b"\n") + 1 if block else len(data)
            if not cut:
                if len(data) > _BLOCK_BYTES:
                    return None
                pending = data
                continue
            chunk, pending = data[:cut], data[cut:]
            if b'"' in chunk or b"\0" in chunk:
                return None
            if b"\r" in chunk:
                if chunk.count(b"\r") != chunk.count(b"\r\n"):
                    return None
                chunk = chunk.replace(b"\r\n", b"\n")
            if not chunk.isascii():
                try:
                    chunk.decode("utf-8")
                except UnicodeDecodeError:
                    return None
            lines = chunk.split(b"\n")
            if not lines[-1]:
                lines.pop()
            if header is None:
                header = lines.pop(0).decode("utf-8").split(delimiter)
                required = _required_columns(schema)
                if not set(required) <= set(header):
                    return None
                n_cols = len(header)
                columns = [header.index(c) for c in required]
                label_col = columns[n_features]
                cat_col = columns[-1] if schema.attack_category_column is not None else None
            if b"" in lines:
                lines = [line for line in lines if line]
            if not lines:
                continue
            if max(map(len, lines)) > csv.field_size_limit():
                return None
            if list(map(bytes.count, lines, repeat(sep))).count(n_cols - 1) != len(lines):
                return None
            n = len(lines)
            cells = sep.join(lines).split(sep)
            values = np.empty((n, n_features))
            try:
                for k, j in enumerate(columns[:n_features]):
                    values[:, k] = np.fromiter(map(float, cells[j::n_cols]), np.float64, n)
            except ValueError:
                return None
            if not np.isfinite(values).all():
                return None
            features.append(values)
            attacks.append(np.fromiter(map(benign.__ne__, cells[label_col::n_cols]), bool, n))
            if cat_col is None:
                cats.extend([None] * n)
            else:
                names = b"\n".join(cells[cat_col::n_cols]).decode("utf-8").split("\n")
                none_if_empty = {name: name or None for name in set(names)}
                cats.extend(map(none_if_empty.__getitem__, names))
    if header is None:
        return None
    return FlowTable(
        np.concatenate(features), np.concatenate(attacks), cats, np.arange(len(cats))
    )


def _load_csv(path: Path, schema: FlowSchema) -> FlowTable:
    """Parse a flow CSV row by row with the ``csv`` module."""
    with path.open(newline="", errors="surrogateescape") as fh:
        lines = _CheckedLines(fh)
        reader = csv.reader(lines, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} has no header row") from None
        if lines.undecodable:
            raise UndecodableText(path, None, fh.encoding)

        required = _required_columns(schema)
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
            if lines.undecodable:
                raise UndecodableText(path, row_index, fh.encoding)
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
    # one (records, n_features) array, the output, worked on in place; a NaN
    # span counts as zero
    scaled = np.subtract(flows.features, stats.minimum)
    scaled /= np.where(span > 0, span, 1.0)
    scaled[:, ~(span > 0)] = 0.0
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

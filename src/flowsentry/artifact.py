"""Versioned binary container for trained models.

Byte layout (all integers little-endian):

    offset 0   magic            4 bytes, b"FSNT"
    offset 4   format version   uint32
    offset 8   header length    uint64
    offset 16  header           UTF-8 JSON, sorted keys
    then       payload          tensors concatenated, row-major float64 LE

The header holds the model config, the optional calibrated threshold, and a
tensor directory (name, shape, byte offset into the payload). Normalization
stats travel as the tensors "norm.min" / "norm.max". Round-trips are
bit-exact and serialization is byte-deterministic (no timestamps).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .detector import ThresholdModel
from .errors import CorruptArtifact, InvalidConfig, VersionMismatch
from .ingest import NormalizationStats
from .model import AutoencoderModel, ModelConfig, param_layout

MAGIC = b"FSNT"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")


@dataclass(frozen=True)
class Artifact:
    model: AutoencoderModel
    threshold: ThresholdModel | None = None
    metadata: dict | None = None  # free-form run metadata (e.g. loss weights)


def to_bytes(
    model: AutoencoderModel,
    threshold: ThresholdModel | None = None,
    metadata: dict | None = None,
) -> bytes:
    tensors: dict[str, np.ndarray] = {k: model.params[k] for k in model.param_names()}
    if model.norm_stats is not None:
        tensors["norm.min"] = model.norm_stats.minimum
        tensors["norm.max"] = model.norm_stats.maximum

    directory = []
    chunks = []
    offset = 0
    for name in sorted(tensors):
        data = np.ascontiguousarray(tensors[name], dtype="<f8").tobytes()
        directory.append({"name": name, "shape": list(tensors[name].shape), "offset": offset})
        chunks.append(data)
        offset += len(data)

    header = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "has_norm_stats": model.norm_stats is not None,
        "threshold": None if threshold is None else asdict(threshold),
        "metadata": metadata,
        "tensors": directory,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return (
        _PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes))
        + header_bytes
        + b"".join(chunks)
    )


def from_bytes(data: bytes) -> Artifact:
    if len(data) < _PREFIX.size:
        raise CorruptArtifact("artifact shorter than its fixed prefix")
    magic, version, header_len = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise CorruptArtifact("bad magic bytes")
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"artifact format version {version}, supported {FORMAT_VERSION}"
        )
    header_end = _PREFIX.size + header_len
    if len(data) < header_end:
        raise CorruptArtifact("truncated header")
    try:
        header = json.loads(data[_PREFIX.size : header_end].decode("utf-8"))
        config = ModelConfig(**header["model_config"])
        directory = header["tensors"]
    except (ValueError, KeyError, TypeError, InvalidConfig) as exc:
        raise CorruptArtifact(f"malformed header: {exc}") from None

    expected = {name: shape for name, (shape, _) in param_layout(config).items()}
    if header.get("has_norm_stats"):
        expected["norm.min"] = expected["norm.max"] = (config.input_dim,)
    payload = data[header_end:]
    tensors: dict[str, np.ndarray] = {}
    for name, (start, end) in _tensor_ranges(directory, expected, len(payload)).items():
        tensor = np.frombuffer(payload[start:end], dtype="<f8").astype(np.float64)
        if not np.isfinite(tensor).all():
            raise CorruptArtifact(f"non-finite values in tensor {name!r}")
        tensors[name] = tensor.reshape(expected[name])

    norm_stats = None
    if header.get("has_norm_stats"):
        try:
            norm_stats = NormalizationStats(tensors.pop("norm.min"), tensors.pop("norm.max"))
        except ValueError as exc:
            raise CorruptArtifact(f"malformed normalization stats: {exc}") from None

    threshold = None
    if header.get("threshold") is not None:
        try:
            threshold = ThresholdModel(**header["threshold"])
        except (TypeError, ValueError) as exc:
            raise CorruptArtifact(f"malformed threshold: {exc}") from None

    return Artifact(
        AutoencoderModel(config, tensors, norm_stats),
        threshold,
        header.get("metadata"),
    )


def _tensor_ranges(
    directory: object, expected: dict[str, tuple[int, ...]], payload_len: int
) -> dict[str, tuple[int, int]]:
    """Check the tensor directory against the expected name -> shape table
    and the payload length, before any tensor is allocated, and return each
    tensor's byte range in the payload."""
    if not isinstance(directory, list):
        raise CorruptArtifact("tensor directory is not a list")
    ranges: dict[str, tuple[int, int]] = {}
    for entry in directory:
        if not isinstance(entry, dict) or not {"name", "offset", "shape"} <= entry.keys():
            raise CorruptArtifact("tensor entry needs a name, an offset and a shape")
        name, offset, shape = entry["name"], entry["offset"], entry["shape"]
        if not isinstance(name, str):
            raise CorruptArtifact(f"tensor name {name!r} is not a string")
        if not isinstance(shape, list) or not all(_is_count(v) for v in (offset, *shape)):
            raise CorruptArtifact(f"tensor {name!r} needs a non-negative integer offset and shape")
        if name in ranges:
            raise CorruptArtifact(f"duplicate tensor {name!r}")
        if expected.get(name) != tuple(shape):
            raise CorruptArtifact("tensor directory does not match the model config")
        ranges[name] = (offset, offset + 8 * math.prod(shape))
        if ranges[name][1] > payload_len:
            raise CorruptArtifact(f"truncated payload for tensor {name!r}")
    if ranges.keys() != expected.keys():
        raise CorruptArtifact("tensor directory does not match the model config")
    by_start = sorted(ranges.items(), key=lambda item: item[1])
    for (a, (_, a_end)), (b, (b_start, _)) in zip(by_start, by_start[1:]):
        if b_start < a_end:
            raise CorruptArtifact(f"tensors {a!r} and {b!r} overlap")
    return ranges


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def save_artifact(
    path: str | Path,
    model: AutoencoderModel,
    threshold: ThresholdModel | None = None,
    metadata: dict | None = None,
) -> None:
    Path(path).write_bytes(to_bytes(model, threshold, metadata))


def load_artifact(path: str | Path) -> Artifact:
    return from_bytes(Path(path).read_bytes())

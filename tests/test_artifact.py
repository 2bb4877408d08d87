import json
import struct

import numpy as np
import pytest

from flowsentry.artifact import FORMAT_VERSION, from_bytes, load_artifact, save_artifact, to_bytes
from flowsentry.detector import ThresholdModel
from flowsentry.errors import CorruptArtifact, VersionMismatch
from flowsentry.ingest import NormalizationStats
from flowsentry.model import ModelConfig, init_model


def make_model(mode="deterministic"):
    stats = NormalizationStats(np.array([0.0, 1.0]), np.array([2.0, 5.0]))
    cfg = ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, mode=mode, seed=7)
    return init_model(cfg, stats)


def test_round_trip_bit_exact():
    model = make_model()
    thr = ThresholdModel(threshold=0.123456789012345, percentile=99.0, calibration_count=42)
    art = from_bytes(to_bytes(model, thr, metadata={"lam_rec": 0.8}))
    assert art.model.config == model.config
    for k in model.param_names():
        np.testing.assert_array_equal(art.model.params[k], model.params[k])
    np.testing.assert_array_equal(art.model.norm_stats.minimum, model.norm_stats.minimum)
    np.testing.assert_array_equal(art.model.norm_stats.maximum, model.norm_stats.maximum)
    assert art.threshold == thr
    assert art.metadata == {"lam_rec": 0.8}


def test_round_trip_variational_without_threshold():
    model = make_model(mode="variational")
    art = from_bytes(to_bytes(model))
    assert art.threshold is None
    assert art.metadata is None
    for k in model.param_names():
        np.testing.assert_array_equal(art.model.params[k], model.params[k])


def test_serialization_is_byte_deterministic():
    assert to_bytes(make_model()) == to_bytes(make_model())


def test_truncated_bytes_raise_corrupt():
    data = to_bytes(make_model())
    for cut in (0, 3, 10, len(data) // 2, len(data) - 1):
        with pytest.raises(CorruptArtifact):
            from_bytes(data[:cut])


def test_bad_magic():
    data = to_bytes(make_model())
    with pytest.raises(CorruptArtifact):
        from_bytes(b"XXXX" + data[4:])


def test_version_mismatch():
    data = bytearray(to_bytes(make_model()))
    data[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
    with pytest.raises(VersionMismatch):
        from_bytes(bytes(data))


def test_mangled_header_raises_corrupt():
    model = make_model()
    data = to_bytes(model)
    header_start = 16
    mangled = data[:header_start] + b"X" + data[header_start + 1 :]
    with pytest.raises(CorruptArtifact):
        from_bytes(mangled)


def test_file_round_trip(tmp_path):
    model = make_model()
    path = tmp_path / "model.fsn"
    save_artifact(path, model, metadata={"note": "x"})
    art = load_artifact(path)
    assert art.metadata == {"note": "x"}
    for k in model.param_names():
        np.testing.assert_array_equal(art.model.params[k], model.params[k])


def repack(data: bytes, edit_header=None, edit_payload=None) -> bytes:
    """Artifact bytes with the header JSON and/or payload rewritten."""
    header_len = struct.unpack_from("<Q", data, 8)[0]
    header = json.loads(data[16 : 16 + header_len])
    payload = bytearray(data[16 + header_len :])
    if edit_header is not None:
        edit_header(header)
    if edit_payload is not None:
        edit_payload(header, payload)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return data[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + bytes(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_threshold_raises_corrupt(bad):
    thr = ThresholdModel(threshold=0.25, percentile=99.0, calibration_count=3)
    data = to_bytes(make_model(), thr)
    assert from_bytes(repack(data)).threshold == thr

    def set_threshold(header):
        header["threshold"]["threshold"] = bad

    with pytest.raises(CorruptArtifact, match="threshold"):
        from_bytes(repack(data, edit_header=set_threshold))


@pytest.mark.parametrize("name", ["enc0.U", "norm.max"])
@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_non_finite_tensor_raises_corrupt(name, bad):
    data = to_bytes(make_model())

    def poison(header, payload):
        entry = next(e for e in header["tensors"] if e["name"] == name)
        struct.pack_into("<d", payload, entry["offset"] + 8, bad)

    with pytest.raises(CorruptArtifact, match=name):
        from_bytes(repack(data, edit_payload=poison))

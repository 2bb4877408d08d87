import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.artifact import FORMAT_VERSION, from_bytes, load_artifact, save_artifact, to_bytes
from flowsentry.detector import ThresholdModel
from flowsentry.errors import CorruptArtifact, FlowSentryError, VersionMismatch
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


def _entry(header, name):
    return next(e for e in header["tensors"] if e["name"] == name)


def _set_offset(name, value):
    def edit(header):
        _entry(header, name)["offset"] = value
    return edit


def _set_dim(name, value):
    def edit(header):
        _entry(header, name)["shape"][0] = value
    return edit


def _drop_key(key):
    def edit(header):
        del _entry(header, "enc0.W")[key]
    return edit


def _duplicate(header):
    header["tensors"].append(dict(_entry(header, "enc0.W")))


def _overlap(header):
    _entry(header, "enc0.b")["offset"] = _entry(header, "enc0.W")["offset"] + 8


def _huge_model(header):
    header["model_config"]["hidden_dim"] = 2**40


HOSTILE = {
    "directory-not-a-list": (lambda h: h.update(tensors={"enc0.W": 0}), "not a list"),
    "no-name": (_drop_key("name"), "needs a name"),
    "no-offset": (_drop_key("offset"), "needs a name"),
    "no-shape": (_drop_key("shape"), "needs a name"),
    "string-offset": (_set_offset("enc0.U", "16"), "non-negative integer"),
    "bool-offset": (_set_offset("enc0.U", True), "non-negative integer"),
    "float-offset": (_set_offset("enc0.U", 1.5), "non-negative integer"),
    "negative-offset": (_set_offset("enc0.U", -8), "non-negative integer"),
    "offset-past-payload": (_set_offset("enc0.U", 2**63), "truncated payload"),
    "negative-dim": (_set_dim("enc0.U", -16), "non-negative integer"),
    "bool-dim": (_set_dim("enc0.U", False), "non-negative integer"),
    "huge-dim": (_set_dim("enc0.U", 2**40), "does not match"),
    "duplicate-name": (_duplicate, "duplicate tensor"),
    "overlapping-ranges": (_overlap, "overlap"),
    "huge-model": (_huge_model, "does not match"),
    "huge-layer-count": (
        lambda h: h["model_config"].update(num_layers=2**40), "does not match"
    ),
    "missing-tensor": (lambda h: h["tensors"].pop(), "does not match"),
    "float-model-dim": (lambda h: h["model_config"].update(hidden_dim=4.0), "malformed header"),
}


@pytest.mark.parametrize("edit, message", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_directory_raises_corrupt(edit, message):
    data = to_bytes(make_model())
    with pytest.raises(CorruptArtifact, match=message):
        from_bytes(repack(data, edit_header=edit))


_JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, -1, 0, 1, 2, 3, 8, 2**40, -(2**40), 2**63, 1.5, "x", "", [], {}]),
    st.lists(st.sampled_from([-1, 0, 1, 2**40, "x"]), max_size=3),
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_header_raises_only_flowsentry_errors(data):
    """Only typed errors escape from_bytes whatever the header JSON says,
    and no mutation makes it allocate a tensor the payload does not hold."""
    thr = ThresholdModel(threshold=0.25, percentile=99.0, calibration_count=3)
    raw = to_bytes(make_model(data.draw(st.sampled_from(["deterministic", "variational"]))), thr)

    def mutate(header):
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_paths(header))[1:]))
            parent = header
            for step in path[:-1]:
                parent = parent[step]
            if data.draw(st.booleans()) or not isinstance(parent, dict):
                parent[path[-1]] = data.draw(_JSON_VALUES)
            else:
                del parent[path[-1]]

    try:
        from_bytes(repack(raw, edit_header=mutate))
    except FlowSentryError:
        pass

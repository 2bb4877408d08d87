import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.config import PipelineConfig, load_config_values
from flowsentry.ingest import FlowSchema


def schema():
    return FlowSchema(("f0", "f1"), "label", "category")


def test_protocol_defaults():
    cfg = PipelineConfig(schema=schema())
    assert cfg.sequence_length == 25
    assert cfg.noise_scale == 0.01
    assert cfg.percentile == 99.0
    assert cfg.smote_multiplier is None
    assert cfg.train_fraction == 0.8
    assert cfg.train.margin == 1.0
    assert cfg.train.epochs == 50
    assert cfg.train.batch_size == 64
    assert cfg.train.learning_rate == 1e-3


def test_model_and_triplet_configs_derive_from_root_seed():
    cfg = PipelineConfig(schema=schema(), seed=5)
    mc = cfg.model_config()
    assert mc.input_dim == 2
    assert mc.hidden_dim == 64 and mc.latent_dim == 32
    tc = cfg.triplet_config()
    assert tc.sequence_length == 25
    assert tc.noise_scale == 0.01
    # sub-streams are independent
    assert mc.seed != tc.seed
    assert cfg.model_config().seed == mc.seed  # stable


def test_percentile_validation():
    with pytest.raises(ValueError):
        PipelineConfig(schema=schema(), percentile=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(schema=schema(), smote_multiplier=0.5)


def test_ini_loading(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(
        """
[schema]
feature_columns = f0, f1
label_column = label

[sequencing]
length = 10
noise_scale = 0.02

[train]
epochs = 7
lambda_rec = 0.6

[detector]
percentile = 95

[pipeline]
seed = 42
"""
    )
    values = load_config_values(path)
    assert values["feature_columns"] == "f0, f1"
    assert values["sequence_length"] == 10
    assert values["noise_scale"] == 0.02
    assert values["epochs"] == 7
    assert values["lambda_rec"] == 0.6
    assert values["percentile"] == 95.0
    assert values["seed"] == 42


def test_readme_ini_example_names_every_key(tmp_path):
    import re
    from pathlib import Path

    from flowsentry.config import OPTIONS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    values = load_config_values(path)
    assert set(values) == {o.dest for o in OPTIONS}


@pytest.mark.parametrize(
    "text",
    ["epochs = 5\n", "[model]\nmode\n", "[a]\n[a]\n", "[train]\nepochs = 1\nepochs = 2\n",
     "[train]\nepohcs = 5\n", "[trian]\n", "[sequencing]\nnoise_scale = nan\n",
     "[smote]\nmultiplier = inf\n", "[schema]\ndelimiter =\n"],
)
def test_ini_rejections_are_invalid_config(tmp_path, text):
    from flowsentry.errors import InvalidConfig

    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(InvalidConfig):
        load_config_values(path)


def test_schema_delimiter_must_be_one_character():
    for delimiter in ("", ";;"):
        with pytest.raises(ValueError, match="delimiter must be one character"):
            FlowSchema(("f0",), "label", delimiter=delimiter)


def test_non_finite_values_rejected_before_the_dataclasses():
    from flowsentry.config import OPTIONS, finite
    from flowsentry.errors import InvalidConfig

    for option in OPTIONS:
        if option.cast is finite:
            for text in ("nan", "inf", "-inf"):
                with pytest.raises(InvalidConfig, match=f"^{option.dest}: must be a finite"):
                    option.parse(text)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["smote_multiplier", "noise_scale"])
def test_non_finite_pipeline_floats_rejected(field, bad):
    with pytest.raises(ValueError, match=field.split("_")[0]):
        PipelineConfig(schema=schema(), **{field: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["percentile", "train_fraction"])
def test_two_sided_ranges_reject_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(schema=schema(), **{field: bad})


def test_undecodable_ini_names_the_file(tmp_path):
    from flowsentry.errors import InvalidConfig

    path = tmp_path / "c.ini"
    path.write_bytes(b"[train]\nepochs = 3\xff\n")
    with pytest.raises(InvalidConfig, match=f"{path}: not valid utf-8 text"):
        load_config_values(path)


# pieces that reach configparser's syntax, its interpolation, the casts and
# the decoder
INI_PIECES = [b"\xff", b"\x80", b"\xc3", b"\x00", b"%", b"%(x)s", b"[", b"]", b"=", b":",
              b"\n", b"\r", b" ", b";", b"#", b"-", b"0", b"9", b"1e999", b"nan", b"9" * 5000,
              b"[DEFAULT]\n", b"[train]\n", b"epochs = ", b"\t"]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_ini_raises_only_flowsentry_errors(tmp_path_factory, data):
    import re
    from pathlib import Path

    from flowsentry.errors import FlowSentryError

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = bytearray(re.findall(r"```ini\n(.*?)```", readme, re.S)[0].encode())
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(text)))
        piece = data.draw(st.sampled_from(INI_PIECES))
        cut = data.draw(st.integers(0, 8))  # bytes replaced; 0 inserts
        text[at : at + cut] = piece if data.draw(st.booleans()) else b""
    path = tmp_path_factory.mktemp("ini") / "c.ini"
    path.write_bytes(bytes(text))
    try:
        load_config_values(path)
    except FlowSentryError:
        pass

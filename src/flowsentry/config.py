"""Pipeline configuration: one table of options behind flags, INI keys and
dataclass defaults.

Each pipeline option is one row of :data:`OPTIONS`: its argparse dest, its
INI (section, key), the cast applied to its text, the subcommands that take
it and, when not named like the dest, the dataclass field it sets. A flag
value overrides a config-file value; an option set by neither takes the
default of its dataclass field.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from .errors import InvalidConfig
from .ingest import FlowSchema, check_delimiter, read_header
from .model import MODE_DETERMINISTIC, ModelConfig
from .rng import derive_seed
from .sequencing import TripletConfig
from .smote import SmoteConfig
from .trainer import TrainConfig


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end knobs of the batch pipeline.

    Defaults pin the fixed experimental protocol: sequence length 25,
    positive-noise scale 0.01, threshold percentile 99.
    """

    schema: FlowSchema
    sequence_length: int = 25
    stride: int | None = None
    noise_scale: float = 0.01
    percentile: float = 99.0
    smote_multiplier: float | None = None  # None = SMOTE off
    smote_k: int = 5
    train: TrainConfig = field(default_factory=TrainConfig)
    hidden_dim: int = 64
    latent_dim: int = 32
    num_layers: int = 1
    mode: str = MODE_DETERMINISTIC
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must lie in (0, 100]")
        multiplier = self.smote_multiplier
        if multiplier is not None and not (math.isfinite(multiplier) and multiplier >= 1.0):
            raise ValueError("smote multiplier must be finite and >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        SmoteConfig(target_count=0, k_neighbors=self.smote_k)
        self.model_config()
        self.triplet_config()

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            input_dim=self.schema.n_features,
            hidden_dim=self.hidden_dim,
            latent_dim=self.latent_dim,
            num_layers=self.num_layers,
            mode=self.mode,
            seed=derive_seed(self.seed, "init"),
        )

    def triplet_config(self) -> TripletConfig:
        return TripletConfig(
            sequence_length=self.sequence_length,
            stride=self.stride,
            noise_scale=self.noise_scale,
            seed=derive_seed(self.seed, "triplets"),
        )


def finite(text: str) -> float:
    """The cast of every float option: NaN and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def split_names(text: str) -> tuple[str, ...]:
    """Comma-separated names, blanks dropped."""
    return tuple(x.strip() for x in text.split(",") if x.strip())


PIPELINE = ("train", "calibrate", "detect", "eval", "sweep", "transfer")
MODEL = ("train", "sweep")
TRAINING = ("train", "sweep", "transfer")


@dataclass(frozen=True)
class Option:
    """One pipeline option. Its flag is ``--dest`` with dashes. A value from
    a [schema] key sets a FlowSchema field, one from a [train] key a
    TrainConfig field, any other a PipelineConfig field."""

    dest: str
    section: str
    key: str
    cast: Callable[[str], object]
    commands: tuple[str, ...]  # the subcommands that take the option
    attr: str = ""  # the dataclass field, when it is not named like the dest
    help: str = ""

    @property
    def target(self) -> str:
        return self.section if self.section in ("schema", "train") else "pipeline"

    def parse(self, text: str) -> object:
        try:
            return self.cast(text)
        except ValueError as exc:
            raise InvalidConfig(f"{self.dest}: {exc}") from None


OPTIONS = (
    Option("feature_columns", "schema", "feature_columns", str, PIPELINE,
           help="comma-separated names (default: every column but label/category)"),
    Option("label_column", "schema", "label_column", str, PIPELINE),
    Option("category_column", "schema", "category_column", str, PIPELINE,
           "attack_category_column"),
    Option("benign_label", "schema", "benign_label", str, PIPELINE, "benign_label_value"),
    Option("delimiter", "schema", "delimiter", check_delimiter, PIPELINE),
    Option("sequence_length", "sequencing", "length", int, PIPELINE),
    Option("stride", "sequencing", "stride", int, PIPELINE),
    Option("noise_scale", "sequencing", "noise_scale", finite, PIPELINE),
    Option("hidden_dim", "model", "hidden_dim", int, MODEL),
    Option("latent_dim", "model", "latent_dim", int, MODEL),
    Option("num_layers", "model", "num_layers", int, MODEL),
    Option("mode", "model", "mode", str, MODEL, help="deterministic or variational"),
    Option("lambda_rec", "train", "lambda_rec", finite, TRAINING, "lam_rec"),
    Option("lambda_tml", "train", "lambda_tml", finite, TRAINING, "lam_tml"),
    Option("lambda_kl", "train", "lambda_kl", finite, TRAINING, "lam_kl"),
    Option("margin", "train", "margin", finite, TRAINING),
    Option("epochs", "train", "epochs", int, TRAINING),
    Option("batch_size", "train", "batch_size", int, TRAINING),
    Option("learning_rate", "train", "learning_rate", finite, TRAINING),
    Option("percentile", "detector", "percentile", finite,
           ("train", "calibrate", "sweep", "transfer")),
    Option("smote", "smote", "multiplier", finite, TRAINING, "smote_multiplier",
           "benign oversampling multiplier (omit to disable SMOTE)"),
    Option("smote_k", "smote", "k_neighbors", int, TRAINING),
    Option("seed", "pipeline", "seed", int, PIPELINE, help="root seed"),
    Option("train_fraction", "pipeline", "train_fraction", finite, TRAINING),
)
_BY_KEY = {(o.section, o.key): o for o in OPTIONS}
_SECTIONS = {o.section for o in OPTIONS}


def load_config_values(path: str | Path) -> dict[str, object]:
    """Read an INI config file into a dict of cast values keyed by dest.

    A file configparser cannot read, or a section or key that no option
    names, raises :class:`InvalidConfig`.
    """
    parser = configparser.ConfigParser()
    try:
        with Path(path).open() as fh:
            parser.read_file(fh)
        items = [(parser.default_section, k, v) for k, v in parser.defaults().items()]
        items += [(s, k, parser.get(s, k)) for s in parser.sections() for k in parser[s]]
    except configparser.Error as exc:
        raise InvalidConfig(f"{path}: {' '.join(str(exc).split())}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise InvalidConfig(f"{path}: unknown section [{section}]")
    values: dict[str, object] = {}
    for section, key, text in items:
        option = _BY_KEY.get((section, key))
        if option is None:
            raise InvalidConfig(f"{path}: unknown key [{section}] {key}")
        values[option.dest] = option.parse(text)
    return values


def _header_features(path: str | Path, schema: Mapping[str, object]) -> tuple[str, ...]:
    """Every header column of the flow CSV except the label and category."""
    header = read_header(path, schema.get("delimiter", FlowSchema.delimiter))
    skip = {
        schema.get("label_column", FlowSchema.label_column),
        schema.get("attack_category_column", FlowSchema.attack_category_column),
    }
    return tuple(c for c in header if c not in skip)


def pipeline_config(values: Mapping[str, object], flows: str | Path) -> PipelineConfig:
    """Build the pipeline config from cast values keyed by dest.

    Only the options in ``values`` are passed on, so every other option takes
    its dataclass default. Without feature columns, they are every header
    column of ``flows`` except the label and category. A value the
    dataclasses reject raises :class:`InvalidConfig`.
    """
    kwargs: dict[str, dict[str, object]] = {"schema": {}, "train": {}, "pipeline": {}}
    for o in OPTIONS:
        if o.dest in values:
            kwargs[o.target][o.attr or o.dest] = values[o.dest]
    schema = kwargs["schema"]
    schema["feature_columns"] = split_names(schema.get("feature_columns", ""))
    if not schema["feature_columns"]:
        schema["feature_columns"] = _header_features(flows, schema)
    try:
        cfg = PipelineConfig(
            schema=FlowSchema(**schema), train=TrainConfig(**kwargs["train"]), **kwargs["pipeline"]
        )
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None
    return replace(cfg, train=replace(cfg.train, seed=derive_seed(cfg.seed, "training")))

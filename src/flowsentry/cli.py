"""Batch command-line front end.

Subcommands: generate, train, calibrate, detect, eval, sweep, transfer,
threat. Data goes to files, diagnostics to stderr; every command is
deterministic given (inputs, config, seed). Flag values override config-file
values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .artifact import load_artifact, save_artifact
from .config import PipelineConfig, load_config_values
from .detector import calibrate, classify_many
from .errors import DimensionMismatch, FlowSentryError
from .evaluator import evaluate_detector
from .ingest import FlowSchema, FlowTable, fit_normalizer, load_flows, normalize, split_benign
from .model import AutoencoderModel, init_model
from .rng import derive_seed
from .sequencing import build_sequences, make_triplets
from .smote import SmoteConfig, smote_oversample
from .synthetic import SyntheticSpec, generate_flows, write_flows_csv
from .threat import (
    BruteForceParams,
    DosParams,
    ReconParams,
    brute_force_expected_time,
    brute_force_success_prob,
    dos_overload,
    recon_detect_prob,
    recon_search_space,
    recon_success_prob,
)
from .trainer import (
    DEFAULT_GRID,
    FREEZE_REGIMES,
    FreezeSpec,
    SweepEvalData,
    TrainConfig,
    TrainReport,
    sweep,
    train,
)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _comma_names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--seed", type=int, default=None, help="root seed")


def _add_schema(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--feature-columns",
        default=None,
        help="comma-separated feature column names (default: all but label/category)",
    )
    p.add_argument("--label-column", default=None)
    p.add_argument("--category-column", default=None)
    p.add_argument("--benign-label", default=None)
    p.add_argument("--delimiter", default=None)


def _add_sequencing(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sequence-length", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--noise-scale", type=float, default=None)


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden-dim", type=int, default=None)
    p.add_argument("--latent-dim", type=int, default=None)
    p.add_argument("--num-layers", type=int, default=None)
    p.add_argument("--mode", choices=["deterministic", "variational"], default=None)


def _add_train(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-rec", type=float, default=None)
    p.add_argument("--lambda-tml", type=float, default=None)
    p.add_argument("--lambda-kl", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)


def _add_detector(p: argparse.ArgumentParser) -> None:
    p.add_argument("--percentile", type=float, default=None)


def _add_smote(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--smote",
        type=float,
        default=None,
        help="benign oversampling multiplier (omit to disable SMOTE)",
    )
    p.add_argument("--smote-k", type=int, default=None)


def _resolve(args: argparse.Namespace, **overrides) -> PipelineConfig:
    """Merge CLI flags over config-file values over dataclass defaults."""
    file_vals = load_config_values(args.config) if getattr(args, "config", None) else {}

    def get(dest: str, fallback):
        v = getattr(args, dest, None)
        if v is not None:
            return v
        return file_vals.get(dest, fallback)

    features = get("feature_columns", None)
    if isinstance(features, str):
        features = _comma_names(features)
    schema = FlowSchema(
        feature_columns=features if features else ("__infer__",),
        label_column=get("label_column", "label"),
        attack_category_column=get("category_column", None),
        benign_label_value=get("benign_label", "benign"),
        delimiter=get("delimiter", ","),
    )
    train_cfg = TrainConfig(
        lam_rec=get("lambda_rec", overrides.get("lam_rec", TrainConfig.lam_rec)),
        lam_tml=get("lambda_tml", overrides.get("lam_tml", TrainConfig.lam_tml)),
        lam_kl=get("lambda_kl", TrainConfig.lam_kl),
        margin=get("margin", TrainConfig.margin),
        epochs=get("epochs", TrainConfig.epochs),
        batch_size=get("batch_size", TrainConfig.batch_size),
        learning_rate=get("learning_rate", TrainConfig.learning_rate),
    )
    seed = get("seed", 0)
    return PipelineConfig(
        schema=schema,
        sequence_length=get("sequence_length", 25),
        stride=get("stride", None),
        noise_scale=get("noise_scale", 0.01),
        percentile=get("percentile", 99.0),
        smote_multiplier=get("smote", None),
        smote_k=get("smote_k", 5),
        train=replace(train_cfg, seed=derive_seed(seed, "training")),
        hidden_dim=get("hidden_dim", 64),
        latent_dim=get("latent_dim", 32),
        num_layers=get("num_layers", 1),
        mode=get("mode", "deterministic"),
        train_fraction=get("train_fraction", 0.8),
        seed=seed,
    )


def _load_table(path: str, cfg: PipelineConfig) -> tuple[FlowTable, PipelineConfig]:
    """Load a flow CSV; when feature columns are unspecified, infer them as
    every header column except the label / category ones."""
    schema = cfg.schema
    if schema.feature_columns == ("__infer__",):
        with Path(path).open(newline="") as fh:
            header = next(csv.reader(fh, delimiter=schema.delimiter), None)
        if header is None:
            raise FlowSentryError(f"{path} has no header row")
        skip = {schema.label_column, schema.attack_category_column}
        inferred = tuple(c for c in header if c not in skip)
        schema = replace(schema, feature_columns=inferred)
        cfg = replace(cfg, schema=schema)
    return load_flows(path, schema), cfg


def _write_train_report(path: Path, report: TrainReport) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["epoch", "joint_loss", "reconstruction_loss", "triplet_loss"]
        if report.kl_loss is not None:
            header.append("kl_loss")
        writer.writerow(header)
        for i in range(len(report.joint_loss)):
            row = [
                str(i),
                _fmt(report.joint_loss[i]),
                _fmt(report.reconstruction_loss[i]),
                _fmt(report.triplet_loss[i]),
            ]
            if report.kl_loss is not None:
                row.append(_fmt(report.kl_loss[i]))
            writer.writerow(row)


def _prepare_training_data(args, cfg: PipelineConfig):
    """Shared train/sweep pipeline: load, split, normalize, oversample,
    window, and build triplets."""
    table, cfg = _load_table(args.flows, cfg)
    benign_train, benign_test = split_benign(
        table, cfg.train_fraction, derive_seed(cfg.seed, "ingest-split")
    )
    stats = fit_normalizer(benign_train)
    benign_train = normalize(benign_train, stats)
    if cfg.smote_multiplier is not None:
        target = int(round(cfg.smote_multiplier * len(benign_train)))
        benign_train = smote_oversample(
            benign_train,
            SmoteConfig(
                target_count=target,
                k_neighbors=cfg.smote_k,
                seed=derive_seed(cfg.seed, "smote"),
            ),
        )
    train_seqs = build_sequences(benign_train, cfg.sequence_length, cfg.stride)
    triplets = make_triplets(train_seqs, cfg.triplet_config())
    return cfg, table, benign_test, stats, train_seqs, triplets


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    spec = SyntheticSpec(
        n_flows=args.flows,
        n_features=args.features,
        attack_fraction=args.attack_fraction,
        mean_shift=args.mean_shift,
        burst_flows=args.burst_flows,
        burst_alignment=args.burst_alignment,
        noise_sigma=args.noise_sigma,
        categories=_comma_names(args.categories),
        seed=args.seed if args.seed is not None else 0,
    )
    write_flows_csv(args.out, generate_flows(spec))
    print(args.out)
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    cfg, _, _, stats, train_seqs, triplets = _prepare_training_data(args, cfg)
    model = init_model(cfg.model_config(), stats)
    report = train(triplets, model, cfg.train)
    threshold = calibrate(model, train_seqs, cfg.percentile)
    save_artifact(args.model_out, model, threshold, metadata=asdict(cfg.train))
    report_path = Path(args.report_out or f"{args.model_out}.train.csv")
    _write_train_report(report_path, report)
    print(args.model_out)
    print(report_path)
    return 0


def cmd_calibrate(args) -> int:
    cfg = _resolve(args)
    art = load_artifact(args.model)
    model = art.model
    if model.norm_stats is None:
        raise FlowSentryError("artifact carries no normalization stats")
    table, cfg = _load_table(args.flows, cfg)
    if table.n_features != model.config.input_dim:
        raise DimensionMismatch(
            f"flows have {table.n_features} features, model expects {model.config.input_dim}"
        )
    benign = normalize(table.benign_only(), model.norm_stats)
    sequences = build_sequences(benign, cfg.sequence_length, cfg.stride)
    threshold = calibrate(model, sequences, cfg.percentile)
    out = args.model_out or args.model
    save_artifact(out, model, threshold, metadata=art.metadata)
    print(out)
    return 0


def cmd_detect(args) -> int:
    cfg = _resolve(args)
    art = load_artifact(args.model)
    model, threshold = art.model, art.threshold
    if threshold is None:
        raise FlowSentryError("artifact has no calibrated threshold; run calibrate")
    if model.norm_stats is None:
        raise FlowSentryError("artifact carries no normalization stats")
    table, cfg = _load_table(args.flows, cfg)
    if len(table) > 0 and table.n_features != model.config.input_dim:
        raise DimensionMismatch(
            f"flows have {table.n_features} features, "
            f"model expects {model.config.input_dim}"
        )
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["start_index", "score", "verdict"])
        if len(table) > 0:
            sequences = build_sequences(
                normalize(table, model.norm_stats), cfg.sequence_length, cfg.stride
            )
            for seq, verdict in zip(sequences, classify_many(model, threshold, sequences)):
                writer.writerow([str(seq.start_index), _fmt(verdict.score), verdict.label])
    print(out)
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    art = load_artifact(args.model)
    model, threshold = art.model, art.threshold
    if threshold is None:
        raise FlowSentryError("artifact has no calibrated threshold; run calibrate")
    if model.norm_stats is None:
        raise FlowSentryError("artifact carries no normalization stats")
    table, cfg = _load_table(args.flows, cfg)
    if table.n_features != model.config.input_dim:
        raise DimensionMismatch(
            f"flows have {table.n_features} features, model expects {model.config.input_dim}"
        )
    sequences = build_sequences(
        normalize(table, model.norm_stats), cfg.sequence_length, cfg.stride
    )
    benign = [s for s in sequences if not s.is_attack]
    attacks = [s for s in sequences if s.is_attack]
    report, codes = evaluate_detector(
        model,
        threshold,
        benign,
        attacks,
        pr_percentiles=_comma_floats(args.pr_percentiles),
        include_categories=cfg.schema.attack_category_column is not None and bool(attacks),
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "summary.txt"
    with summary.open("w") as fh:
        c = report.counts
        fh.write(f"sequences={c.total}\n")
        fh.write(f"tp={c.tp}\nfp={c.fp}\ntn={c.tn}\nfn={c.fn}\n")
        fh.write(f"benign_accuracy={_fmt(report.benign_accuracy)}\n")
        fh.write(f"anomaly_accuracy={_fmt(report.anomaly_accuracy)}\n")
        fh.write(f"precision={_fmt(report.precision)}\n")
        fh.write(f"recall={_fmt(report.recall)}\n")
        fh.write(f"f1={_fmt(report.f1)}\n")
        fh.write(f"latent_cohesion={_fmt(report.latent_cohesion)}\n")
        fh.write(f"threshold={_fmt(threshold.threshold)}\n")
        fh.write(f"percentile={_fmt(threshold.percentile)}\n")
    if report.per_category:
        with (out_dir / "per_category.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["category", "anomaly_accuracy", "precision", "recall"])
            for name, m in sorted(report.per_category.items()):
                writer.writerow(
                    [name, _fmt(m.anomaly_accuracy), _fmt(m.precision), _fmt(m.recall)]
                )
    if report.pr_curve:
        with (out_dir / "pr_curve.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["percentile", "precision", "recall", "benign_acc", "anomaly_acc"]
            )
            for pt in report.pr_curve:
                writer.writerow(
                    [
                        _fmt(pt.percentile),
                        _fmt(pt.precision),
                        _fmt(pt.recall),
                        _fmt(pt.benign_accuracy),
                        _fmt(pt.anomaly_accuracy),
                    ]
                )
    if args.latents_csv:
        with Path(args.latents_csv).open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"z{j}" for j in range(codes.shape[1])])
            for row in codes:
                writer.writerow([_fmt(v) for v in row])
    print(out_dir)
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    cfg, table, benign_test, stats, train_seqs, triplets = _prepare_training_data(args, cfg)
    benign_test_seqs = build_sequences(
        normalize(benign_test, stats), cfg.sequence_length, cfg.stride
    )
    all_seqs = build_sequences(normalize(table, stats), cfg.sequence_length, cfg.stride)
    attack_seqs = [s for s in all_seqs if s.is_attack]
    eval_data = SweepEvalData(
        calibration_sequences=train_seqs,
        benign_test_sequences=benign_test_seqs,
        attack_sequences=attack_seqs,
        percentile=cfg.percentile,
    )
    rec_values = _comma_floats(args.grid_rec) if args.grid_rec else DEFAULT_GRID
    tml_values = _comma_floats(args.grid_tml) if args.grid_tml else DEFAULT_GRID
    results, best = sweep(
        triplets, cfg.model_config(), cfg.train, eval_data, rec_values, tml_values
    )
    with Path(args.out).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "lambda_rec",
                "lambda_tml",
                "benign_accuracy",
                "anomaly_accuracy",
                "precision",
                "recall",
                "f1",
            ]
        )
        for r in results:
            writer.writerow(
                [
                    _fmt(r.lam_rec),
                    _fmt(r.lam_tml),
                    _fmt(r.report.benign_accuracy),
                    _fmt(r.report.anomaly_accuracy),
                    _fmt(r.report.precision),
                    _fmt(r.report.recall),
                    _fmt(r.report.f1),
                ]
            )
    print(f"best lambda_rec={_fmt(best.lam_rec)} lambda_tml={_fmt(best.lam_tml)}")
    print(args.out)
    return 0


def cmd_transfer(args) -> int:
    cfg = _resolve(args, lam_rec=1.0, lam_tml=0.0)
    pretrained = load_artifact(args.model).model
    cfg, _, _, stats, train_seqs, triplets = _prepare_training_data(args, cfg)
    n_target = stats.n_features

    frozen = FREEZE_REGIMES[args.freeze]
    if n_target != pretrained.config.input_dim:
        if args.freeze == "encoder":
            raise DimensionMismatch(
                "cannot freeze the encoder across differing feature counts "
                f"({pretrained.config.input_dim} -> {n_target})"
            )
        fresh_cfg = replace(
            pretrained.config,
            input_dim=n_target,
            seed=derive_seed(cfg.seed, "transfer-init"),
        )
        model = init_model(fresh_cfg, stats)
        for name, value in pretrained.params.items():
            if model.params[name].shape == value.shape:
                model.params[name] = value.copy()
    else:
        model = AutoencoderModel(
            pretrained.config,
            {k: v.copy() for k, v in pretrained.params.items()},
            stats,
        )

    report = train(triplets, model, cfg.train, FreezeSpec(frozen))
    threshold = calibrate(model, train_seqs, cfg.percentile)
    save_artifact(
        args.model_out, model, threshold,
        metadata={**asdict(cfg.train), "freeze": args.freeze},
    )
    report_path = Path(args.report_out or f"{args.model_out}.train.csv")
    _write_train_report(report_path, report)
    print(args.model_out)
    print(report_path)
    return 0


def cmd_threat(args) -> int:
    if args.threat_kind == "brute-force":
        params = BruteForceParams(
            alphabet_size=args.alphabet,
            password_length=args.length,
            guess_time=args.guess_time,
            processors=args.procs,
            elapsed=args.elapsed,
        )
        print(f"combinations={params.combinations}")
        print(f"expected_seconds={_fmt(brute_force_expected_time(params))}")
        print(f"success_probability={_fmt(brute_force_success_prob(params))}")
    elif args.threat_kind == "dos":
        result = dos_overload(
            DosParams(
                capacity=args.capacity,
                rate_legit=args.rate_legit,
                rate_attack=args.rate_attack,
                arrival_legit=args.arrival_legit,
                arrival_attack=args.arrival_attack,
                service_rate=args.service_rate,
            )
        )
        print(f"overloaded={'true' if result.overloaded else 'false'}")
        print(f"utilization={_fmt(result.utilization)}")
        print(f"overload_probability={_fmt(result.overload_probability)}")
    else:
        params = ReconParams(
            ip_count=args.ips,
            port_count=args.ports,
            service_count=args.services,
            scan_rate=args.scan_rate,
            detection_scale=args.detection_scale,
            time=args.time,
            vulnerabilities=args.vulns,
            exploitable=args.exploitable,
        )
        print(f"search_space={recon_search_space(params)}")
        print(f"detection_probability={_fmt(recon_detect_prob(params))}")
        print(f"success_probability={_fmt(recon_success_prob(params))}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsentry",
        description="Benign-only network-flow anomaly detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled flow CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--flows", type=int, default=5000)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--attack-fraction", type=float, default=0.0)
    p.add_argument("--mean-shift", type=float, default=5.0)
    p.add_argument("--burst-flows", type=int, default=250)
    p.add_argument("--burst-alignment", type=int, default=1)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--categories", default="bruteforce,dos,recon")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train on benign flows and calibrate")
    p.add_argument("--flows", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out", default=None)
    for add in (_add_common, _add_schema, _add_sequencing, _add_model, _add_train,
                _add_detector, _add_smote):
        add(p)
    p.add_argument("--train-fraction", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="recalibrate the threshold of an artifact")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--model-out", default=None)
    for add in (_add_common, _add_schema, _add_sequencing, _add_detector):
        add(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", help="score flows and write verdicts")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    for add in (_add_common, _add_schema, _add_sequencing):
        add(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="compute detection metrics on labeled flows")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pr-percentiles", default="90,95,99")
    p.add_argument("--latents-csv", default=None)
    for add in (_add_common, _add_schema, _add_sequencing):
        add(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid-sweep the loss weights")
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-rec", default=None, help="comma list, default 0..1 step 0.1")
    p.add_argument("--grid-tml", default=None, help="comma list, default 0..1 step 0.1")
    for add in (_add_common, _add_schema, _add_sequencing, _add_model, _add_train,
                _add_detector, _add_smote):
        add(p)
    p.add_argument("--train-fraction", type=float, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("transfer", help="fine-tune a pretrained artifact with freezes")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out", default=None)
    p.add_argument("--freeze", choices=sorted(FREEZE_REGIMES), required=True)
    for add in (_add_common, _add_schema, _add_sequencing, _add_train, _add_detector):
        add(p)
    p.add_argument("--train-fraction", type=float, default=None)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("threat", help="analytical threat-model calculators")
    threat_sub = p.add_subparsers(dest="threat_kind", required=True)

    q = threat_sub.add_parser("brute-force")
    q.add_argument("--alphabet", type=int, required=True)
    q.add_argument("--length", type=int, required=True)
    q.add_argument("--guess-time", type=float, required=True)
    q.add_argument("--procs", type=int, default=1)
    q.add_argument("--elapsed", type=float, default=0.0)
    q.set_defaults(func=cmd_threat)

    q = threat_sub.add_parser("dos")
    q.add_argument("--capacity", type=float, required=True)
    q.add_argument("--rate-legit", type=float, default=0.0)
    q.add_argument("--rate-attack", type=float, default=0.0)
    q.add_argument("--arrival-legit", type=float, default=0.0)
    q.add_argument("--arrival-attack", type=float, default=0.0)
    q.add_argument("--service-rate", type=float, default=1.0)
    q.set_defaults(func=cmd_threat)

    q = threat_sub.add_parser("recon")
    q.add_argument("--ips", type=int, required=True)
    q.add_argument("--ports", type=int, required=True)
    q.add_argument("--services", type=int, required=True)
    q.add_argument("--scan-rate", type=float, default=0.0)
    q.add_argument("--detection-scale", type=float, default=0.0)
    q.add_argument("--time", type=float, default=0.0)
    q.add_argument("--vulns", type=int, default=1)
    q.add_argument("--exploitable", type=int, default=0)
    q.set_defaults(func=cmd_threat)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"flowsentry: missing input: {exc.filename or exc}", file=sys.stderr)
        return 1
    except FlowSentryError as exc:
        print(f"flowsentry: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"flowsentry: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

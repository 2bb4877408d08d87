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
from dataclasses import asdict, fields, replace
from pathlib import Path

from .artifact import load_artifact, save_artifact
from .config import (OPTIONS, PipelineConfig, finite, load_config_values, pipeline_config,
                     split_names)
from .detector import calibrate, classify_many, score_windows
from .errors import DimensionMismatch, FlowSentryError, InvalidConfig
from .evaluator import evaluate_detector
from .ingest import ATTACK, BENIGN, fit_normalizer, load_flows, normalize, split_benign
from .model import AutoencoderModel, init_model
from .rng import derive_seed
from .sequencing import build_sequences, make_triplets
from .smote import SmoteConfig, smote_oversample
from .synthetic import _WRITE_ROWS, SyntheticSpec, generate_flows, write_flows_csv
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
    TrainReport,
    sweep,
    train,
)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _comma_floats(text: str, flag: str, within: str, ok) -> tuple[float, ...]:
    """The numbers of a comma-list flag, blanks dropped. An item that is not
    a finite number that ``ok`` accepts (one ``within``) raises InvalidConfig."""
    values = []
    for item in filter(str.strip, text.split(",")):
        try:
            values.append(finite(item))
        except ValueError as exc:
            raise InvalidConfig(f"{flag}: {exc}") from None
        if not ok(values[-1]):
            raise InvalidConfig(f"{flag}: {item.strip()} is outside {within}")
    return tuple(values)


def _resolve(args: argparse.Namespace, **overrides) -> PipelineConfig:
    """Merge the command's flags over its config-file values over the
    per-command ``overrides``; the dataclasses default everything else."""
    file_vals = load_config_values(args.config) if args.config else {}
    values = dict(overrides)
    for o in OPTIONS:
        if args.command in o.commands and o.dest in file_vals:
            values[o.dest] = file_vals[o.dest]
        if getattr(args, o.dest, None) is not None:
            values[o.dest] = o.parse(getattr(args, o.dest))
    return pipeline_config(values, args.flows)


def _given(args: argparse.Namespace, cls) -> dict[str, object]:
    """The fields of dataclass ``cls`` set on the command line; the others
    keep the dataclass defaults."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


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
    table = load_flows(args.flows, cfg.schema)
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
    train_windows = build_sequences(benign_train, cfg.sequence_length, cfg.stride)
    triplets = make_triplets(train_windows, cfg.triplet_config())
    return table, benign_test, stats, train_windows, triplets


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    write_flows_csv(args.out, generate_flows(SyntheticSpec(**_given(args, SyntheticSpec))))
    print(args.out)
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    _, _, stats, train_windows, triplets = _prepare_training_data(args, cfg)
    model = init_model(cfg.model_config(), stats)
    report = train(triplets, model, cfg.train)
    threshold = calibrate(model, train_windows.values, cfg.percentile)
    save_artifact(args.model_out, model, threshold, metadata=asdict(cfg.train))
    report_path = Path(args.report_out or f"{args.model_out}.train.csv")
    _write_train_report(report_path, report)
    print(args.model_out)
    print(report_path)
    return 0


def _scoring_windows(args, cfg: PipelineConfig):
    """The artifact and the time-ordered windows of the normalized flows that
    calibrate (benign flows only), detect and eval score; for detect, a file
    with no flows has no windows (None)."""
    art = load_artifact(args.model)
    if args.command != "calibrate" and art.threshold is None:
        raise FlowSentryError("artifact has no calibrated threshold; run calibrate")
    if art.model.norm_stats is None:
        raise FlowSentryError("artifact carries no normalization stats")
    table = load_flows(args.flows, cfg.schema)
    expected = art.model.config.input_dim
    if len(table) > 0 and table.n_features != expected:
        raise DimensionMismatch(
            f"flows have {table.n_features} features, model expects {expected}"
        )
    if args.command == "calibrate":
        table = table.benign_only()
    elif args.command == "detect" and not len(table):
        return art, None
    # rebinding frees the raw features before scoring
    table = normalize(table, art.model.norm_stats)
    return art, build_sequences(table, cfg.sequence_length, cfg.stride)


def cmd_calibrate(args) -> int:
    cfg = _resolve(args)
    art, windows = _scoring_windows(args, cfg)
    threshold = calibrate(art.model, windows.values, cfg.percentile)
    out = args.model_out or args.model
    save_artifact(out, art.model, threshold, metadata=art.metadata)
    print(out)
    return 0


def _write_verdict_rows(fh, starts, scores, flagged) -> None:
    """Verdict CSV rows joined into text blocks, as ``csv.writer`` would
    write them: no cell needs quoting (an int, a float's ``repr``,
    attack/benign)."""
    verdicts = (BENIGN, ATTACK)
    rows = list(zip(starts.tolist(), scores.tolist(), flagged.tolist()))
    for lo in range(0, len(rows), _WRITE_ROWS):
        fh.write("".join(f"{start},{score!r},{verdicts[attack]}\n"
                         for start, score, attack in rows[lo : lo + _WRITE_ROWS]))


def cmd_detect(args) -> int:
    cfg = _resolve(args)
    art, windows = _scoring_windows(args, cfg)
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        fh.write("start_index,score,verdict\n")
        if windows is not None:
            scores, flagged = classify_many(art.model, art.threshold, windows.values)
            _write_verdict_rows(fh, windows.starts, scores, flagged)
    print(out)
    return 0


def cmd_eval(args) -> int:
    percentiles = _comma_floats(args.pr_percentiles, "--pr-percentiles", "(0, 100]",
                                lambda q: 0.0 < q <= 100.0)
    cfg = _resolve(args)
    art, windows = _scoring_windows(args, cfg)
    threshold = art.threshold
    # detect's pass: all windows in time order, split by label afterwards
    scores, codes = score_windows(art.model, windows.values)
    attack = windows.is_attack
    codes = codes[~attack]
    # positional: perfbench's tracer counts the windows from arguments 2 and 3
    report = evaluate_detector(
        threshold, scores[~attack], scores[attack], codes, windows.categories[attack],
        percentiles,
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
                writer.writerow([_fmt(v) for v in (pt.percentile, pt.precision, pt.recall,
                                                   pt.benign_accuracy, pt.anomaly_accuracy)])
    if args.latents_csv:
        with Path(args.latents_csv).open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"z{j}" for j in range(codes.shape[1])])
            for row in codes:
                writer.writerow([_fmt(v) for v in row])
    print(out_dir)
    return 0


def cmd_sweep(args) -> int:
    grids = []
    for text, flag in ((args.grid_rec, "--grid-rec"), (args.grid_tml, "--grid-tml")):
        values = DEFAULT_GRID if text is None else _comma_floats(
            text, flag, "[0, 1]", lambda v: 0.0 <= v <= 1.0
        )
        if not values:
            raise InvalidConfig(f"{flag}: no values")
        grids.append(values)
    rec_values, tml_values = grids
    cfg = _resolve(args)
    table, benign_test, stats, train_windows, triplets = _prepare_training_data(args, cfg)
    windows = build_sequences(normalize(table, stats), cfg.sequence_length, cfg.stride)
    eval_data = SweepEvalData(
        calibration_sequences=train_windows,
        benign_test_sequences=build_sequences(
            normalize(benign_test, stats), cfg.sequence_length, cfg.stride
        ),
        attack_sequences=windows[windows.is_attack],
        percentile=cfg.percentile,
    )
    results, best = sweep(
        triplets, cfg.model_config(), cfg.train, eval_data, rec_values, tml_values
    )
    with Path(args.out).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda_rec", "lambda_tml", "benign_accuracy", "anomaly_accuracy",
                         "precision", "recall", "f1"])
        for r in results:
            m = r.report
            writer.writerow([_fmt(v) for v in (r.lam_rec, r.lam_tml, m.benign_accuracy,
                                               m.anomaly_accuracy, m.precision, m.recall, m.f1)])
    print(f"best lambda_rec={_fmt(best.lam_rec)} lambda_tml={_fmt(best.lam_tml)}")
    print(args.out)
    return 0


def cmd_transfer(args) -> int:
    cfg = _resolve(args, lambda_rec=1.0, lambda_tml=0.0)
    pretrained = load_artifact(args.model).model
    _, _, stats, train_windows, triplets = _prepare_training_data(args, cfg)
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
    threshold = calibrate(model, train_windows.values, cfg.percentile)
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
        params = BruteForceParams(**_given(args, BruteForceParams))
        print(f"combinations={params.combinations}")
        print(f"expected_seconds={_fmt(brute_force_expected_time(params))}")
        print(f"success_probability={_fmt(brute_force_success_prob(params))}")
    elif args.threat_kind == "dos":
        result = dos_overload(DosParams(**_given(args, DosParams)))
        print(f"overloaded={'true' if result.overloaded else 'false'}")
        print(f"utilization={_fmt(result.utilization)}")
        print(f"overload_probability={_fmt(result.overload_probability)}")
    else:
        params = ReconParams(**_given(args, ReconParams))
        print(f"search_space={recon_search_space(params)}")
        print(f"detection_probability={_fmt(recon_detect_prob(params))}")
        print(f"success_probability={_fmt(recon_success_prob(params))}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _register_options(p: argparse.ArgumentParser, command: str) -> None:
    """Register --config and the flag of every pipeline option ``command`` takes."""
    p.add_argument("--config", help="INI config file; flags override it")
    for o in OPTIONS:
        if command in o.commands:
            flag = "--" + o.dest.replace("_", "-")
            p.add_argument(flag, dest=o.dest, help=f"{o.help} (INI [{o.section}] {o.key})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsentry",
        description="Benign-only network-flow anomaly detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled flow CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--flows", dest="n_flows", type=int)
    p.add_argument("--features", dest="n_features", type=int)
    p.add_argument("--attack-fraction", type=float)
    p.add_argument("--mean-shift", type=float)
    p.add_argument("--burst-flows", type=int)
    p.add_argument("--burst-alignment", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--categories", type=split_names, help="comma-separated names")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train on benign flows and calibrate")
    p.add_argument("--flows", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out")
    _register_options(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="recalibrate the threshold of an artifact")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--model-out")
    _register_options(p, "calibrate")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", help="score flows and write verdicts")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    _register_options(p, "detect")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="compute detection metrics on labeled flows")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pr-percentiles", default="90,95,99")
    p.add_argument("--latents-csv")
    _register_options(p, "eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid-sweep the loss weights")
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-rec", help="comma list, default 0..1 step 0.1")
    p.add_argument("--grid-tml", help="comma list, default 0..1 step 0.1")
    _register_options(p, "sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("transfer", help="fine-tune a pretrained artifact with freezes")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out")
    p.add_argument("--freeze", choices=sorted(FREEZE_REGIMES), required=True)
    _register_options(p, "transfer")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("threat", help="analytical threat-model calculators")
    threat_sub = p.add_subparsers(dest="threat_kind", required=True)

    q = threat_sub.add_parser("brute-force")
    q.add_argument("--alphabet", dest="alphabet_size", type=int, required=True)
    q.add_argument("--length", dest="password_length", type=int, required=True)
    q.add_argument("--guess-time", type=float, required=True)
    q.add_argument("--procs", dest="processors", type=int)
    q.add_argument("--elapsed", type=float)
    q.set_defaults(func=cmd_threat)

    q = threat_sub.add_parser("dos")
    q.add_argument("--capacity", type=float, required=True)
    q.add_argument("--rate-legit", type=float)
    q.add_argument("--rate-attack", type=float)
    q.add_argument("--arrival-legit", type=float)
    q.add_argument("--arrival-attack", type=float)
    q.add_argument("--service-rate", type=float)
    q.set_defaults(func=cmd_threat)

    q = threat_sub.add_parser("recon")
    q.add_argument("--ips", dest="ip_count", type=int, required=True)
    q.add_argument("--ports", dest="port_count", type=int, required=True)
    q.add_argument("--services", dest="service_count", type=int, required=True)
    q.add_argument("--scan-rate", type=float)
    q.add_argument("--detection-scale", type=float)
    q.add_argument("--time", type=float)
    q.add_argument("--vulns", dest="vulnerabilities", type=int)
    q.add_argument("--exploitable", type=int)
    q.set_defaults(func=cmd_threat)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"flowsentry: missing input: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"flowsentry: {exc}", file=sys.stderr)
        return 1
    except FlowSentryError as exc:
        print(f"flowsentry: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"flowsentry: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"flowsentry: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end command tests on small synthetic corpora."""

import csv

import numpy as np
import pytest

from flowsentry import detector as detector_module
from flowsentry.artifact import load_artifact
from flowsentry.cli import main
from flowsentry.model import parameter_group


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small labeled corpus plus a trained artifact, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    flows = root / "flows.csv"
    assert run(
        "generate", "--out", flows, "--flows", 1200, "--features", 4,
        "--attack-fraction", 0.25, "--burst-flows", 60, "--burst-alignment", 12,
        "--seed", 3,
    ) == 0
    model = root / "model.fsn"
    assert run(
        "train", "--flows", flows, "--model-out", model,
        "--category-column", "category",
        "--sequence-length", 12, "--hidden-dim", 16, "--latent-dim", 8,
        "--epochs", 8, "--lambda-rec", 0.8, "--lambda-tml", 0.9,
        "--learning-rate", 0.005, "--seed", 0,
    ) == 0
    return root, flows, model


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestGenerate:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("generate", "--out", out, "--flows", 100, "--features", 3,
                       "--seed", 7) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_attack_fraction_zero_all_benign(self, tmp_path):
        out = tmp_path / "benign.csv"
        run("generate", "--out", out, "--flows", 50, "--features", 2, "--seed", 1)
        rows = read_csv(out)
        assert all(r[2] == "benign" for r in rows[1:])


class TestTrain:
    def test_artifact_and_report_exist(self, corpus):
        root, _, model = corpus
        art = load_artifact(model)
        assert art.threshold is not None
        assert art.model.norm_stats is not None
        assert art.metadata["lam_rec"] == 0.8
        assert art.metadata["lam_tml"] == 0.9
        report = read_csv(str(model) + ".train.csv")
        assert report[0] == ["epoch", "joint_loss", "reconstruction_loss", "triplet_loss"]
        assert len(report) == 9  # header + 8 epochs

    def test_missing_input_file(self, tmp_path, capsys):
        rc = run("train", "--flows", tmp_path / "nope.csv",
                 "--model-out", tmp_path / "m.fsn")
        assert rc == 1
        assert "missing input" in capsys.readouterr().err

    def test_deterministic_artifacts(self, tmp_path):
        flows = tmp_path / "flows.csv"
        run("generate", "--out", flows, "--flows", 300, "--features", 2, "--seed", 5)
        outs = []
        for name in ("m1.fsn", "m2.fsn"):
            out = tmp_path / name
            assert run(
                "train", "--flows", flows, "--model-out", out,
                "--category-column", "category",
                "--sequence-length", 10, "--hidden-dim", 8, "--latent-dim", 4,
                "--epochs", 2, "--seed", 9,
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_variational_mode_reports_kl(self, tmp_path):
        flows = tmp_path / "flows.csv"
        run("generate", "--out", flows, "--flows", 300, "--features", 2, "--seed", 4)
        out = tmp_path / "vae.fsn"
        assert run(
            "train", "--flows", flows, "--model-out", out,
            "--category-column", "category", "--mode", "variational",
            "--lambda-kl", 0.05, "--sequence-length", 10,
            "--hidden-dim", 8, "--latent-dim", 4, "--epochs", 2, "--seed", 1,
        ) == 0
        art = load_artifact(out)
        assert art.model.config.mode == "variational"
        assert "mu.W" in art.model.params
        report = read_csv(str(out) + ".train.csv")
        assert report[0][-1] == "kl_loss"
        assert len(report) == 3

    def test_smote_flag(self, tmp_path):
        flows = tmp_path / "flows.csv"
        run("generate", "--out", flows, "--flows", 400, "--features", 2, "--seed", 2)
        out = tmp_path / "m.fsn"
        assert run(
            "train", "--flows", flows, "--model-out", out,
            "--category-column", "category",
            "--sequence-length", 10, "--hidden-dim", 8, "--latent-dim", 4,
            "--epochs", 2, "--seed", 1, "--smote", 1.5, "--smote-k", 3,
        ) == 0
        assert load_artifact(out).threshold is not None


class TestDetect:
    def test_verdict_csv(self, corpus, tmp_path):
        _, flows, model = corpus
        out = tmp_path / "verdicts.csv"
        assert run("detect", "--model", model, "--flows", flows, "--out", out,
                   "--category-column", "category", "--sequence-length", 12) == 0
        rows = read_csv(out)
        assert rows[0] == ["start_index", "score", "verdict"]
        assert len(rows) == 1 + 1200 // 12
        assert {r[2] for r in rows[1:]} <= {"benign", "attack"}
        assert any(r[2] == "attack" for r in rows[1:])

    def test_empty_flow_file(self, corpus, tmp_path):
        _, _, model = corpus
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1,f2,f3,label,category\n")
        out = tmp_path / "verdicts.csv"
        assert run("detect", "--model", model, "--flows", empty, "--out", out,
                   "--category-column", "category", "--sequence-length", 12) == 0
        assert read_csv(out) == [["start_index", "score", "verdict"]]

    def test_feature_count_mismatch(self, corpus, tmp_path, capsys):
        _, _, model = corpus
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,label,category\n0.5,0.5,benign,\n" * 1)
        out = tmp_path / "verdicts.csv"
        rc = run("detect", "--model", model, "--flows", bad, "--out", out,
                 "--category-column", "category", "--sequence-length", 1)
        assert rc == 1
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_short_row_exits_1(self, corpus, tmp_path, capsys):
        _, _, model = corpus
        bad = tmp_path / "short.csv"
        bad.write_text("f0,label\n0.5,benign\n0.7\n")
        rc = run("detect", "--model", model, "--flows", bad, "--out", tmp_path / "v.csv",
                 "--sequence-length", 1)
        assert rc == 1
        err = capsys.readouterr().err
        assert "ShortRow" in err and "data row 1" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("text, where", [
        (b"f0,label\n0.5,benign\n0.7,b\xffnign\n", "data row 1"),
        (b"f\xff0,label\n0.5,benign\n", "the header row"),
    ])
    def test_undecodable_bytes_exit_1(self, corpus, tmp_path, capsys, text, where):
        _, _, model = corpus
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text)
        rc = run("detect", "--model", model, "--flows", bad, "--out", tmp_path / "v.csv",
                 "--sequence-length", 1)
        assert rc == 1
        err = capsys.readouterr().err
        with bad.open() as fh:
            encoding = fh.encoding
        assert err == f"flowsentry: UndecodableText: {bad}: {where} is not valid {encoding} text\n"

class TestEval:
    def test_report_files(self, corpus, tmp_path):
        _, flows, model = corpus
        out_dir = tmp_path / "report"
        assert run(
            "eval", "--model", model, "--flows", flows, "--out-dir", out_dir,
            "--category-column", "category",
            "--sequence-length", 12, "--latents-csv", out_dir / "latents.csv",
        ) == 0
        summary = dict(
            line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
        )
        assert float(summary["anomaly_accuracy"]) > 50.0
        assert "benign_accuracy" in summary and "f1" in summary
        pr = read_csv(out_dir / "pr_curve.csv")
        assert pr[0] == ["percentile", "precision", "recall", "benign_acc", "anomaly_acc"]
        assert [r[0] for r in pr[1:]] == ["90.0", "95.0", "99.0"]
        cats = read_csv(out_dir / "per_category.csv")
        assert cats[0] == ["category", "anomaly_accuracy", "precision", "recall"]
        assert len(cats) > 1
        latents = read_csv(out_dir / "latents.csv")
        assert len(latents[0]) == 8  # latent_dim columns


    @pytest.mark.parametrize("blank_rows, rc", [(1200, 0), (600, 1)],
                             ids=["every-attack-window", "some-attack-windows"])
    def test_uncategorised_attack_windows(self, corpus, tmp_path, capsys, blank_rows, rc):
        # the per-category report follows the data: none when no attack
        # window has a category, UnknownCategory when only some have one
        _, flows, model = corpus
        rows = read_csv(flows)
        col = rows[0].index("category")
        for row in rows[1 : 1 + blank_rows]:
            row[col] = ""
        blanked = tmp_path / "blanked.csv"
        with blanked.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out_dir = tmp_path / "report"
        assert run("eval", "--model", model, "--flows", blanked, "--out-dir", out_dir,
                   "--category-column", "category", "--sequence-length", 12) == rc
        assert not (out_dir / "per_category.csv").exists()
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("flowsentry: UnknownCategory: ") and err.count("\n") == 1
        else:
            summary = dict(
                line.split("=", 1) for line in (out_dir / "summary.txt").read_text().splitlines()
            )
            assert int(summary["tp"]) + int(summary["fn"]) > 0  # attack windows were scored


@pytest.fixture(scope="module")
def bursty(tmp_path_factory):
    """Over 256 benign windows with attack bursts between them: scored as a
    benign list and an attack list, the windows would fall into other
    256-window chunks than the time-ordered pass of detect."""
    root = tmp_path_factory.mktemp("bursty")
    flows, model = root / "flows.csv", root / "model.fsn"
    assert run("generate", "--out", flows, "--flows", 2000, "--features", 2,
               "--attack-fraction", 0.2, "--burst-flows", 40, "--burst-alignment", 4,
               "--seed", 6) == 0
    assert run("train", "--flows", flows, "--model-out", model, "--category-column", "category",
               "--sequence-length", 4, "--hidden-dim", 4, "--latent-dim", 2, "--epochs", 1,
               "--seed", 0) == 0
    return root, flows, model


class TestOnePass:
    @staticmethod
    def encoded_rows(monkeypatch, command, bursty, out):
        """The rows of each encode and decode call while ``command`` runs."""
        _, flows, model = bursty
        rows = {"encode_batch": [], "decode_batch": []}
        for name in rows:
            original = getattr(detector_module, name)

            def counting(m, X, *args, original=original, calls=rows[name]):
                calls.append(X.shape[0])
                return original(m, X, *args)

            monkeypatch.setattr(detector_module, name, counting)
        where = "--out" if command == "detect" else "--out-dir"
        assert run(command, "--model", model, "--flows", flows, where, out,
                   "--category-column", "category", "--sequence-length", 4) == 0
        monkeypatch.undo()
        return {name: sorted(calls) for name, calls in rows.items()}

    def test_eval_scores_in_detects_chunks(self, bursty, tmp_path, monkeypatch):
        detect = self.encoded_rows(monkeypatch, "detect", bursty, tmp_path / "v.csv")
        evaluate = self.encoded_rows(monkeypatch, "eval", bursty, tmp_path / "report")
        assert detect["encode_batch"] == [244, 256]
        assert evaluate == detect

    def test_eval_encodes_and_decodes_each_window_once(self, bursty, tmp_path, monkeypatch):
        rows = self.encoded_rows(monkeypatch, "eval", bursty, tmp_path / "report")
        assert sum(rows["encode_batch"]) == sum(rows["decode_batch"]) == 2000 // 4

    def test_eval_counts_equal_detects_verdicts(self, bursty, tmp_path):
        _, flows, model = bursty
        for command, where, out in (("detect", "--out", "v.csv"), ("eval", "--out-dir", "r")):
            assert run(command, "--model", model, "--flows", flows, where, tmp_path / out,
                       "--category-column", "category", "--sequence-length", 4) == 0
        labels = [r[2] for r in read_csv(flows)[1:]]
        counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for start, _, verdict in read_csv(tmp_path / "v.csv")[1:]:
            window = labels[int(start) : int(start) + 4]
            is_attack = 2 * sum(label != "benign" for label in window) > 4
            flagged = verdict == "attack"
            counts[("t" if flagged == is_attack else "f") + ("p" if flagged else "n")] += 1
        summary = dict(
            line.split("=", 1) for line in (tmp_path / "r" / "summary.txt").read_text().splitlines()
        )
        assert {k: int(summary[k]) for k in counts} == counts
        assert counts["tp"] + counts["fn"] > 0 and counts["fp"] + counts["tn"] > 256


@pytest.mark.parametrize("argv, message", [
    (["eval", "--pr-percentiles", "90,abc"],
     "--pr-percentiles: could not convert string to float: 'abc'"),
    (["eval", "--pr-percentiles", "90,150"], "--pr-percentiles: 150 is outside (0, 100]"),
    (["eval", "--pr-percentiles", "0"], "--pr-percentiles: 0 is outside (0, 100]"),
    (["sweep", "--grid-rec", "nan"], "--grid-rec: must be a finite number, got 'nan'"),
    (["sweep", "--grid-tml", "0.5,,1.5"], "--grid-tml: 1.5 is outside [0, 1]"),
    (["sweep", "--grid-rec", "0,inf"], "--grid-rec: must be a finite number, got 'inf'"),
    (["sweep", "--grid-rec=-0.5"], "--grid-rec: -0.5 is outside [0, 1]"),
    (["sweep", "--grid-rec", ","], "--grid-rec: no values"),
    (["sweep", "--grid-tml", " , "], "--grid-tml: no values"),
])
def test_list_flag_rejected_before_any_input_is_read(tmp_path, capsys, argv, message):
    # no input exists: a flag checked after reading would report the missing file
    missing = tmp_path / "missing"
    outputs = {"eval": ["--model", missing, "--out-dir", missing],
               "sweep": ["--out", missing]}[argv[0]]
    assert run(*argv, "--flows", missing, *outputs) == 1
    assert capsys.readouterr().err == f"flowsentry: InvalidConfig: {message}\n"


class TestCalibrate:
    def test_recalibrate_at_two_percentiles(self, corpus, tmp_path):
        _, flows, model = corpus
        thresholds = {}
        for q in (95, 99):
            out = tmp_path / f"recal{q}.fsn"
            assert run("calibrate", "--model", model, "--flows", flows,
                       "--model-out", out, "--percentile", q,
                       "--category-column", "category", "--sequence-length", 12) == 0
            art = load_artifact(out)
            assert art.threshold.percentile == float(q)
            assert art.threshold.calibration_count > 0
            thresholds[q] = art.threshold.threshold
        # same calibration sample: threshold monotone in the percentile
        assert thresholds[95] <= thresholds[99]


class TestSweep:
    def test_two_by_two_grid(self, tmp_path):
        flows = tmp_path / "flows.csv"
        run("generate", "--out", flows, "--flows", 400, "--features", 2,
            "--attack-fraction", 0.2, "--burst-flows", 40, "--seed", 8)
        out = tmp_path / "sweep.csv"
        assert run(
            "sweep", "--flows", flows, "--out", out,
            "--grid-rec", "0.5,1.0", "--grid-tml", "0.0,0.5",
            "--category-column", "category",
            "--sequence-length", 10, "--hidden-dim", 8, "--latent-dim", 4,
            "--epochs", 2, "--seed", 4,
        ) == 0
        rows = read_csv(out)
        assert rows[0][:2] == ["lambda_rec", "lambda_tml"]
        assert len(rows) == 5


class TestTransfer:
    def test_freeze_encoder_keeps_encoder_bytes(self, corpus, tmp_path):
        _, flows, model = corpus
        out = tmp_path / "tuned.fsn"
        assert run(
            "transfer", "--model", model, "--flows", flows, "--model-out", out,
            "--freeze", "encoder", "--category-column", "category",
            "--sequence-length", 12, "--epochs", 3, "--seed", 21,
        ) == 0
        source = load_artifact(model).model
        tuned = load_artifact(out).model
        changed = []
        for name in source.param_names():
            group = parameter_group(name)
            if group in ("encoder", "input_layer"):
                np.testing.assert_array_equal(tuned.params[name], source.params[name])
            elif not np.array_equal(tuned.params[name], source.params[name]):
                changed.append(name)
        assert changed  # decoder / output layers actually fine-tuned
        meta = load_artifact(out).metadata
        assert meta["freeze"] == "encoder"
        assert meta["lam_tml"] == 0.0 and meta["lam_rec"] == 1.0

    def test_freeze_all_but_io(self, corpus, tmp_path):
        _, flows, model = corpus
        out = tmp_path / "tuned2.fsn"
        assert run(
            "transfer", "--model", model, "--flows", flows, "--model-out", out,
            "--freeze", "all-but-io", "--category-column", "category",
            "--sequence-length", 12, "--epochs", 3, "--seed", 22,
        ) == 0
        source = load_artifact(model).model
        tuned = load_artifact(out).model
        for name in source.param_names():
            if parameter_group(name) in ("encoder", "decoder_core"):
                np.testing.assert_array_equal(tuned.params[name], source.params[name])
        assert not np.array_equal(tuned.params["out.W"], source.params["out.W"])

    def test_mismatched_width_rejected_for_encoder_freeze(self, corpus, tmp_path, capsys):
        _, _, model = corpus
        narrow = tmp_path / "narrow.csv"
        run("generate", "--out", narrow, "--flows", 300, "--features", 2, "--seed", 6)
        rc = run("transfer", "--model", model, "--flows", narrow,
                 "--model-out", tmp_path / "x.fsn", "--freeze", "encoder",
                 "--category-column", "category",
                 "--sequence-length", 10, "--epochs", 1, "--seed", 1)
        assert rc == 1
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_mismatched_width_reinitializes_io(self, corpus, tmp_path):
        _, _, model = corpus
        narrow = tmp_path / "narrow2.csv"
        run("generate", "--out", narrow, "--flows", 300, "--features", 2, "--seed", 6)
        out = tmp_path / "resized.fsn"
        assert run(
            "transfer", "--model", model, "--flows", narrow, "--model-out", out,
            "--freeze", "all-but-io", "--category-column", "category",
            "--sequence-length", 10, "--epochs", 1, "--seed", 1,
        ) == 0
        tuned = load_artifact(out).model
        assert tuned.config.input_dim == 2
        source = load_artifact(model).model
        np.testing.assert_array_equal(tuned.params["enc0.U"], source.params["enc0.U"])


class TestThreat:
    def test_brute_force_prints_expected_time(self, capsys):
        assert run("threat", "brute-force", "--alphabet", 2, "--length", 3,
                   "--guess-time", 1, "--procs", 1) == 0
        out = capsys.readouterr().out
        assert "expected_seconds=4.0" in out
        assert "combinations=8" in out

    def test_dos(self, capsys):
        assert run("threat", "dos", "--capacity", 10, "--rate-legit", 5,
                   "--arrival-legit", 3, "--arrival-attack", 2,
                   "--service-rate", 10) == 0
        out = capsys.readouterr().out
        assert "overloaded=false" in out
        assert "utilization=0.5" in out

    def test_recon(self, capsys):
        assert run("threat", "recon", "--ips", 256, "--ports", 1024,
                   "--services", 4, "--scan-rate", 2, "--time", 1,
                   "--vulns", 4, "--exploitable", 1) == 0
        out = capsys.readouterr().out
        assert "search_space=1048576" in out
        assert "success_probability=0.4375" in out


class TestConfigFile:
    def test_cli_overrides_config_file(self, tmp_path):
        flows = tmp_path / "flows.csv"
        run("generate", "--out", flows, "--flows", 300, "--features", 2, "--seed", 5)
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[sequencing]\nlength = 10\n\n[train]\nepochs = 2\nlambda_rec = 0.5\n"
            "\n[model]\nhidden_dim = 8\nlatent_dim = 4\n"
        )
        out = tmp_path / "m.fsn"
        assert run(
            "train", "--flows", flows, "--model-out", out, "--config", ini,
            "--category-column", "category", "--lambda-rec", 1.0, "--seed", 0,
        ) == 0
        art = load_artifact(out)
        assert art.metadata["lam_rec"] == 1.0  # CLI wins
        assert art.metadata["epochs"] == 2  # config file used
        assert art.model.config.hidden_dim == 8

    @pytest.mark.parametrize(
        "flag, ini",
        [("0", None), ("101", None), (None, "[detector]\npercentile = 0\n")],
        ids=["flag-0", "flag-101", "ini-0"],
    )
    def test_percentile_outside_range_exits_1(self, corpus, tmp_path, capsys, flag, ini):
        _, flows, _ = corpus
        argv = ["train", "--flows", flows, "--model-out", tmp_path / "m.fsn"]
        if flag is not None:
            argv += ["--percentile", flag]
        if ini is not None:
            (tmp_path / "cfg.ini").write_text(ini)
            argv += ["--config", tmp_path / "cfg.ini"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "percentile must lie in (0, 100]" in err
        assert "Traceback" not in err


# One bad value per option of the table; the table test below fails when a
# row is added without one.
BAD_VALUES = {
    "feature_columns": "f0,f0",
    "label_column": "",
    "category_column": "label",
    "benign_label": "",
    "delimiter": "ab",
    "sequence_length": "0",
    "stride": "0",
    "noise_scale": "-1",
    "hidden_dim": "0",
    "latent_dim": "0",
    "num_layers": "0",
    "mode": "bogus",
    "lambda_rec": "1.5",
    "lambda_tml": "-0.1",
    "lambda_kl": "-1",
    "margin": "0",
    "epochs": "0",
    "batch_size": "0",
    "learning_rate": "0",
    "percentile": "0",
    "smote": "0.5",
    "smote_k": "0",
    "seed": "1.5",
    "train_fraction": "1",
}


def flag_of(option):
    return "--" + option.dest.replace("_", "-")


def train_error(capsys, flows, out, *extra):
    rc = run("train", "--flows", flows, "--model-out", out, *extra)
    return rc, capsys.readouterr().err


class TestOptionTable:
    def test_every_row_has_a_bad_value(self):
        from flowsentry.config import OPTIONS

        assert {o.dest for o in OPTIONS} == set(BAD_VALUES)

    @pytest.mark.parametrize("dest", sorted(BAD_VALUES))
    def test_bad_value_same_by_flag_and_ini(self, corpus, tmp_path, capsys, dest):
        from flowsentry.config import OPTIONS

        option = next(o for o in OPTIONS if o.dest == dest)
        _, flows, _ = corpus
        bad = BAD_VALUES[dest]
        rc_flag, err_flag = train_error(capsys, flows, tmp_path / "a.fsn", flag_of(option), bad)
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{option.section}]\n{option.key} = {bad}\n")
        rc_ini, err_ini = train_error(capsys, flows, tmp_path / "b.fsn", "--config", ini)
        assert rc_flag == rc_ini == 1
        assert err_flag.startswith("flowsentry: InvalidConfig: ")
        assert err_flag == err_ini
        assert err_flag.count("\n") == 1 and "Traceback" not in err_flag
        assert not (tmp_path / "a.fsn").exists() and not (tmp_path / "b.fsn").exists()

    def test_help_lists_exactly_the_rows_of_each_command(self, capsys):
        import re

        from flowsentry.config import OPTIONS

        own = {
            "train": {"--flows", "--model-out", "--report-out"},
            "calibrate": {"--model", "--flows", "--model-out"},
            "detect": {"--model", "--flows", "--out"},
            "eval": {"--model", "--flows", "--out-dir", "--pr-percentiles", "--latents-csv"},
            "sweep": {"--flows", "--out", "--grid-rec", "--grid-tml"},
            "transfer": {"--model", "--flows", "--model-out", "--report-out", "--freeze"},
        }
        # --config plus the rows: 25 settable values for train and sweep
        settable = {"train": 25, "calibrate": 11, "detect": 10, "eval": 10,
                    "sweep": 25, "transfer": 21}
        for command, flags in own.items():
            with pytest.raises(SystemExit) as exc:
                run(command, "--help")
            assert exc.value.code == 0
            listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
            rows = {flag_of(o) for o in OPTIONS if command in o.commands}
            assert listed == flags | rows | {"--help", "--config"}, command
            assert len(rows) + 1 == settable[command], command

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_floats_exit_1(self, corpus, tmp_path, capsys, value):
        from flowsentry.config import OPTIONS, finite

        _, flows, _ = corpus
        rows = [o for o in OPTIONS if o.cast is finite]
        assert {o.dest for o in rows} >= {"noise_scale", "smote", "percentile", "margin"}
        for option in rows:
            rc, err = train_error(capsys, flows, tmp_path / "m.fsn", f"{flag_of(option)}={value}")
            assert rc == 1 and "Traceback" not in err
            assert f"InvalidConfig: {option.dest}: must be a finite number" in err
            ini = tmp_path / "bad.ini"
            ini.write_text(f"[{option.section}]\n{option.key} = {value}\n")
            assert train_error(capsys, flows, tmp_path / "m.fsn", "--config", ini) == (1, err)

    def test_unparseable_number_exits_1_not_2(self, corpus, tmp_path, capsys):
        _, flows, _ = corpus
        rc, err = train_error(capsys, flows, tmp_path / "m.fsn", "--epochs", "five")
        assert rc == 1
        assert "InvalidConfig: epochs: invalid literal for int()" in err


class TestConfigFileRejection:
    @pytest.mark.parametrize(
        "text",
        [
            "epochs = 5\n",
            "[model]\nmode\n",
            "[train]\nepochs = 2\n[train]\nepochs = 3\n",
            "[train]\nepochs = 2\nepochs = 3\n",
        ],
        ids=["no-section-header", "bare-key", "duplicate-section", "duplicate-key"],
    )
    def test_malformed_ini_exits_1(self, corpus, tmp_path, capsys, text):
        _, flows, _ = corpus
        ini = tmp_path / "c.ini"
        ini.write_text(text)
        rc, err = train_error(capsys, flows, tmp_path / "m.fsn", "--config", ini)
        assert rc == 1
        assert err.startswith(f"flowsentry: InvalidConfig: {ini}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[train]\nepohcs = 5\n", "unknown key [train] epohcs"),
            ("[trian]\nepochs = 5\n", "unknown section [trian]"),
            ("[DEFAULT]\nepochs = 5\n", "unknown key [DEFAULT] epochs"),
        ],
        ids=["key", "section", "default-section"],
    )
    def test_unknown_key_exits_1(self, corpus, tmp_path, capsys, text, message):
        _, flows, _ = corpus
        ini = tmp_path / "c.ini"
        ini.write_text(text)
        rc, err = train_error(capsys, flows, tmp_path / "m.fsn", "--config", ini)
        assert rc == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "m.fsn").exists()

    def test_shared_file_ignores_rows_the_command_lacks(self, corpus, tmp_path):
        _, flows, model = corpus
        ini = tmp_path / "dataset.ini"
        ini.write_text(
            "[schema]\ncategory_column = category\n[sequencing]\nlength = 12\n"
            "[model]\nhidden_dim = 0\n[train]\nepochs = 0\n[detector]\npercentile = 0\n"
        )
        out = tmp_path / "v.csv"
        assert run("detect", "--model", model, "--flows", flows, "--out", out,
                   "--config", ini) == 0
        assert len(read_csv(out)) == 1 + 1200 // 12

    @pytest.mark.parametrize("flag, ini", [("ab", None), (None, "")], ids=["flag", "ini-empty"])
    def test_bad_delimiter_exits_1(self, corpus, tmp_path, capsys, flag, ini):
        _, flows, _ = corpus
        argv = []
        if flag is not None:
            argv = ["--delimiter", flag]
        else:
            (tmp_path / "c.ini").write_text(f"[schema]\ndelimiter = {ini}\n")
            argv = ["--config", tmp_path / "c.ini"]
        rc, err = train_error(capsys, flows, tmp_path / "m.fsn", *argv)
        assert rc == 1
        assert "InvalidConfig: delimiter: delimiter must be one character" in err
        assert "Traceback" not in err

    def test_config_directory_exits_1(self, corpus, tmp_path, capsys):
        _, flows, _ = corpus
        rc, err = train_error(capsys, flows, tmp_path / "m.fsn", "--config", tmp_path)
        assert rc == 1
        assert err.startswith("flowsentry: ") and str(tmp_path) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_config_file(self, corpus, tmp_path, capsys):
        _, flows, _ = corpus
        rc, err = train_error(capsys, flows, tmp_path / "m.fsn",
                              "--config", tmp_path / "nope.ini")
        assert rc == 1
        assert "missing input" in err


class TestOutOfMemory:
    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 29.1 TiB for an array with shape (4000000, 1000000) "
                     "and data type float64"),
         "Unable to allocate 29.1 TiB for an array with shape (4000000, 1000000) "
         "and data type float64"),
        (MemoryError(), "allocation failed"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_exits_1(self, corpus, tmp_path, capsys, monkeypatch, exc, message):
        from flowsentry import cli

        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "init_model", no_memory)
        _, flows, _ = corpus
        rc, err = train_error(capsys, flows, tmp_path / "m.fsn", "--category-column", "category",
                              "--hidden-dim", 1000000)
        assert rc == 1
        assert err == f"flowsentry: out of memory: {message}\n"
        assert not (tmp_path / "m.fsn").exists()


class TestTransferSmote:
    def test_flag_and_ini_write_identical_artifacts(self, corpus, tmp_path):
        _, flows, model = corpus
        common = ["transfer", "--model", model, "--flows", flows, "--freeze", "encoder",
                  "--category-column", "category", "--sequence-length", 12,
                  "--epochs", 2, "--seed", 5]
        ini = tmp_path / "smote.ini"
        ini.write_text("[smote]\nmultiplier = 1.5\n")
        outs = {}
        for name, extra in (("flag", ["--smote", "1.5"]), ("ini", ["--config", ini]),
                            ("off", [])):
            out = tmp_path / f"{name}.fsn"
            assert run(*common, "--model-out", out, *extra) == 0
            outs[name] = (out.read_bytes(), (tmp_path / f"{name}.fsn.train.csv").read_bytes())
        assert outs["flag"] == outs["ini"]
        assert outs["flag"][0] != outs["off"][0]  # SMOTE did change the training data

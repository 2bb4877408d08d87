"""End-to-end command tests on small synthetic corpora."""

import csv

import numpy as np
import pytest

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

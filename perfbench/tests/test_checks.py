"""Tests of the benchmark's own output checks.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from flowsentry.artifact import save_artifact  # noqa: E402
from flowsentry.cli import main as cli_main  # noqa: E402
from flowsentry.detector import reconstruction_errors  # noqa: E402
from flowsentry.ingest import NormalizationStats  # noqa: E402
from flowsentry.model import ModelConfig, init_model  # noqa: E402
from flowsentry.sequencing import Sequence  # noqa: E402

L = 25


@pytest.mark.parametrize("layers", [1, 2])
def test_reference_scorer_matches_program_on_tiny_model(tmp_path, layers):
    stats = NormalizationStats(np.zeros(3), np.ones(3))
    model = init_model(ModelConfig(input_dim=3, hidden_dim=5, latent_dim=2,
                                   num_layers=layers, seed=7), stats)
    path = tmp_path / "tiny.fsn"
    save_artifact(path, model)
    windows = np.random.default_rng(3).uniform(0.0, 1.0, (6, 4, 3))
    program = reconstruction_errors(model, [Sequence(w, "benign", None, 0) for w in windows])
    ours = checks.reference_scores(checks.read_artifact(path), windows)
    np.testing.assert_allclose(ours, program, rtol=checks.RTOL, atol=checks.ATOL)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small corpus run through the real train, detect and eval commands."""
    d = tmp_path_factory.mktemp("pipeline")
    flows = d / "flows.csv"
    run = [
        ["generate", "--out", str(flows), "--flows", "3000", "--attack-fraction", "0.3",
         "--burst-flows", "250", "--burst-alignment", str(L), "--seed", "5"],
        ["train", "--flows", str(flows), "--model-out", str(d / "m.fsn"),
         "--report-out", str(d / "train.csv"), "--category-column", "category",
         "--epochs", "3", "--hidden-dim", "8", "--latent-dim", "4", "--seed", "1"],
        ["detect", "--model", str(d / "m.fsn"), "--flows", str(flows),
         "--out", str(d / "verdicts.csv"), "--category-column", "category"],
        ["eval", "--model", str(d / "m.fsn"), "--flows", str(flows), "--out-dir",
         str(d / "report"), "--category-column", "category"],
    ]
    for argv in run:
        assert cli_main(argv) == 0
    corpus = checks.read_corpus(flows)
    return d, corpus, checks.make_windows(corpus, L), checks.read_artifact(d / "m.fsn")


def _detect(pipeline, verdicts=None):
    d, corpus, windows, art = pipeline
    sample = np.arange(0, len(windows.starts), 7)
    return checks.check_detect(verdicts or d / "verdicts.csv", corpus, windows, art, sample)


def test_untouched_outputs_pass(pipeline):
    d, _, windows, art = pipeline
    assert checks.check_train(d / "train.csv", 0.8, 0.9) == []
    assert checks.check_artifact(art) == []
    assert _detect(pipeline) == []
    flagged = checks.read_verdicts(d / "verdicts.csv").flagged
    assert checks.check_eval(d / "report", windows, flagged) == []


def _edit_verdicts(pipeline, tmp_path, edit) -> Path:
    lines = (pipeline[0] / "verdicts.csv").read_text().splitlines()
    out = tmp_path / "verdicts.csv"
    out.write_text("\n".join(edit(lines)) + "\n")
    return out


def _flip(line: str) -> str:
    start, score, verdict = line.split(",")
    return ",".join([start, score, "benign" if verdict == "attack" else "attack"])


def test_flipped_verdict_fails(pipeline, tmp_path):
    path = _edit_verdicts(pipeline, tmp_path, lambda ls: [ls[0], _flip(ls[1]), *ls[2:]])
    assert any("score > threshold" in p for p in _detect(pipeline, path))
    d, _, windows, _ = pipeline
    flagged = checks.read_verdicts(path).flagged
    assert any("counts" in p for p in checks.check_eval(d / "report", windows, flagged))


def test_missing_window_fails(pipeline, tmp_path):
    path = _edit_verdicts(pipeline, tmp_path, lambda ls: ls[:-1])
    assert any("rows for" in p for p in _detect(pipeline, path))


def test_changed_count_fails(pipeline, tmp_path):
    d, _, windows, _ = pipeline
    report = tmp_path / "report"
    report.mkdir()
    for name in ("per_category.csv", "pr_curve.csv"):
        (report / name).write_bytes((d / "report" / name).read_bytes())
    summary = (d / "report" / "summary.txt").read_text()
    tn = next(line for line in summary.splitlines() if line.startswith("tn="))
    (report / "summary.txt").write_text(summary.replace(tn, f"tn={int(tn[3:]) + 1}"))
    flagged = checks.read_verdicts(d / "verdicts.csv").flagged
    assert any("counts" in p for p in checks.check_eval(report, windows, flagged))


def test_changed_score_fails_reference(pipeline, tmp_path):
    def bump(lines):
        start, score, verdict = lines[1].split(",")
        return [lines[0], f"{start},{float(score) * (1 + 1e-6)!r},{verdict}", *lines[2:]]

    path = _edit_verdicts(pipeline, tmp_path, bump)
    d, corpus, windows, art = pipeline
    problems = checks.check_detect(path, corpus, windows, art, np.array([0]))
    assert any("reference scorer" in p for p in problems)


def test_train_report_checks(pipeline, tmp_path):
    d = pipeline[0]
    lines = (d / "train.csv").read_text().splitlines()
    assert checks.check_train(d / "train.csv", 0.8, 0.8) != []  # wrong weights
    assert any("triplet loss" in p for p in checks.check_train(d / "train.csv", 0.8, 0.0))
    first, last = lines[1].split(","), lines[-1].split(",")
    rising = tmp_path / "rising.csv"
    rising.write_text("\n".join([lines[0], ",".join(["0", *last[1:]]), ",".join(["1", *first[1:]])]) + "\n")
    assert any("not below" in p for p in checks.check_train(rising, 0.8, 0.9))


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == tracing.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_joint", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

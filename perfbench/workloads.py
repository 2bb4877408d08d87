"""Workloads, the flowsentry commands they run, and the timed loop.

Every workload runs the real command line (``python -m flowsentry.cli``) in
child processes, one at a time, so load comes from a single process. The
corpora come from the benchmark seed; their make-up is fixed, so every seed
gives inputs of the same shape (20k or 100k flows, 8 features, 30% of flows
in 5-sigma attack bursts of 500 flows aligned to the window length).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WINDOW = 25
EPOCHS = 3
TRAIN_SEED = 1          # the program's root seed; the inputs vary with the benchmark seed
SMALL_FLOWS = 20_000    # the C04 corpus make-up
LARGE_FLOWS = 100_000   # 4,000 windows for scoring
FEATURES = 8
CORPUS_SHAPE = ["--features", str(FEATURES), "--attack-fraction", "0.3", "--mean-shift", "5.0",
                "--burst-flows", "500", "--burst-alignment", str(WINDOW)]
# set-up runs at least SETUPS times and for SETUP_SECONDS, so that the cheap
# set-up of the train workloads gives a steadier median
SETUPS = 4
SETUP_SECONDS = 4.0
REFERENCE_SAMPLE = 64   # windows re-scored by the reference scorer per check


@dataclass(frozen=True)
class Workload:
    name: str
    lam_rec: float
    lam_tml: float
    smote: float | None
    scores_large: bool  # detect / eval on the 100k corpus, trained once in set-up

    @property
    def scored_flows(self) -> int:
        return LARGE_FLOWS if self.scores_large else SMALL_FLOWS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_joint", 0.8, 0.9, None, False),
        Workload("train_rec_smote", 1.0, 0.0, 1.5, False),
        Workload("score_eval", 0.8, 0.9, None, True),
    )
}


@dataclass(frozen=True)
class Files:
    """Where one workload run keeps its inputs and outputs."""

    root: Path

    small = property(lambda self: self.root / "c04.csv")
    large = property(lambda self: self.root / "large.csv")
    model = property(lambda self: self.root / "model.fsn")
    train_report = property(lambda self: self.root / "train.csv")
    verdicts = property(lambda self: self.root / "verdicts.csv")
    report = property(lambda self: self.root / "report")

    def scored(self, w: Workload) -> Path:
        """The corpus the workload's detect and eval read."""
        return self.large if w.scores_large else self.small

    def outputs(self) -> list[Path]:
        """The files the determinism check hashes."""
        return [self.model, self.train_report, self.verdicts,
                *(self.report / n for n in ("summary.txt", "per_category.csv", "pr_curve.csv"))]


def generate_argv(out: Path, flows: int, seed: int) -> list[str]:
    return ["generate", "--out", str(out), "--flows", str(flows), *CORPUS_SHAPE,
            "--seed", str(seed)]


def train_argv(w: Workload, f: Files) -> list[str]:
    argv = ["train", "--flows", str(f.small), "--model-out", str(f.model),
            "--report-out", str(f.train_report), "--category-column", "category",
            "--sequence-length", str(WINDOW), "--epochs", str(EPOCHS),
            "--seed", str(TRAIN_SEED), "--lambda-rec", repr(w.lam_rec),
            "--lambda-tml", repr(w.lam_tml)]
    if w.smote is not None:
        argv += ["--smote", repr(w.smote)]
    return argv


def detect_argv(w: Workload, f: Files) -> list[str]:
    return ["detect", "--model", str(f.model), "--flows", str(f.scored(w)),
            "--out", str(f.verdicts), "--category-column", "category",
            "--sequence-length", str(WINDOW)]


def eval_argv(w: Workload, f: Files) -> list[str]:
    return ["eval", "--model", str(f.model), "--flows", str(f.scored(w)),
            "--out-dir", str(f.report), "--category-column", "category",
            "--sequence-length", str(WINDOW), "--pr-percentiles", "90,95,99"]


def setup_commands(w: Workload, f: Files, seed: int) -> list[list[str]]:
    cmds = [generate_argv(f.small, SMALL_FLOWS, seed)]
    if w.scores_large:
        cmds += [generate_argv(f.large, LARGE_FLOWS, seed), train_argv(w, f)]
    return cmds


def round_commands(w: Workload, f: Files) -> list[list[str]]:
    """The commands one timed round runs, in order."""
    train = [] if w.scores_large else [train_argv(w, f)]
    return train + [detect_argv(w, f), eval_argv(w, f)]


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mib: float
    ok: bool


def run_cli(argv: list[str], root: Path, log: Path) -> Outcome:
    """Run one flowsentry command to completion; wall time from spawn to
    exit, peak RSS from the child's own resource usage."""
    with log.open("ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "flowsentry.cli", *argv],
                                stdout=out, stderr=out, cwd=root)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode == 0)


def source_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's sources: outputs may
    change with either."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py")]):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def output_hashes(f: Files) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in f.outputs() if p.is_file()}


class Determinism:
    """Output hashes must agree across every round of a run, and across runs
    of the same source, workload and seed (kept in ``registry``)."""

    def __init__(self, registry: Path, key: str):
        self.registry = registry
        self.key = key
        self.seen: dict[str, str] = {}
        self.problems: list[str] = []

    def record(self, hashes: dict[str, str]) -> None:
        for name, digest in hashes.items():
            if self.seen.setdefault(name, digest) != digest:
                self.problems.append(f"determinism: {name} differs between rounds of one run")

    def finish(self) -> list[str]:
        stored = json.loads(self.registry.read_text()) if self.registry.is_file() else {}
        before = stored.get(self.key)
        if before is not None:
            for name in sorted(set(before) & set(self.seen)):
                if before[name] != self.seen[name]:
                    self.problems.append(f"determinism: {name} differs from an earlier run of this seed")
        stored[self.key] = {**(before or {}), **self.seen}
        tmp = self.registry.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, sort_keys=True))
        os.replace(tmp, self.registry)
        return self.problems


def train_problems(w: Workload, f: Files) -> list[str]:
    return (checks.check_train(f.train_report, w.lam_rec, w.lam_tml)
            + checks.check_artifact(checks.read_artifact(f.model)))


class OutputChecker:
    """Runs the checks of :mod:`checks` on one workload's output files."""

    def __init__(self, w: Workload, f: Files, seed: int):
        self.w, self.f = w, f
        self.corpus = checks.read_corpus(f.scored(w))
        self.windows = checks.make_windows(self.corpus, WINDOW)
        count = len(self.windows.starts)
        rng = np.random.default_rng(seed)
        self.sample = np.sort(rng.choice(count, size=min(REFERENCE_SAMPLE, count), replace=False))

    def after(self, command: str) -> list[str]:
        f = self.f
        if command == "train":
            return train_problems(self.w, f)
        if command == "detect":
            return checks.check_detect(f.verdicts, self.corpus, self.windows,
                                       checks.read_artifact(f.model), self.sample)
        if command == "eval":
            flagged = checks.read_verdicts(f.verdicts).flagged
            return checks.check_eval(f.report, self.windows, flagged)
        return []


def measure(w: Workload, seed: int, seconds: float, root: Path, work: Path) -> dict:
    """Set up repeatedly (see SETUPS), then run whole rounds until
    ``seconds`` have passed; returns the result object the benchmark
    prints."""
    f = Files(work / f"{w.name}-{seed}")
    f.root.mkdir(parents=True, exist_ok=True)
    log = f.root / "commands.log"
    det = Determinism(work / "hashes.json", f"{source_digest(root)}:{w.name}:{seed}")
    problems: list[str] = []
    walls: dict[str, list[float]] = {"train": [], "detect": [], "eval": []}
    setups: list[float] = []
    rss: list[float] = []
    attempted = failed = 0

    while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        for argv in setup_commands(w, f, seed):
            out = run_cli(argv, root, log)
            attempted += 1
            rss.append(out.peak_rss_mib)
            if not out.ok:
                raise RuntimeError(f"set-up command failed: {' '.join(argv)} (see {log})")
            if argv[0] in walls:
                walls[argv[0]].append(out.wall_s)
        setups.append(time.perf_counter() - start)
        if w.scores_large:
            problems += train_problems(w, f)
        det.record(output_hashes(f))

    checker = OutputChecker(w, f, seed)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        commands = round_commands(w, f)
        for i, argv in enumerate(commands):
            out = run_cli(argv, root, log)
            attempted += 1
            if not out.ok:
                # the rest of the round depends on this command's output
                failed += len(commands) - i
                attempted += len(commands) - i - 1
                break
            walls[argv[0]].append(out.wall_s)
            rss.append(out.peak_rss_mib)
            problems += checker.after(argv[0])
        else:
            det.record(output_hashes(f))

    problems += det.finish()
    for p in dict.fromkeys(problems):
        print(f"perfbench: {p}", file=sys.stderr)

    median = {k: statistics.median(v) for k, v in walls.items() if v}
    metrics = {"setup_s": (statistics.median(setups), "s"), "peak_rss_mb": (max(rss), "MiB")}
    if "train" in median:
        metrics["train_s"] = (median["train"], "s")
    if "detect" in median:
        metrics["detect_flows_per_s"] = (w.scored_flows / median["detect"], "flows/s")
    if "eval" in median:
        metrics["eval_s"] = (median["eval"], "s")
    print(f"perfbench: {w.name} seed {seed}: {rounds} rounds; samples (s) "
          + json.dumps({"setup": setups, **walls}), file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

"""Traced run: spans around each layer's public functions, and fixed-shape
timings of the recurrent core and the trainer.

The workload's commands run in this process through ``flowsentry.cli.main``.
Every flowsentry module attribute that is one of the traced functions is
replaced by a wrapper that records a span (name, start, end, parent) and a
work count, so calls from ``cli`` into a layer and calls from ``trainer``,
``detector`` or ``evaluator`` into ``model`` or ``detector`` are all seen.
Spans stay in memory until the run ends. The same commands also run without
the wrappers, and the difference in wall time is the tracing overhead. A
traced name that a later version of the program lacks only drops the
metrics built from it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

# name -> (unit, better); BENCHMARK.json lists the same names in this order
PER_LAYER = {
    "ingest.load_flows_s": ("s", "lower"),
    "ingest.normalize_s": ("s", "lower"),
    "ingest.split_benign_s": ("s", "lower"),
    "ingest.rows": ("count", "lower"),
    "smote.oversample_s": ("s", "lower"),
    "smote.rows_added": ("count", "lower"),
    "sequencing.build_sequences_s": ("s", "lower"),
    "sequencing.windows": ("count", "lower"),
    "sequencing.make_triplets_s": ("s", "lower"),
    "sequencing.triplets": ("count", "lower"),
    "lstm.forward_b64_ms": ("ms", "lower"),
    "lstm.backward_b64_ms": ("ms", "lower"),
    "lstm.forward_b192_ms": ("ms", "lower"),
    "lstm.backward_b192_ms": ("ms", "lower"),
    "lstm.forward_b512_ms": ("ms", "lower"),
    "model.encode_batch_s": ("s", "lower"),
    "model.decode_batch_s": ("s", "lower"),
    "model.encode_calls": ("count", "lower"),
    "model.windows_encoded": ("count", "lower"),
    "trainer.loss_and_grads_joint_ms": ("ms", "lower"),
    "trainer.loss_and_grads_rec_ms": ("ms", "lower"),
    "trainer.adam_step_ms": ("ms", "lower"),
    "trainer.epoch_s": ("s", "lower"),
    "trainer.triplet_epochs_per_s": ("1/s", "higher"),
    "trainer.encode_calls_per_batch": ("count", "lower"),
    "detector.calibrate_s": ("s", "lower"),
    "detector.classify_many_s": ("s", "lower"),
    "detector.windows_per_s": ("1/s", "higher"),
    "evaluator.evaluate_detector_s": ("s", "lower"),
    "evaluator.windows_scored_per_window": ("ratio", "lower"),
    "evaluator.windows_encoded_per_window": ("ratio", "lower"),
    "artifact.save_s": ("s", "lower"),
    "artifact.load_s": ("s", "lower"),
    "artifact.bytes": ("B", "lower"),
    "synthetic.generate_s": ("s", "lower"),
    "synthetic.write_csv_s": ("s", "lower"),
    "cli.train_self_s": ("s", "lower"),
    "cli.detect_self_s": ("s", "lower"),
    "cli.eval_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# (module, function, work count taken from (args, result)); a span is named
# "<module>.<function>"
TRACED = (
    ("ingest", "load_flows", lambda a, r: len(r)),
    ("ingest", "normalize", None),
    ("ingest", "split_benign", None),
    ("smote", "smote_oversample", lambda a, r: len(r) - len(a[0])),
    ("sequencing", "build_sequences", lambda a, r: len(r)),
    ("sequencing", "make_triplets", lambda a, r: len(r)),
    ("model", "encode_batch", lambda a, r: a[1].shape[0]),
    ("model", "decode_batch", lambda a, r: a[1].shape[0]),
    ("trainer", "train", lambda a, r: len(r.joint_loss)),  # epochs
    ("trainer", "loss_and_grads", lambda a, r: a[1].shape[0]),
    ("detector", "calibrate", lambda a, r: len(a[1])),
    ("detector", "classify_many", lambda a, r: len(a[2])),
    ("detector", "reconstruction_errors", lambda a, r: len(a[1])),
    ("evaluator", "evaluate_detector", lambda a, r: len(a[2]) + len(a[3])),
    ("artifact", "save_artifact", lambda a, r: os.path.getsize(a[0])),
    ("artifact", "load_artifact", None),
    ("synthetic", "generate_flows", None),
    ("synthetic", "write_flows_csv", None),
)

LSTM_SHAPE = (workloads.WINDOW, 64, workloads.FEATURES)  # (L, H, D)
FIXED_REPS = 9


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    count: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                try:
                    self.spans[idx].count = counter(args, result)
                except (TypeError, AttributeError, IndexError, OSError):
                    pass  # a changed signature loses the count, not the span
            return result

        return traced

    def under(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx].parent
        while parent is not None:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Replace every flowsentry module attribute bound to a traced function
    with its wrapper; returns what :func:`uninstall` puts back."""
    importlib.import_module("flowsentry.cli")
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "flowsentry"]
    patched = []
    for module, name, counter in TRACED:
        try:
            original = getattr(importlib.import_module(f"flowsentry.{module}"), name)
        except (ImportError, AttributeError):
            continue
        wrapper = tracer.wrap(f"{module}.{name}", original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for mod, attr, original in patched:
        setattr(mod, attr, original)


def run_inprocess(argv: list[str], tracer: Tracer | None) -> tuple[float, bool]:
    """One command through flowsentry.cli.main, inside a "cli.<command>"
    span when traced; returns (wall seconds, succeeded)."""
    from flowsentry import cli

    idx = tracer.open(f"cli.{argv[0]}") if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ok = cli.main(argv) == 0
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        ok = False
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(idx)
    return wall, ok


def span_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    total = {}
    count = {}
    calls = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.count is not None:
            count[s.name] = count.get(s.name, 0) + s.count
    m = {}

    def put(metric, value):
        if value is not None:
            m[metric] = float(value)

    for metric, name in (
        ("ingest.load_flows_s", "ingest.load_flows"),
        ("ingest.normalize_s", "ingest.normalize"),
        ("ingest.split_benign_s", "ingest.split_benign"),
        ("smote.oversample_s", "smote.smote_oversample"),
        ("sequencing.build_sequences_s", "sequencing.build_sequences"),
        ("sequencing.make_triplets_s", "sequencing.make_triplets"),
        ("model.encode_batch_s", "model.encode_batch"),
        ("model.decode_batch_s", "model.decode_batch"),
        ("detector.calibrate_s", "detector.calibrate"),
        ("detector.classify_many_s", "detector.classify_many"),
        ("evaluator.evaluate_detector_s", "evaluator.evaluate_detector"),
        ("artifact.save_s", "artifact.save_artifact"),
        ("artifact.load_s", "artifact.load_artifact"),
        ("synthetic.generate_s", "synthetic.generate_flows"),
        ("synthetic.write_csv_s", "synthetic.write_flows_csv"),
    ):
        put(metric, total.get(name))
    for metric, name in (
        ("ingest.rows", "ingest.load_flows"),
        ("smote.rows_added", "smote.smote_oversample"),
        ("sequencing.windows", "sequencing.build_sequences"),
        ("sequencing.triplets", "sequencing.make_triplets"),
        ("model.windows_encoded", "model.encode_batch"),
    ):
        put(metric, count.get(name))
    put("model.encode_calls", calls.get("model.encode_batch"))
    saves = [s.count for s in spans if s.name == "artifact.save_artifact" and s.count]
    put("artifact.bytes", saves[-1] if saves else None)

    for s in spans:
        if s.name == "trainer.train" and s.count:
            triplets = next((t.count for t in spans if t.name == "sequencing.make_triplets"
                             and t.parent == s.parent and t.count), None)
            put("trainer.epoch_s", s.duration / s.count)
            if triplets:
                put("trainer.triplet_epochs_per_s", triplets * s.count / s.duration)
    batches = calls.get("trainer.loss_and_grads")
    if batches:
        inside = sum(1 for i, s in enumerate(spans)
                     if s.name == "model.encode_batch" and tracer.under(i, "trainer.loss_and_grads"))
        put("trainer.encode_calls_per_batch", inside / batches)
    if count.get("detector.classify_many") and total.get("detector.classify_many"):
        put("detector.windows_per_s", count["detector.classify_many"] / total["detector.classify_many"])
    evaluated = count.get("evaluator.evaluate_detector")
    if evaluated:
        for metric, name in (("evaluator.windows_scored_per_window", "detector.reconstruction_errors"),
                             ("evaluator.windows_encoded_per_window", "model.encode_batch")):
            inside = sum(s.count or 0 for i, s in enumerate(spans)
                         if s.name == name and tracer.under(i, "evaluator.evaluate_detector"))
            put(metric, inside / evaluated)

    for i, s in enumerate(spans):
        if s.parent is None and s.name in ("cli.train", "cli.detect", "cli.eval"):
            children = sum(c.duration for c in spans if c.parent == i)
            key = f"{s.name}_self_s"
            m[key] = m.get(key, 0.0) + s.duration - children
    return m


def _median_ms(fn, reps: int = FIXED_REPS) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def fixed_shape_metrics(missing: dict[str, str]) -> dict[str, float]:
    """lstm and trainer public functions timed directly at L 25, H 64,
    8 features; B 64 is a training batch, B 192 the three triplet branches
    of one batch stacked, B 512 a scoring chunk."""
    L, H, D = LSTM_SHAPE
    rng = np.random.default_rng(0)
    m = {}
    try:
        from flowsentry.lstm import lstm_backward, lstm_forward

        W = rng.uniform(-0.125, 0.125, (4 * H, D))
        U = rng.uniform(-0.125, 0.125, (4 * H, H))
        b = rng.uniform(-0.125, 0.125, 4 * H)
        for B in (64, 192, 512):
            X = rng.uniform(0.0, 1.0, (B, L, D))
            m[f"lstm.forward_b{B}_ms"] = _median_ms(lambda: lstm_forward(W, U, b, X))
            if B != 512:
                cache = lstm_forward(W, U, b, X)
                d_out = rng.standard_normal((B, L, H))
                m[f"lstm.backward_b{B}_ms"] = _median_ms(lambda: lstm_backward(W, U, cache, d_out))
    except Exception as exc:  # the run completes without these metrics
        _not_taken(missing, m, "lstm.", f"lstm_forward / lstm_backward not callable as before: {exc!r}")
    try:
        from flowsentry.model import ModelConfig, init_model
        from flowsentry.trainer import Adam, TrainConfig, loss_and_grads

        model = init_model(ModelConfig(input_dim=D, hidden_dim=H, seed=0))
        A, P, N = (rng.uniform(0.0, 1.0, (64, L, D)) for _ in range(3))
        joint = TrainConfig(lam_rec=0.8, lam_tml=0.9)
        rec = TrainConfig(lam_rec=1.0, lam_tml=0.0)
        m["trainer.loss_and_grads_joint_ms"] = _median_ms(lambda: loss_and_grads(model, A, P, N, joint))
        m["trainer.loss_and_grads_rec_ms"] = _median_ms(lambda: loss_and_grads(model, A, P, N, rec))
        _, grads = loss_and_grads(model, A, P, N, joint)
        names = model.param_names()
        opt = Adam(names, model.params)
        m["trainer.adam_step_ms"] = _median_ms(lambda: opt.step(model.params, grads, 1e-3), reps=51)
    except Exception as exc:  # the run completes without these metrics
        _not_taken(missing, m, "trainer.", f"loss_and_grads / Adam not callable as before: {exc!r}",
                   suffix="_ms")
    return m


def _not_taken(missing: dict[str, str], taken: dict, prefix: str, why: str, suffix: str = "") -> None:
    for name in PER_LAYER:
        if name.startswith(prefix) and name.endswith(suffix) and name not in taken:
            missing[name] = why


def direct_smote(f: workloads.Files, missing: dict[str, str]) -> dict[str, float]:
    """SMOTE x1.5 on the benign training rows of the 20k corpus, as
    ``train_rec_smote`` runs it, timed directly for the workloads whose
    commands do not oversample."""
    try:
        from flowsentry.ingest import fit_normalizer, load_flows, normalize, split_benign
        from flowsentry.rng import derive_seed
        from flowsentry.smote import SmoteConfig, smote_oversample
        from flowsentry.synthetic import synthetic_schema

        table = load_flows(f.small, synthetic_schema(workloads.FEATURES))
        benign, _ = split_benign(table, 0.8, derive_seed(workloads.TRAIN_SEED, "ingest-split"))
        benign = normalize(benign, fit_normalizer(benign))
        cfg = SmoteConfig(target_count=int(round(1.5 * len(benign))),
                          seed=derive_seed(workloads.TRAIN_SEED, "smote"))
        start = time.perf_counter()
        grown = smote_oversample(benign, cfg)
        return {"smote.oversample_s": time.perf_counter() - start,
                "smote.rows_added": float(len(grown) - len(benign))}
    except Exception as exc:  # the run completes without these metrics
        _not_taken(missing, {}, "smote.", f"smote_oversample not callable as before: {exc!r}")
        return {}


def traced_run(w: workloads.Workload, seed: int, seconds: float, root: Path, work: Path) -> dict:
    """Run the workload's set-up and round commands in process, untraced and
    traced in turn, until ``seconds`` have passed; print per-layer metrics."""
    f = workloads.Files(work / f"{w.name}-{seed}")
    f.root.mkdir(parents=True, exist_ok=True)
    commands = workloads.setup_commands(w, f, seed) + workloads.round_commands(w, f)
    det = workloads.Determinism(work / "hashes.json",
                                f"{workloads.source_digest(root)}:{w.name}:{seed}")
    attempted = failed = 0
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    per_pass: list[dict[str, float]] = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        for traced in (False, True):
            tracer = Tracer() if traced else None
            patched = install(tracer) if traced else []
            try:
                wall = 0.0
                for argv in commands:
                    seconds_taken, ok = run_inprocess(argv, tracer)
                    wall += seconds_taken
                    attempted += 1
                    failed += not ok
            finally:
                uninstall(patched)
            (traced_walls if traced else untraced_walls).append(wall)
            det.record(workloads.output_hashes(f))
            if traced:
                per_pass.append(span_metrics(tracer))

    problems = det.finish()
    if not failed:
        checker = workloads.OutputChecker(w, f, seed)
        problems += [p for cmd in ("train", "detect", "eval") for p in checker.after(cmd)]
    for p in dict.fromkeys(problems):
        print(f"perfbench: {p}", file=sys.stderr)

    metrics = {k: statistics.median([p[k] for p in per_pass if k in p])
               for k in PER_LAYER if any(k in p for p in per_pass)}
    missing: dict[str, str] = {}
    metrics.update(fixed_shape_metrics(missing))
    if "smote.oversample_s" not in metrics:
        metrics.update(direct_smote(f, missing))
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(untraced_walls)
    for name in PER_LAYER:
        if name not in metrics:
            missing.setdefault(name, "no span of the traced name was recorded")
    for name, why in missing.items():
        print(f"perfbench: per-layer metric {name} not taken: {why}", file=sys.stderr)
    print(f"perfbench: {w.name} seed {seed}: {len(per_pass)} traced passes, tracing overhead "
          f"{overhead:+.3f} s on {statistics.median(untraced_walls):.3f} s", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER if k in metrics},
    }

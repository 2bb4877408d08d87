"""Scoring chunks on worker threads: the worker rule, bit-equality with any
worker count, errors and threads, a traced command run, and the verdict
writer."""

import contextlib
import csv
import io
import os
import threading

import numpy as np
import pytest

from flowsentry import cli, detector
from flowsentry.detector import CHUNK, score_windows
from flowsentry.ingest import ATTACK, BENIGN
from flowsentry.model import ModelConfig, decode_batch, encode_batch, init_model
from flowsentry.workers import count

from conftest import install, use_workers

L, F = 25, 8
N_WINDOWS = 600  # chunks of 256, 256 and 88


MODELS = [("deterministic", 1), ("deterministic", 2), ("variational", 1)]


@pytest.fixture(scope="module", params=MODELS, ids=[f"{m}-{n}" for m, n in MODELS])
def model(request):
    mode, num_layers = request.param
    return init_model(ModelConfig(input_dim=F, hidden_dim=64, num_layers=num_layers,
                                  mode=mode, seed=5))


@pytest.fixture(scope="module")
def windows():
    return np.random.default_rng(8).uniform(0.0, 1.0, (N_WINDOWS, L, F))


class TestWorkerRule:
    @pytest.mark.parametrize("env, cpus, chunks, want", [
        ({}, 4, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 100, 4),
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, 100, 2),
        ({"OPENBLAS_NUM_THREADS": "3"}, 4, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 4, 100, 1),
        ({"OMP_NUM_THREADS": "2"}, 4, 100, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4, 100, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 0, 1),
        ({"OPENBLAS_NUM_THREADS": "two"}, 4, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 4, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "-1"}, 4, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "1.5"}, 4, 100, 1),
        ({"OPENBLAS_NUM_THREADS": ""}, 4, 100, 1),
        ({"OMP_NUM_THREADS": "2,1"}, 4, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "²"}, 4, 100, 1),
        # OpenBLAS skips a variable that holds no positive count
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4, 100, 2),
    ])
    def test_cpus_over_blas_threads(self, monkeypatch, env, cpus, chunks, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert count(chunks) == want

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert count(100) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert count(100) == 1


class TestBitEquality:
    def test_same_bits_with_1_2_and_3_workers(self, monkeypatch, model, windows):
        results = {}
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            results[workers] = score_windows(model, windows)
        for workers in (2, 3):
            np.testing.assert_array_equal(results[workers][0], results[1][0])
            np.testing.assert_array_equal(results[workers][1], results[1][1])

    def test_equals_a_plain_per_chunk_loop(self, monkeypatch, model, windows):
        use_workers(monkeypatch, 3)
        scores, codes = score_windows(model, windows)
        starts = range(0, N_WINDOWS, CHUNK)
        assert [min(CHUNK, N_WINDOWS - lo) for lo in starts] == [256, 256, 88]
        z = np.concatenate([encode_batch(model, windows[lo : lo + CHUNK]).z for lo in starts])
        outputs = np.concatenate([decode_batch(model, z[lo : lo + CHUNK], L).outputs
                                  for lo in starts])
        diff = outputs - windows
        np.testing.assert_array_equal(codes, z)
        np.testing.assert_array_equal(scores, np.mean(diff * diff, axis=(1, 2)))

    def test_chunks_run_off_the_calling_thread(self, monkeypatch, model, windows):
        use_workers(monkeypatch, 2)
        caller, helper_took_one, threads = threading.get_ident(), threading.Event(), set()

        def encode(model, X, *args):
            threads.add(threading.get_ident())
            if threading.get_ident() == caller:  # hold each chunk until a helper has one
                assert helper_took_one.wait(timeout=30)
            else:
                helper_took_one.set()
            return encode_batch(model, X, *args)

        monkeypatch.setattr(detector, "encode_batch", encode)
        score_windows(model, windows)
        assert threads - {caller}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_caller_and_helpers_score_each_chunk_once(self, monkeypatch, model, windows,
                                                      workers):
        use_workers(monkeypatch, workers)
        caller, caller_took_one, scored = threading.get_ident(), threading.Event(), []

        def encode(model, X, *args):
            scored.append((threading.get_ident(), X[0, 0, 0]))
            if threading.get_ident() == caller:
                caller_took_one.set()
            else:  # a helper holds its first chunk until the caller has one
                assert caller_took_one.wait(timeout=30)
            return encode_batch(model, X, *args)

        monkeypatch.setattr(detector, "encode_batch", encode)
        score_windows(model, windows)
        firsts = sorted(first for _, first in scored)
        assert firsts == sorted(windows[::CHUNK, 0, 0])
        threads = {ident for ident, _ in scored}
        assert caller in threads and len(threads) <= workers


class TestThreads:
    def test_no_thread_for_one_worker(self, monkeypatch, model, windows, threads_started):
        use_workers(monkeypatch, 1)
        score_windows(model, windows)
        assert threads_started == []

    def test_no_thread_for_one_chunk(self, monkeypatch, model, windows, threads_started):
        use_workers(monkeypatch, 4)
        score_windows(model, windows[:CHUNK])
        score_windows(model, windows[:0])
        assert threads_started == []

    def test_workers_end_before_return(self, monkeypatch, model, windows, threads_started):
        use_workers(monkeypatch, 3)
        score_windows(model, windows)
        assert 1 <= len(threads_started) <= 3

    def test_memory_error_in_one_chunk_propagates(self, monkeypatch, model, windows):
        use_workers(monkeypatch, 2)

        def encode(model, X, *args):
            if len(X) != CHUNK:  # the 88-window tail chunk
                raise MemoryError("no room for the tail")
            return encode_batch(model, X, *args)

        monkeypatch.setattr(detector, "encode_batch", encode)
        with pytest.raises(MemoryError, match="no room for the tail"):
            score_windows(model, windows)


# --- commands: sequence length 5 over 3,000 flows gives 600 windows ---------

def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("threaded")
    flows, model = root / "flows.csv", root / "model.fsn"
    assert run("generate", "--out", flows, "--flows", 3000, "--features", 4,
               "--attack-fraction", 0.3, "--burst-flows", 100, "--burst-alignment", 5,
               "--seed", 9) == 0
    assert run("train", "--flows", flows, "--model-out", model,
               "--category-column", "category", "--sequence-length", 5,
               "--hidden-dim", 16, "--latent-dim", 8, "--epochs", 2, "--seed", 0) == 0
    return flows, model


def scoring_commands(corpus, out):
    flows, model = corpus
    common = ["--model", model, "--flows", flows, "--category-column", "category",
              "--sequence-length", 5]
    return [["detect", *common, "--out", out / "verdicts.csv"],
            ["eval", *common, "--out-dir", out / "eval", "--pr-percentiles", "90,99",
             "--latents-csv", out / "latents.csv"]]


def output_bytes(out):
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_detect_exits_1_when_a_chunk_runs_out_of_memory(monkeypatch, corpus, tmp_path, capsys):
    use_workers(monkeypatch, 2)

    def encode(model, X, *args):
        if len(X) != CHUNK:
            raise MemoryError()
        return encode_batch(model, X, *args)

    monkeypatch.setattr(detector, "encode_batch", encode)
    detect = scoring_commands(corpus, tmp_path)[0]
    assert run(*detect) == 1
    assert "out of memory" in capsys.readouterr().err


def test_command_outputs_same_bytes_with_1_2_and_3_workers(monkeypatch, corpus, tmp_path):
    outputs = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        out = tmp_path / f"w{workers}"
        out.mkdir()
        for argv in scoring_commands(corpus, out):
            assert run(*argv) == 0
        outputs.append(output_bytes(out))
    assert len(outputs[0]) == 5
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# --- a traced run: the module-attribute wrapping of perfbench's tracer ------

TRACED = (("model", "encode_batch"), ("model", "decode_batch"),
          ("detector", "calibrate"), ("detector", "classify_many"),
          ("detector", "reconstruction_errors"), ("evaluator", "evaluate_detector"))


def test_traced_commands_on_two_workers(monkeypatch, corpus, tmp_path, capfd):
    use_workers(monkeypatch, 2)
    plain = tmp_path / "plain"
    plain.mkdir()
    for argv in scoring_commands(corpus, plain):
        assert run(*argv) == 0

    traced_out = tmp_path / "traced"
    traced_out.mkdir()
    stack, calls = [], []
    capfd.readouterr()
    patched = install(TRACED, stack, calls)
    try:
        for argv in scoring_commands(corpus, traced_out):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(*argv) == 0
    finally:
        for mod, attr, original in patched:
            setattr(mod, attr, original)

    assert capfd.readouterr().out == ""
    assert stack == []
    opened = [c for c in calls if not c.startswith("/")]
    assert opened.count("encode_batch") >= 2 * 3  # detect alone scores three chunks
    for name in set(opened):
        assert calls.count(f"/{name}") == opened.count(name), name
    assert output_bytes(traced_out) == output_bytes(plain)


# --- the verdict CSV writer -------------------------------------------------

def test_verdict_rows_match_csv_writer(monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_ROWS", 3)
    scores = np.array([0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 2.5e16, 1.2345678901234567e+20,
                       np.inf, np.nan])
    starts = np.arange(len(scores), dtype=np.int64) * 25 + 7
    flagged = scores > 0.05
    fh = io.StringIO(newline="")
    cli._write_verdict_rows(fh, starts, scores, flagged)

    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    for start, score, attack in zip(starts, scores, flagged):
        writer.writerow([str(start), repr(float(score)), ATTACK if attack else BENIGN])
    assert fh.getvalue() == want.getvalue()
    assert fh.getvalue().count("\n") == len(scores)

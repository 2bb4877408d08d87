"""SMOTE's neighbour search on worker threads: bit-equality with any worker
count and chunk size, the thread rule, errors and threads, memory with two
chunks in flight, and a traced ``train --smote`` run."""

import contextlib
import io
import sys
import threading

import numpy as np
import pytest

from flowsentry import cli, smote
from flowsentry.smote import SmoteConfig, smote_oversample

from conftest import install, make_table, use_workers
import test_smote
from test_smote import budget_for_rows

N, K = 300, 5
QUERIES = 153  # chunks of 7 and 25 rows end in a short tail (6 and 3 rows)


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(17).uniform(0.0, 1.0, (N, 8))


@pytest.mark.parametrize("rows", [1, 7, 25])
def test_neighbors_same_with_1_2_and_3_workers(monkeypatch, points, rows, threads_started):
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(N, rows))
    results = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        results.append(smote._nearest_neighbors(points, K, QUERIES))
        if workers == 1:
            assert threads_started == []
    # one pool thread beside the caller at 2 workers and at 3
    assert len(threads_started) == 2
    np.testing.assert_array_equal(results[1], results[0])
    np.testing.assert_array_equal(results[2], results[0])
    # and the same lists as one chunk of every query
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(N, QUERIES))
    np.testing.assert_array_equal(results[0], smote._nearest_neighbors(points, K, QUERIES))


@pytest.mark.parametrize("rows", [1, 7, 25])
def test_oversample_same_with_1_2_and_3_workers(monkeypatch, points, rows):
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(N, rows))
    cfg = SmoteConfig(target_count=N + QUERIES, k_neighbors=K, seed=3)
    grown = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        grown.append(smote_oversample(make_table(points), cfg).features)
    np.testing.assert_array_equal(grown[1], grown[0])
    np.testing.assert_array_equal(grown[2], grown[0])


def test_every_chunk_searched_once_under_fast_switching(monkeypatch, points):
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(N, 1))
    use_workers(monkeypatch, 3)
    search_chunk, taken = smote._search_chunk, []

    def recording(points, sq, lo, hi, gram, d2, out):
        taken.append(lo)
        return search_chunk(points, sq, lo, hi, gram, d2, out)

    monkeypatch.setattr(smote, "_search_chunk", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = smote._nearest_neighbors(points, K, N)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == list(range(N))
    monkeypatch.setattr(smote, "_search_chunk", search_chunk)
    use_workers(monkeypatch, 1)
    np.testing.assert_array_equal(got, smote._nearest_neighbors(points, K, N))


def test_no_thread_for_one_chunk(monkeypatch, points, threads_started):
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(N, QUERIES))
    use_workers(monkeypatch, 4)
    smote._nearest_neighbors(points, K, QUERIES)
    assert threads_started == []


def fail_in_second_chunk(monkeypatch):
    """Make the search of the second chunk raise MemoryError."""
    search_chunk = smote._search_chunk

    def failing(points, sq, lo, hi, gram, d2, out):
        if lo == len(gram):
            raise MemoryError("no room for this chunk")
        return search_chunk(points, sq, lo, hi, gram, d2, out)

    monkeypatch.setattr(smote, "_search_chunk", failing)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_memory_error_in_second_chunk_propagates(monkeypatch, points, workers):
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(N, 7))
    use_workers(monkeypatch, workers)
    fail_in_second_chunk(monkeypatch)
    with pytest.raises(MemoryError, match="no room for this chunk"):
        smote._nearest_neighbors(points, K, QUERIES)


@pytest.mark.parametrize("workers", [2, 3])
def test_memory_error_on_the_pool_thread_propagates(monkeypatch, points, workers):
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(N, 7))
    use_workers(monkeypatch, workers)
    search_chunk, pool_took_one = smote._search_chunk, threading.Event()

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            pool_took_one.set()
            raise MemoryError("no room on the pool thread")
        # the caller holds its first chunk until the pool thread has one
        assert pool_took_one.wait(timeout=30)
        return search_chunk(*args)

    monkeypatch.setattr(smote, "_search_chunk", failing)
    with pytest.raises(MemoryError, match="no room on the pool thread"):
        smote._nearest_neighbors(points, K, QUERIES)


def test_neighbor_search_memory_within_budget_on_two_workers(monkeypatch, threads_started):
    use_workers(monkeypatch, 2)
    test_smote.test_neighbor_search_memory_within_budget()
    assert len(threads_started) == 1


def test_neighbor_search_memory_within_budget_on_three_workers(monkeypatch, threads_started):
    # the rule gives three workers, but no more than _IN_FLIGHT chunks run
    use_workers(monkeypatch, 3)
    test_smote.test_neighbor_search_memory_within_budget()
    assert len(threads_started) == 1


# --- commands: train --smote over 3,000 flows ---------------------------------

def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def flows(tmp_path_factory):
    path = tmp_path_factory.mktemp("threaded-smote") / "flows.csv"
    assert run("generate", "--out", path, "--flows", 3000, "--features", 4,
               "--attack-fraction", 0.3, "--burst-flows", 100, "--burst-alignment", 5,
               "--seed", 9) == 0
    return path


def train_command(flows, out, multiplier=1.5):
    return ["train", "--flows", flows, "--model-out", out / "model.fsn",
            "--report-out", out / "report.json", "--category-column", "category",
            "--sequence-length", 5, "--latent-dim", 8, "--epochs", 1, "--seed", 0,
            "--smote", multiplier]


def output_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("multiplier", [1.5, 2.5])
def test_train_smote_same_bytes_with_1_2_and_3_workers(monkeypatch, flows, tmp_path,
                                                       multiplier, threads_started):
    outputs = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        out = tmp_path / f"w{workers}"
        out.mkdir()
        assert run(*train_command(flows, out, multiplier)) == 0
        outputs.append(output_bytes(out))
    assert len(outputs[0]) == 2
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert threads_started  # the threaded runs searched on threads


def test_train_exits_1_when_a_chunk_runs_out_of_memory(monkeypatch, flows, tmp_path, capsys,
                                                       threads_started):
    use_workers(monkeypatch, 2)
    fail_in_second_chunk(monkeypatch)
    assert run(*train_command(flows, tmp_path)) == 1
    assert "out of memory" in capsys.readouterr().err
    assert threads_started


# --- a traced run: the module-attribute wrapping of perfbench's tracer --------

TRACED = (("smote", "smote_oversample"), ("trainer", "train"))


def test_traced_train_smote_on_two_workers(monkeypatch, flows, tmp_path, capfd,
                                           threads_started):
    use_workers(monkeypatch, 2)
    plain = tmp_path / "plain"
    plain.mkdir()
    assert run(*train_command(flows, plain)) == 0

    traced_out = tmp_path / "traced"
    traced_out.mkdir()
    stack, calls = [], []
    threads_started.clear()
    capfd.readouterr()
    patched = install(TRACED, stack, calls)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(*train_command(flows, traced_out)) == 0
    finally:
        for mod, attr, original in patched:
            setattr(mod, attr, original)

    assert capfd.readouterr().out == ""
    assert stack == []
    assert threads_started
    assert calls == ["smote_oversample", "/smote_oversample", "train", "/train"]
    assert output_bytes(traced_out) == output_bytes(plain)

"""The worker module's own guarantees, beyond what the scoring, SMOTE and
training tests check through their call sites: no thread for no work, the
caller's own error, the ``most`` cap, and ``beside`` with a busy pool."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from flowsentry.workers import beside, run_chunks

from conftest import use_workers


@pytest.mark.parametrize("pieces", [0, 1])
def test_no_thread_for_no_or_one_piece(monkeypatch, threads_started, pieces):
    use_workers(monkeypatch, 4)
    taken = []
    run_chunks(lambda: taken.append, pieces)
    assert taken == list(range(pieces))
    assert threads_started == []


@pytest.mark.parametrize("workers", [2, 3])
def test_caller_error_raised_after_every_helper_ends(monkeypatch, workers):
    use_workers(monkeypatch, workers)
    caller = threading.get_ident()
    helper_started, release = threading.Semaphore(0), threading.Event()
    started, helpers = [], []

    def piece(i):
        started.append(i)
        if threading.get_ident() == caller:
            for _ in range(workers - 1):  # every helper is inside a piece
                assert helper_started.acquire(timeout=30)
            release.set()
            raise ValueError("the caller's piece")
        helpers.append(threading.current_thread())
        helper_started.release()
        assert release.wait(timeout=30)
        time.sleep(0.05)  # the caller's error lands before this piece ends

    with pytest.raises(ValueError, match="the caller's piece"):
        run_chunks(lambda: piece, 20)
    assert len(helpers) == workers - 1
    assert not any(thread.is_alive() for thread in helpers)
    assert len(started) == workers  # no piece started after the error


def test_most_caps_the_workers(monkeypatch, threads_started):
    use_workers(monkeypatch, 3)
    taken = []
    run_chunks(lambda: taken.append, 10, most=2)
    assert sorted(taken) == list(range(10))
    assert len(threads_started) == 1


def test_beside_runs_side_in_the_caller_when_the_pool_is_busy():
    callers = []

    def call(value):
        callers.append(threading.get_ident())
        return value

    busy = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        blocker = pool.submit(busy.wait, 30)  # holds the pool's one thread
        try:
            assert beside(pool, lambda: call("side"), lambda: call("main")) == ("side", "main")
            assert blocker.running()
        finally:
            busy.set()
    assert callers == [threading.get_ident()] * 2

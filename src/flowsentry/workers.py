"""Worker threads: how many a stage gets, and how they share its work.

The worker rule: the CPUs this process may use divided by the threads BLAS
was told to use (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``; as
OpenBLAS does, a variable that holds no positive integer is skipped), read
at each call. With neither set, BLAS already uses every CPU, so a stage runs
on one worker, the caller; ``OPENBLAS_NUM_THREADS=1`` lets scoring, SMOTE's
neighbour search and training use every core. The callers cut their work
into pieces that depend on the input alone, so no result depends on the
worker count. Every thread started here has ended when the call that
started it returns, and that call raises an error if any worker met one.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from typing import Any, Callable

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def count(n: int) -> int:
    """Workers for ``n`` pieces of work, by the rule in the module
    docstring; at most one per piece, and at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for var in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            return max(1, min(cpus // int(value), n))
    return 1


def run_chunks(
    worker: Callable[[], Callable[[int], None]], n: int, most: int | None = None
) -> None:
    """Run pieces ``0 … n-1`` on ``count(n)`` workers, at most ``most``: the
    caller and pool threads each get their own per-piece function from
    ``worker()``, then take the next piece as they finish one. An error stops
    every worker from taking another piece, and is raised here once every
    thread has ended. One worker starts no thread."""
    workers = count(n) if most is None else min(count(n), most)
    pieces = iter(range(n))
    lock, failed = threading.Lock(), threading.Event()

    def take() -> None:
        try:
            run = worker()
            while True:
                with lock:
                    i = None if failed.is_set() else next(pieces, None)
                if i is None:
                    return
                run(i)
        except BaseException:
            failed.set()
            raise

    if workers == 1:
        take()
        return
    # leaving the block joins every helper, after the caller's own error too
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(take) for _ in range(workers - 1)]
        take()
    for helper in helpers:
        helper.result()


def side_pool() -> contextlib.AbstractContextManager[Executor | None]:
    """A one-thread pool for :func:`beside` where the rule gives two workers."""
    return ThreadPoolExecutor(1) if count(2) > 1 else contextlib.nullcontext()


def beside(pool: Executor | None, side: Callable[[], Any], main: Callable[[], Any]) -> tuple:
    """``(side(), main())``. Given a pool, ``side`` runs on a pool thread
    while the caller runs ``main``, or in the caller after ``main`` if no
    pool thread has taken it up by then; both have ended when this
    returns, and an error in either is raised here."""
    if pool is None:
        return side(), main()
    future = pool.submit(side)
    try:
        result = main()
    finally:
        # side writes into the caller's arrays: it must not start after
        # this returns, and must have ended if it started
        if not future.cancel():
            wait((future,))
    return side() if future.cancelled() else future.result(), result

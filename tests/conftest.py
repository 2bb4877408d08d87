import importlib
import os
import sys
import threading

import numpy as np
import pytest

from flowsentry.ingest import FlowSchema, FlowTable
from flowsentry.sequencing import Windows


@pytest.fixture
def two_feature_schema() -> FlowSchema:
    return FlowSchema(
        feature_columns=("a", "b"),
        label_column="label",
        attack_category_column="category",
    )


def make_table(
    features, attacks=None, categories=None, start_index: int = 0
) -> FlowTable:
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if attacks is None:
        attacks = [False] * n
    if categories is None:
        categories = [None] * n
    return FlowTable(features, attacks, categories, np.arange(start_index, start_index + n))


def benign_windows(values, starts) -> Windows:
    """Benign, uncategorised windows: row i holds ``values[i]`` and starts at
    flow ``starts[i]``."""
    return Windows(
        np.asarray(values, dtype=np.float64),
        np.asarray(starts, dtype=np.int64),
        np.zeros(len(starts), dtype=bool),
        np.full(len(starts), None, dtype=object),
    )


def use_workers(monkeypatch, workers):
    """Make the worker rule give ``workers``: that many CPUs, one BLAS thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)


@pytest.fixture
def threads_started(monkeypatch):
    started = []
    start = threading.Thread.start

    def spy(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def install(traced, stack, calls):
    """Replace every flowsentry module attribute bound to a function named in
    ``traced`` ((module, name) pairs) with a wrapper that pushes onto and
    pops off one shared list, as the benchmark's tracer wraps them."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "flowsentry"]
    patched = []
    for module, name in traced:
        original = getattr(importlib.import_module(f"flowsentry.{module}"), name)

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            stack.append(_name)
            calls.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                stack.pop()
                calls.append(f"/{_name}")

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
    return patched

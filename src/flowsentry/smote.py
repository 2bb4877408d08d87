"""SMOTE oversampling of benign flow records prior to sequence building.

Each synthetic record interpolates between a base record and one of its k
nearest neighbors under Euclidean distance: s = x + u * (x_nn - x) with
u ~ U[0, 1]. Base records are cycled round-robin so synthesis is spread
evenly over the benign set.

The exact neighbour search runs only for the base records that are drawn,
the first min(synthetic, records) of them, each against every record. It
works through the queries in row chunks whose size depends on the record
count alone, and runs at most two chunks at once on scoring's worker
threads (see :mod:`flowsentry.detector`): with one BLAS thread on two
cores, both cores search. Each worker owns its buffers and writes only the
rows of the chunks it takes, so the neighbour lists never depend on the
number of workers. A chunk in flight holds three (chunk, n) buffers of
half the byte budget (products, distances and argpartition's indices), so
the search's working memory is at most three budget-sized buffers however
many records or workers there are; its time is still quadratic in the
benign set.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detector import _scoring_workers
from .errors import TargetBelowInput, TooFewRecords
from .ingest import FlowTable
from .rng import rng_from


@dataclass(frozen=True)
class SmoteConfig:
    target_count: int
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.target_count < 0:
            raise ValueError("target_count must be >= 0")


# Bytes of the (chunk, n) float64 buffers of the neighbour search: each
# chunk in flight holds its products, its distances and argpartition's
# indices. At most _IN_FLIGHT chunks run at once (the caller's and one pool
# thread's), so a chunk's rows are cut from that share of the budget.
_BLOCK_BYTES = 8 << 20
_IN_FLIGHT = 2


def _search_chunk(
    points: np.ndarray, sq: np.ndarray, lo: int, hi: int,
    gram: np.ndarray, d2: np.ndarray, out: np.ndarray,
) -> None:
    """Write the neighbour lists of query rows [lo, hi) into ``out[lo:hi]``,
    using the leading rows of ``gram`` and ``d2`` for the products and the
    distances."""
    k = out.shape[1]
    g, d = gram[: hi - lo], d2[: hi - lo]
    np.matmul(points[lo:hi], points.T, out=g)
    g *= 2.0
    np.add(sq[lo:hi, None], sq[None, :], out=d)
    d -= g
    d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # exclude self
    # copied, so the (chunk, n) indices are freed before the next chunk's
    part = np.argpartition(d, k - 1, axis=1)[:, :k].copy()
    order = np.argsort(np.take_along_axis(d, part, axis=1), axis=1, kind="stable")
    out[lo:hi] = np.take_along_axis(part, order, axis=1)


def _nearest_neighbors(points: np.ndarray, k: int, n_queries: int) -> np.ndarray:
    """Exact k nearest neighbors (excluding self) of the first ``n_queries``
    points among all points, by brute-force distance.

    Returns an (n_queries, k) index array, neighbors sorted by distance.
    Where scoring's worker rule (:func:`flowsentry.detector._scoring_workers`)
    gives two or more workers for the chunks, the caller and one pool thread
    each take the next chunk as they finish one; else the caller takes them
    all. The thread has ended when this returns, and an error in any chunk
    is raised here.
    """
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    chunk = min(max(_BLOCK_BYTES // _IN_FLIGHT // (8 * n), 1), n_queries)
    out = np.empty((n_queries, k), dtype=np.int64)
    starts = iter(range(0, n_queries, chunk))
    lock = threading.Lock()

    def search() -> None:
        nonlocal starts
        # a worker's own buffers, reused by every chunk it takes
        gram, d2 = np.empty((chunk, n)), np.empty((chunk, n))
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            try:
                _search_chunk(points, sq, lo, min(lo + chunk, n_queries), gram, d2, out)
            except BaseException:
                with lock:  # no worker takes another chunk
                    starts = iter(())
                raise

    if _scoring_workers(-(-n_queries // chunk)) == 1:
        search()
        return out
    # the caller searches beside one pool thread; leaving the block joins it
    with ThreadPoolExecutor(1) as pool:
        beside = pool.submit(search)
        search()
    beside.result()
    return out


def smote_oversample(benign_flows: FlowTable, cfg: SmoteConfig) -> FlowTable:
    """Grow the benign set to ``cfg.target_count`` records with SMOTE.

    The output contains every original record (in order) followed by the
    synthetic ones; synthetic records are labeled benign and carry
    original_index -1.
    """
    if benign_flows.n_attack:
        raise ValueError("oversampling expects benign records only")
    count = len(benign_flows)
    if count < 2 or cfg.k_neighbors >= count:
        raise TooFewRecords(
            f"need more than k_neighbors={cfg.k_neighbors} records, have {count}"
        )
    if cfg.target_count < count:
        raise TargetBelowInput(
            f"target_count={cfg.target_count} below input count {count}"
        )
    n_synthetic = cfg.target_count - count
    if n_synthetic == 0:
        return benign_flows

    points = benign_flows.features
    neighbors = _nearest_neighbors(points, cfg.k_neighbors, min(n_synthetic, count))
    rng = rng_from(cfg.seed)

    base_idx = np.arange(n_synthetic) % count  # round-robin over the benign set
    pick = rng.integers(0, cfg.k_neighbors, size=n_synthetic)
    u = rng.uniform(0.0, 1.0, size=n_synthetic)
    bases = points[base_idx]
    picked = points[neighbors[base_idx, pick]]
    synthetic = bases + u[:, None] * (picked - bases)

    features = np.vstack([points, synthetic])
    is_attack = np.concatenate([benign_flows.is_attack, np.zeros(n_synthetic, dtype=bool)])
    categories = list(benign_flows.categories) + [None] * n_synthetic
    original = np.concatenate(
        [benign_flows.original_indices, np.full(n_synthetic, -1, dtype=np.int64)]
    )
    return FlowTable(features, is_attack, categories, original)

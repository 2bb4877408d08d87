"""Batched LSTM primitives in float64 numpy with hand-written backprop.

Gate blocks are stacked as (input, forget, cell-candidate, output) along the
first axis of the weight matrices: W is (4H, D) input-to-hidden, U is (4H, H)
hidden-to-hidden, b is (4H,). Activations are stored time-major, and the gate
activations gate-major as (L, 4, B, H), so every step reads and writes
contiguous (B, H) blocks. Forward passes return the cache consumed by the
matching backward pass.

The functions are pure unless handed a ``workspace`` dict. A caller that runs
one layer again and again (``trainer.train``, batch after batch) passes each
layer its own dict: the pass then takes its big arrays from it and overwrites
them instead of allocating new ones, so the previous pass's cache is no
longer valid. One (B, L, 4H) buffer holds the input projection in the
forward and dL/d(pre) in the backward, since the projection is dead once the
forward ends.

With a workspace, a pass of at least 2 * MIN_HALF = 128 rows runs its time
loop as two row halves, each taking all L steps for its own rows: a row's
recurrence never reads another row, and each half writes only its own row
slices. The input projection and the products after the loop (dU, dW, db,
d_inputs) stay whole-array calls, so the order of their sums is unchanged.
Given an executor ``pool``, a pool thread runs the second half while the
caller runs the first, and after the backward loop it computes dU while the
caller computes the other products; it runs nothing else, and what it has
not taken up by the time the caller is done, the caller runs. Only
``trainer.train`` passes a pool, and it joins the thread before it returns.
Calls without a workspace (scoring, library calls) never split.

The cut depends on B alone, never on whether a pool runs the halves, so a
trained model's bits never depend on the thread count; scoring's fixed
chunks follow the same rule. A half holds at least 64 rows because every
numpy call hands the GIL to the other thread: at 32-row halves the calls
are too short to overlap, and the 64-row decoder passes of a joint batch
ran slower on two threads than as one block. With numpy's OpenBLAS, a
half's GEMMs round as the whole batch's at every hidden size checked that
is a multiple of 8 (8 to 256, batches of 128 to 512 rows); at some other
sizes (H = 50, for one) a half takes a different kernel, and a split pass
differs from one block in the last bits.
"""

from __future__ import annotations

from concurrent.futures import Executor, wait
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Fewest rows of a half (see the module docstring).
MIN_HALF = 64


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe logistic function: (1 if x >= 0 else e^-|x|) / (1 + e^-|x|)."""
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.maximum(z, x >= 0, out=out)
    np.add(z, 1.0, out=z)
    return np.divide(out, z, out=out)


def _array(workspace: dict | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape``: new without a workspace,
    else the leading part of the workspace's buffer ``name``, which grows to
    the largest shape asked for."""
    if workspace is None:
        return np.empty(shape)
    size = int(np.prod(shape))
    buf = workspace.get(name)
    if buf is None or buf.size < size:
        buf = workspace[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _blocks(rows: np.ndarray) -> np.ndarray:
    """The (4, B, H) gate-block view of (B, 4H) rows."""
    B, H4 = rows.shape
    return rows.reshape(B, 4, H4 // 4).transpose(1, 0, 2)


def _splits(B: int, workspace: dict | None) -> bool:
    return workspace is not None and B >= 2 * MIN_HALF


def _beside(pool: Executor | None, side: Callable[[], Any], main: Callable[[], Any]) -> tuple:
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


def _in_halves(
    run: Callable[[int, int], None], B: int, workspace: dict | None, pool: Executor | None
) -> None:
    """Run ``run(lo, hi)`` over rows [0, B): as one block, or, where
    :func:`_splits`, as two halves, the second on ``pool`` if one is given."""
    if not _splits(B, workspace):
        run(0, B)
        return
    mid = B // 2
    _beside(pool, lambda: run(mid, B), lambda: run(0, mid))


@dataclass
class LstmCache:
    inputs: np.ndarray | None       # (B, L, D); None for all-zero inputs
    hs: np.ndarray                  # (L+1, B, H), hs[0] = h0
    cs: np.ndarray | None           # (L+1, B, H), cs[0] = c0
    gate_blocks: np.ndarray | None  # (L, 4, B, H): sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)
    tanh_c: np.ndarray | None       # (L, B, H)

    @property
    def gates(self) -> np.ndarray | None:
        """A read-only (L, B, 4H) copy of the gate activations."""
        if self.gate_blocks is None:
            return None
        L, _, B, H = self.gate_blocks.shape
        gates = self.gate_blocks.transpose(0, 2, 1, 3).reshape(L, B, 4 * H)
        gates.flags.writeable = False
        return gates

    @property
    def outputs(self) -> np.ndarray:
        """Every step's hidden state as a (B, L, H) view."""
        return self.hs[1:].transpose(1, 0, 2)

    @property
    def last_hidden(self) -> np.ndarray:
        return self.hs[-1]


def lstm_forward(
    W: np.ndarray,
    U: np.ndarray,
    b: np.ndarray,
    inputs: np.ndarray | tuple[int, int],
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
    keep_cache: bool = True,
    *,
    workspace: dict | None = None,
    pool: Executor | None = None,
) -> LstmCache:
    """Unroll one layer over (B, L, D) ``inputs``.

    ``inputs`` may instead be the (B, L) shape of all-zero inputs, whose
    input projection is then skipped (exact for finite W). Without
    ``keep_cache`` each step overwrites one gate and cell buffer, so the
    result holds the hidden states only and cannot be backpropagated.
    """
    H = U.shape[1]
    if isinstance(inputs, tuple):
        (B, L), inputs, x_pre = inputs, None, None
    else:
        B, L, _ = inputs.shape
        # the input contribution for all steps; its buffer holds dL/d(pre)
        # in the backward pass
        x_pre = np.matmul(inputs, W.T, out=_array(workspace, "pre", (B, L, 4 * H)))
    # without a cache, slot 0 of gate_blocks and tanh_c is reused by every
    # step and the one cell state is updated in place
    slots = L if keep_cache else 1
    hs = _array(workspace, "hs", (L + 1, B, H))
    cs = _array(workspace, "cs", (L + 1 if keep_cache else 1, B, H))
    hs[0] = 0.0 if h0 is None else h0
    cs[0] = 0.0 if c0 is None else c0
    gate_blocks = _array(workspace, "gate_blocks", (slots, 4, B, H))
    tanh_c = _array(workspace, "tanh_c", (slots, B, H))
    UT = U.T

    def run(lo: int, hi: int) -> None:
        pre = np.empty((hi - lo, 4 * H))
        pre_blocks = _blocks(pre)
        ig = np.empty((hi - lo, H))
        # the bias as a contiguous (4, rows, H) block: numpy adds a broadcast
        # (4, 1, H) operand in H-element inner loops
        b_blocks = np.broadcast_to(b.reshape(4, 1, H), (4, hi - lo, H)).copy()
        for t in range(L):
            s = t if keep_cache else 0
            g, tc = gate_blocks[s, :, lo:hi], tanh_c[s, lo:hi]
            c_prev, c = (cs[t, lo:hi], cs[t + 1, lo:hi]) if keep_cache else (cs[0, lo:hi],) * 2
            # g = (x_pre + h U^T) + b, in this order: the finite-difference
            # gradient tests sit at their roundoff floor, where reordering
            # these float operations moves the result past their bound
            np.matmul(hs[t, lo:hi], UT, out=pre)
            if x_pre is not None:
                np.add(_blocks(x_pre[lo:hi, t]), pre_blocks, out=g)
                np.add(g, b_blocks, out=g)
            else:
                np.add(pre_blocks, b_blocks, out=g)
            sigmoid(g[:2], out=g[:2])
            sigmoid(g[3], out=g[3])
            np.tanh(g[2], out=g[2])
            np.multiply(g[0], g[2], out=ig)
            np.multiply(g[1], c_prev, out=c)
            np.add(c, ig, out=c)
            np.tanh(c, out=tc)
            np.multiply(g[3], tc, out=hs[t + 1, lo:hi])

    _in_halves(run, B, workspace, pool)
    if not keep_cache:
        return LstmCache(inputs, hs, None, None, None)
    return LstmCache(inputs, hs, cs, gate_blocks, tanh_c)


def lstm_backward(
    W: np.ndarray,
    U: np.ndarray,
    cache: LstmCache,
    d_outputs: np.ndarray | None = None,
    d_h_last: np.ndarray | None = None,
    want_d_inputs: bool = True,
    *,
    workspace: dict | None = None,
    pool: Executor | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Backprop through time.

    ``d_outputs`` is the (B, L, H) loss gradient w.r.t. every step's hidden
    output (may be None when only the final state matters); ``d_h_last`` is
    an extra gradient on the final hidden state. Returns
    (dW, dU, db, d_inputs, d_h0, d_c0); d_inputs is None when the inputs
    were all zero or ``want_d_inputs`` is false, and dW is then exactly zero.
    """
    if cache.gate_blocks is None:
        raise ValueError("the forward pass kept no cache to backpropagate")
    gate_blocks, tanh_c, cs = cache.gate_blocks, cache.tanh_c, cache.cs
    L, _, B, H = gate_blocks.shape
    H4 = 4 * H
    d_pre = _array(workspace, "pre", (B, L, H4))
    dh = np.zeros((B, H)) if d_h_last is None else d_h_last.copy()
    dc = np.zeros((B, H))

    def run(lo: int, hi: int) -> None:
        # dL/d(pre) is a * q gate by gate, in the product order of the
        # per-gate formulas: a holds (dct*g)*i, (dct*c_prev)*f, dct*i and
        # (dh*tanh_c)*o, and q holds 1-i, 1-f, 1-g*g and 1-o
        a = np.empty((4, hi - lo, H))
        q = np.empty((4, hi - lo, H))
        dct = np.empty((hi - lo, H))
        dh_rows, dc_rows = dh[lo:hi], dc[lo:hi]
        for t in range(L - 1, -1, -1):
            if d_outputs is not None:
                np.add(dh_rows, d_outputs[lo:hi, t], out=dh_rows)
            g, tc, d = gate_blocks[t, :, lo:hi], tanh_c[t, lo:hi], d_pre[lo:hi, t]
            i, f, gg, o = g
            # dct = dc + (dh*o)*(1 - tc*tc), with a[0] as scratch for dh*o
            np.multiply(tc, tc, out=dct)
            np.subtract(1.0, dct, out=dct)
            np.multiply(dh_rows, o, out=a[0])
            np.multiply(a[0], dct, out=dct)
            np.add(dc_rows, dct, out=dct)
            np.multiply(dct, gg, out=a[0])
            np.multiply(a[0], i, out=a[0])
            np.multiply(dct, cs[t, lo:hi], out=a[1])
            np.multiply(a[1], f, out=a[1])
            np.multiply(dct, i, out=a[2])
            np.multiply(dh_rows, tc, out=a[3])
            np.multiply(a[3], o, out=a[3])
            np.subtract(1.0, g[:2], out=q[:2])
            np.multiply(gg, gg, out=q[2])
            np.subtract(1.0, q[2], out=q[2])
            np.subtract(1.0, o, out=q[3])
            np.multiply(a, q, out=_blocks(d))
            np.matmul(d, U, out=dh_rows)
            np.multiply(dct, f, out=dc_rows)

    _in_halves(run, B, workspace, pool)

    flat_pre = d_pre.reshape(B * L, H4)

    def recurrent_grad() -> np.ndarray:
        return flat_pre.T @ cache.hs[:L].transpose(1, 0, 2).reshape(B * L, H)

    def other_grads() -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        db = flat_pre.sum(axis=0)
        if cache.inputs is None:
            return np.zeros_like(W), db, None
        dW = flat_pre.T @ cache.inputs.reshape(B * L, -1)
        return dW, db, d_pre @ W if want_d_inputs else None

    # a pass run in halves also computes dU, the longest product, beside
    # the others
    dU, (dW, db, d_inputs) = _beside(
        pool if _splits(B, workspace) else None, recurrent_grad, other_grads
    )
    return dW, dU, db, d_inputs, dh, dc

"""Batched LSTM primitives in float64 numpy with hand-written backprop.

Gate blocks are stacked as (input, forget, cell-candidate, output) along the
first axis of the weight matrices: W is (4H, D) input-to-hidden, U is (4H, H)
hidden-to-hidden, b is (4H,). Activations are stored time-major, so each
step reads and writes contiguous (B, H) and (B, 4H) blocks. All functions
are pure; forward passes return the cache consumed by the matching backward
pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe logistic function: (1 if x >= 0 else e^-|x|) / (1 + e^-|x|)."""
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.maximum(z, x >= 0, out=out)
    np.add(z, 1.0, out=z)
    return np.divide(out, z, out=out)


@dataclass
class LstmCache:
    inputs: np.ndarray | None     # (B, L, D); None for all-zero inputs
    hs: np.ndarray                # (L+1, B, H), hs[0] = h0
    cs: np.ndarray | None         # (L+1, B, H), cs[0] = c0
    gates: np.ndarray | None      # (L, B, 4H): sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)
    tanh_c: np.ndarray | None     # (L, B, H)

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
) -> LstmCache:
    """Unroll one layer over (B, L, D) ``inputs``.

    ``inputs`` may instead be the (B, L) shape of all-zero inputs, whose
    input projection is then skipped (exact for finite W). Without
    ``keep_cache`` each step overwrites one gate and cell buffer, so the
    result holds the hidden states only and cannot be backpropagated.
    """
    if isinstance(inputs, tuple):
        (B, L), inputs, x_pre = inputs, None, None
    else:
        B, L, _ = inputs.shape
        x_pre = inputs @ W.T  # (B, L, 4H), input contribution for all steps
    H = U.shape[1]
    # without a cache, slot 0 of gates and tanh_c is reused by every step
    # and the one cell state is updated in place
    slots = L if keep_cache else 1
    hs = np.zeros((L + 1, B, H))
    cs = np.zeros((L + 1 if keep_cache else 1, B, H))
    if h0 is not None:
        hs[0] = h0
    if c0 is not None:
        cs[0] = c0
    gates = np.empty((slots, B, 4 * H))
    tanh_c = np.empty((slots, B, H))
    pre = np.empty((B, 4 * H))
    ig = np.empty((B, H))
    UT = U.T
    for t in range(L):
        s = t if keep_cache else 0
        g, tc = gates[s], tanh_c[s]
        c_prev, c = (cs[t], cs[t + 1]) if keep_cache else (cs[0], cs[0])
        # pre = (x_pre + h U^T) + b, in this order: the finite-difference
        # gradient tests sit at their roundoff floor, where reordering these
        # float operations moves the result past their bound
        np.matmul(hs[t], UT, out=pre)
        if x_pre is not None:
            np.add(x_pre[:, t], pre, out=pre)
        np.add(pre, b, out=pre)
        sigmoid(pre, out=g)
        np.tanh(pre[:, 2 * H : 3 * H], out=g[:, 2 * H : 3 * H])
        np.multiply(g[:, :H], g[:, 2 * H : 3 * H], out=ig)
        np.multiply(g[:, H : 2 * H], c_prev, out=c)
        np.add(c, ig, out=c)
        np.tanh(c, out=tc)
        np.multiply(g[:, 3 * H :], tc, out=hs[t + 1])
    if not keep_cache:
        return LstmCache(inputs, hs, None, None, None)
    return LstmCache(inputs, hs, cs, gates, tanh_c)


def lstm_backward(
    W: np.ndarray,
    U: np.ndarray,
    cache: LstmCache,
    d_outputs: np.ndarray | None = None,
    d_h_last: np.ndarray | None = None,
    want_d_inputs: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Backprop through time.

    ``d_outputs`` is the (B, L, H) loss gradient w.r.t. every step's hidden
    output (may be None when only the final state matters); ``d_h_last`` is
    an extra gradient on the final hidden state. Returns
    (dW, dU, db, d_inputs, d_h0, d_c0); d_inputs is None when the inputs
    were all zero or ``want_d_inputs`` is false, and dW is then exactly zero.
    """
    if cache.gates is None:
        raise ValueError("the forward pass kept no cache to backpropagate")
    gates, tanh_c, cs = cache.gates, cache.tanh_c, cache.cs
    L, B, H4 = gates.shape
    H = H4 // 4
    d_pre = np.empty((B, L, H4))
    # dL/d(pre) is d = (a * gates) * q, block by block, which keeps the
    # product order of the per-gate formulas ((dct*g)*i)*(1-i),
    # ((dct*c_prev)*f)*(1-f) and ((dh*tanh_c)*o)*(1-o); the g block of d is
    # overwritten with dct*i before the last product, giving (dct*i)*(1-g*g)
    a = np.zeros((B, H4))  # the g block stays zero
    q = np.empty((B, H4))
    dct = np.empty((B, H))
    dh = np.zeros((B, H)) if d_h_last is None else d_h_last.copy()
    dc = np.zeros((B, H))
    for t in range(L - 1, -1, -1):
        if d_outputs is not None:
            np.add(dh, d_outputs[:, t], out=dh)
        g, tc, d = gates[t], tanh_c[t], d_pre[:, t]
        i, f, gg, o = g[:, :H], g[:, H : 2 * H], g[:, 2 * H : 3 * H], g[:, 3 * H :]
        a_i, a_f, a_o = a[:, :H], a[:, H : 2 * H], a[:, 3 * H :]
        q_g = q[:, 2 * H : 3 * H]
        # dct = dc + (dh*o)*(1 - tc*tc), with a_i as scratch for dh*o
        np.multiply(tc, tc, out=dct)
        np.subtract(1.0, dct, out=dct)
        np.multiply(dh, o, out=a_i)
        np.multiply(a_i, dct, out=dct)
        np.add(dc, dct, out=dct)
        np.multiply(dct, gg, out=a_i)
        np.multiply(dct, cs[t], out=a_f)
        np.multiply(dh, tc, out=a_o)
        np.multiply(a, g, out=d)
        np.multiply(dct, i, out=d[:, 2 * H : 3 * H])
        np.subtract(1.0, g, out=q)
        np.multiply(gg, gg, out=q_g)
        np.subtract(1.0, q_g, out=q_g)
        np.multiply(d, q, out=d)
        np.matmul(d, U, out=dh)
        np.multiply(dct, f, out=dc)

    flat_pre = d_pre.reshape(B * L, H4)
    dU = flat_pre.T @ cache.hs[:L].transpose(1, 0, 2).reshape(B * L, H)
    db = flat_pre.sum(axis=0)
    if cache.inputs is None:
        return np.zeros_like(W), dU, db, None, dh, dc
    dW = flat_pre.T @ cache.inputs.reshape(B * L, -1)
    d_inputs = d_pre @ W if want_d_inputs else None
    return dW, dU, db, d_inputs, dh, dc

"""Bit-exact oracle tests of the fused LSTM step.

The reference cell below keeps the five per-gate arrays (input, forget,
candidate, output gates and tanh of the cell state) in batch-major order and
computes every gate on its own slice, exactly as the cell formulas read. The
fused time-major implementation must reproduce it bit for bit, forward and
backward: the finite-difference gradient tests sit at the roundoff floor, so
any reordering of the forward float operations shows up there.
"""

import warnings

import numpy as np
import pytest

from flowsentry.detector import score_windows
from flowsentry.lstm import lstm_backward, lstm_forward
from flowsentry.model import (
    ModelConfig,
    decode_backward,
    decode_batch,
    encode_backward,
    encode_batch,
    init_model,
    zero_grads,
)


def ref_sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def ref_forward(W, U, b, inputs, h0=None, c0=None):
    B, L, _ = inputs.shape
    H = U.shape[1]
    hs = np.zeros((B, L + 1, H))
    cs = np.zeros((B, L + 1, H))
    if h0 is not None:
        hs[:, 0] = h0
    if c0 is not None:
        cs[:, 0] = c0
    gi, gf, gg, go, tanh_c = (np.empty((B, L, H)) for _ in range(5))
    x_pre = inputs @ W.T
    for t in range(L):
        pre = x_pre[:, t] + hs[:, t] @ U.T + b
        gi[:, t] = ref_sigmoid(pre[:, :H])
        gf[:, t] = ref_sigmoid(pre[:, H : 2 * H])
        gg[:, t] = np.tanh(pre[:, 2 * H : 3 * H])
        go[:, t] = ref_sigmoid(pre[:, 3 * H :])
        cs[:, t + 1] = gf[:, t] * cs[:, t] + gi[:, t] * gg[:, t]
        tanh_c[:, t] = np.tanh(cs[:, t + 1])
        hs[:, t + 1] = go[:, t] * tanh_c[:, t]
    return dict(inputs=inputs, hs=hs, cs=cs, gi=gi, gf=gf, gg=gg, go=go, tanh_c=tanh_c)


def ref_backward(W, U, ref, d_outputs=None, d_h_last=None):
    gi, gf, gg, go, tanh_c = ref["gi"], ref["gf"], ref["gg"], ref["go"], ref["tanh_c"]
    B, L, H = gi.shape
    d_pre = np.empty((B, L, 4 * H))
    dh = np.zeros((B, H)) if d_h_last is None else d_h_last.copy()
    dc = np.zeros((B, H))
    for t in range(L - 1, -1, -1):
        if d_outputs is not None:
            dh = dh + d_outputs[:, t]
        i, f, g, o, tc = gi[:, t], gf[:, t], gg[:, t], go[:, t], tanh_c[:, t]
        do = dh * tc
        dct = dc + dh * o * (1.0 - tc * tc)
        d_pre[:, t, :H] = dct * g * i * (1.0 - i)
        d_pre[:, t, H : 2 * H] = dct * ref["cs"][:, t] * f * (1.0 - f)
        d_pre[:, t, 2 * H : 3 * H] = dct * i * (1.0 - g * g)
        d_pre[:, t, 3 * H :] = do * o * (1.0 - o)
        dh = d_pre[:, t] @ U
        dc = dct * f
    flat_pre = d_pre.reshape(B * L, 4 * H)
    dW = flat_pre.T @ ref["inputs"].reshape(B * L, -1)
    dU = flat_pre.T @ ref["hs"][:, :L].reshape(B * L, H)
    db = flat_pre.sum(axis=0)
    return dW, dU, db, d_pre @ W, dh, dc


def weights(rng, D, H, scale=0.5):
    return (
        rng.uniform(-scale, scale, (4 * H, D)),
        rng.uniform(-scale, scale, (4 * H, H)),
        rng.uniform(-scale, scale, 4 * H),
    )


def assert_cache_matches(cache, ref):
    np.testing.assert_array_equal(cache.outputs, ref["hs"][:, 1:])
    np.testing.assert_array_equal(cache.hs.transpose(1, 0, 2), ref["hs"])
    np.testing.assert_array_equal(cache.cs.transpose(1, 0, 2), ref["cs"])
    np.testing.assert_array_equal(cache.last_hidden, ref["hs"][:, -1])
    H = cache.hs.shape[2]
    for k, name in enumerate(("gi", "gf", "gg", "go")):
        np.testing.assert_array_equal(
            cache.gates[:, :, k * H : (k + 1) * H].transpose(1, 0, 2), ref[name]
        )
    np.testing.assert_array_equal(cache.tanh_c.transpose(1, 0, 2), ref["tanh_c"])


@pytest.mark.parametrize(
    "B,L,D,H,initial",
    [(1, 1, 3, 4, False), (1, 9, 2, 5, True), (5, 7, 3, 6, True), (64, 25, 8, 16, False)],
)
def test_matches_reference_cell(B, L, D, H, initial):
    rng = np.random.default_rng(B * 100 + L)
    W, U, b = weights(rng, D, H)
    X = rng.uniform(0, 1, (B, L, D))
    h0 = rng.standard_normal((B, H)) if initial else None
    c0 = rng.standard_normal((B, H)) if initial else None
    cache = lstm_forward(W, U, b, X, h0, c0)
    ref = ref_forward(W, U, b, X, h0, c0)
    assert_cache_matches(cache, ref)

    d_out = rng.standard_normal((B, L, H))
    d_last = rng.standard_normal((B, H))
    for args in ((d_out, d_last), (d_out, None), (None, d_last)):
        got = lstm_backward(W, U, cache, *args)
        want = ref_backward(W, U, ref, *args)
        assert len(got) == 6
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    full = lstm_backward(W, U, cache, d_out, d_last)
    without = lstm_backward(W, U, cache, d_out, d_last, want_d_inputs=False)
    assert without[3] is None
    for k in (0, 1, 2, 4, 5):
        np.testing.assert_array_equal(without[k], full[k])


def test_zero_input_layer_skips_the_projection():
    rng = np.random.default_rng(1)
    B, L, D, H = 6, 5, 3, 4
    W, U, b = weights(rng, D, H)
    h0 = rng.standard_normal((B, H))
    cache = lstm_forward(W, U, b, (B, L), h0)
    ref = ref_forward(W, U, b, np.zeros((B, L, D)), h0)
    assert cache.inputs is None
    assert_cache_matches(cache, ref)

    d_out = rng.standard_normal((B, L, H))
    dW, dU, db, d_inputs, dh0, dc0 = lstm_backward(W, U, cache, d_out)
    want = ref_backward(W, U, ref, d_out)
    assert d_inputs is None
    assert not dW.any() and dW.shape == W.shape
    for g, w in zip((dW, dU, db, dh0, dc0), (want[0], *want[1:3], *want[4:])):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize(
    "B,L,D,H",
    # beside a small case, scoring's chunk shapes in the benchmark (full
    # 256-window chunks and tails) and a hidden size that is not a multiple
    # of 8. The per-step projection of the pass without a cache rounds as
    # the whole-sequence one only where the GEMM kernels agree, which they
    # need not for one-window batches, one-step windows, D >= 20 or odd
    # H >= 49 (see flowsentry.lstm), so no such shape is pinned here.
    [(7, 6, 3, 5), (256, 25, 8, 64), (160, 25, 8, 64), (32, 25, 8, 64), (96, 25, 8, 50)],
)
def test_cache_free_forward_keeps_hidden_states_only(B, L, D, H):
    rng = np.random.default_rng(2)
    W, U, b = weights(rng, D, H)
    X = rng.uniform(0, 1, (B, L, D))
    h0, c0 = rng.standard_normal((2, B, H))
    free = lstm_forward(W, U, b, X, h0, c0, keep_cache=False)
    kept = lstm_forward(W, U, b, X, h0, c0)
    np.testing.assert_array_equal(free.hs, kept.hs)
    assert free.gates is None and free.cs is None and free.tanh_c is None
    with pytest.raises(ValueError, match="no cache"):
        lstm_backward(W, U, free, rng.standard_normal((B, L, H)))


def ref_model_grads(model, X, d_z, d_out):
    """Encoder and decoder gradients of a deterministic model chained from
    reference cells, with the decoder's zero inputs materialised."""
    p, cfg = model.params, model.config
    B, L, _ = X.shape
    grads = zero_grads(model)
    enc, current = [], X
    for layer in range(cfg.num_layers):
        enc.append(ref_forward(p[f"enc{layer}.W"], p[f"enc{layer}.U"], p[f"enc{layer}.b"], current))
        current = enc[-1]["hs"][:, 1:]
    z = enc[-1]["hs"][:, -1] @ p["lat.W"].T + p["lat.b"]
    h0 = z @ p["seed.W"].T + p["seed.b"]
    dec, current = [], np.zeros((B, L, cfg.input_dim))
    for layer in range(cfg.num_layers):
        dec.append(ref_forward(p[f"dec{layer}.W"], p[f"dec{layer}.U"], p[f"dec{layer}.b"],
                               current, h0 if layer == 0 else None))
        current = dec[-1]["hs"][:, 1:]
    outputs = current @ p["out.W"].T + p["out.b"]

    top = dec[-1]["hs"][:, 1:]
    grads["out.W"] += d_out.reshape(B * L, -1).T @ top.reshape(B * L, -1)
    grads["out.b"] += d_out.sum(axis=(0, 1))
    d_hs = d_out @ p["out.W"]
    for layer in range(cfg.num_layers - 1, -1, -1):
        dW, dU, db, d_hs, dh0, _ = ref_backward(p[f"dec{layer}.W"], p[f"dec{layer}.U"], dec[layer], d_hs)
        for name, g in (("W", dW), ("U", dU), ("b", db)):
            grads[f"dec{layer}.{name}"] += g
    grads["seed.W"] += dh0.T @ z
    grads["seed.b"] += dh0.sum(axis=0)
    d_z_dec = dh0 @ p["seed.W"]

    h_last = enc[-1]["hs"][:, -1]
    grads["lat.W"] += d_z.T @ h_last
    grads["lat.b"] += d_z.sum(axis=0)
    d_outputs, d_h_last = None, d_z @ p["lat.W"]
    for layer in range(cfg.num_layers - 1, -1, -1):
        dW, dU, db, d_outputs, _, _ = ref_backward(
            p[f"enc{layer}.W"], p[f"enc{layer}.U"], enc[layer], d_outputs, d_h_last
        )
        d_h_last = None
        for name, g in (("W", dW), ("U", dU), ("b", db)):
            grads[f"enc{layer}.{name}"] += g
    return z, outputs, d_z_dec, grads


@pytest.mark.parametrize("num_layers", [1, 2])
def test_model_stack_matches_reference_cells(num_layers):
    cfg = ModelConfig(input_dim=3, hidden_dim=6, latent_dim=4, num_layers=num_layers, seed=9)
    model = init_model(cfg)
    rng = np.random.default_rng(num_layers)
    X = rng.uniform(0, 1, (5, 7, 3))
    d_z = rng.standard_normal((5, 4))
    d_out = rng.standard_normal((5, 7, 3))

    enc = encode_batch(model, X)
    dec = decode_batch(model, enc.z, 7)
    grads = zero_grads(model)
    d_z_dec = decode_backward(model, dec, enc.z, d_out, grads)
    encode_backward(model, enc, d_z, grads)

    z, outputs, want_d_z_dec, want = ref_model_grads(model, X, d_z, d_out)
    np.testing.assert_array_equal(enc.z, z)
    np.testing.assert_array_equal(dec.outputs, outputs)
    np.testing.assert_array_equal(d_z_dec, want_d_z_dec)
    for name in model.param_names():
        np.testing.assert_array_equal(grads[name], want[name], err_msg=name)


@pytest.mark.parametrize("mode,num_layers", [("deterministic", 1), ("deterministic", 2), ("variational", 1)])
def test_cache_free_scoring_equals_cached_scoring(mode, num_layers):
    cfg = ModelConfig(input_dim=3, hidden_dim=5, latent_dim=2, num_layers=num_layers,
                      mode=mode, seed=4)
    model = init_model(cfg)
    rng = np.random.default_rng(6)
    windows = rng.uniform(0, 1, (9, 6, 3))
    scores, codes = score_windows(model, windows, chunk=4)

    z = np.concatenate([encode_batch(model, windows[lo : lo + 4]).z for lo in (0, 4, 8)])
    outputs = np.concatenate([decode_batch(model, z[lo : lo + 4], 6).outputs for lo in (0, 4, 8)])
    diff = outputs - windows
    np.testing.assert_array_equal(codes, z)
    np.testing.assert_array_equal(scores, np.mean(diff * diff, axis=(1, 2)))

    free = decode_batch(model, z, 6, False)
    assert all(c.gates is None for c in free.caches)
    np.testing.assert_array_equal(free.outputs, decode_batch(model, z, 6).outputs)


def test_saturated_preactivations_stay_finite_without_warnings():
    rng = np.random.default_rng(3)
    B, L, D, H = 4, 6, 2, 3
    W, U, b = weights(rng, D, H)
    W *= 4e3  # pre-activations of about +-1e3
    X = rng.uniform(-1, 1, (B, L, D))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = lstm_forward(W, U, b, X)
        grads = lstm_backward(W, U, cache, rng.standard_normal((B, L, H)), rng.standard_normal((B, H)))
    assert np.abs(X @ W.T).max() > 500
    sig = np.delete(cache.gates, np.s_[2 * H : 3 * H], axis=2)
    assert np.all((sig >= 0) & (sig <= 1)) and np.any(sig == 0) and np.any(sig == 1)
    assert np.all(np.abs(cache.gates[:, :, 2 * H : 3 * H]) <= 1)
    assert np.all(np.isfinite(cache.hs))
    assert all(np.all(np.isfinite(g)) for g in grads)
    assert_cache_matches(cache, ref_forward(W, U, b, X))

"""Recurrent buffers reused across training batches, and the gate-major cell
at production shapes.

``trainer.train`` hands every batch one workspace, so each batch overwrites
the previous batch's activations instead of allocating its own. These tests
check that a batch run in a used workspace gives the same bits as a batch
run in none, that training stays byte-reproducible, that the buffers do not
pile up over batches, and that the fused cell matches the per-gate reference
of ``test_lstm`` at the shapes training and scoring use (GEMM kernels change
with shape).
"""

import numpy as np
import pytest

from flowsentry.cli import main
from flowsentry.lstm import lstm_backward, lstm_forward
from flowsentry.model import ModelConfig, init_model
from flowsentry.sequencing import Triplets
from flowsentry.trainer import TrainConfig, loss_and_grads, train

from conftest import peak_bytes
from test_lstm import assert_cache_matches, ref_backward, ref_forward, weights


def triplet_batch(rng, B, L, n):
    A = rng.uniform(0, 1, (B, L, n))
    P = np.clip(A + rng.uniform(-0.05, 0.05, A.shape), 0, 1)
    return A, P, rng.uniform(0, 1, A.shape)


@pytest.mark.parametrize("lam_rec,lam_tml", [(0.8, 0.9), (1.0, 0.0)])
@pytest.mark.parametrize("first,second", [(6, 6), (6, 4), (4, 6)])
@pytest.mark.parametrize(
    "mode,num_layers", [("deterministic", 1), ("deterministic", 2), ("variational", 1)]
)
def test_used_workspace_gives_the_bits_of_a_fresh_call(
    mode, num_layers, first, second, lam_rec, lam_tml
):
    cfg = ModelConfig(input_dim=3, hidden_dim=5, latent_dim=4, num_layers=num_layers,
                      mode=mode, seed=2)
    model = init_model(cfg)
    train_cfg = TrainConfig(lam_rec=lam_rec, lam_tml=lam_tml,
                            lam_kl=0.1 if cfg.variational else 0.0, epochs=1)
    rng = np.random.default_rng(first * 10 + second)
    X, Y = triplet_batch(rng, first, 7, 3), triplet_batch(rng, second, 7, 3)

    workspace = {}
    loss_and_grads(model, *X, train_cfg, workspace=workspace)
    layers = {f"{side}{k}" for side in ("enc", "dec") for k in range(num_layers)}
    assert set(workspace) == layers
    # the forward's input projection, the gates and the backward's
    # dL/d(pre) share the "pre" buffer
    names = {"pre", "hs", "cs", "tanh_c"}
    assert all(set(held) == names for held in workspace.values())
    buffers = {(layer, name): buf for layer, held in workspace.items() for name, buf in held.items()}
    parts, grads = loss_and_grads(model, *Y, train_cfg, workspace=workspace)
    want_parts, want = loss_and_grads(model, *Y, train_cfg)

    assert parts == want_parts
    assert grads.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(grads[name], want[name], err_msg=name)
    if second <= first:  # a batch no larger than the first allocates nothing
        held = {(layer, name): buf for layer, h in workspace.items() for name, buf in h.items()}
        assert held.keys() == buffers.keys()
        assert all(held[key] is buffers[key] for key in buffers)


def test_two_trains_in_one_process_write_identical_files(tmp_path):
    flows = tmp_path / "flows.csv"
    assert main(["generate", "--out", str(flows), "--flows", "1500", "--features", "3",
                 "--attack-fraction", "0.2", "--burst-flows", "50", "--burst-alignment", "10",
                 "--seed", "4"]) == 0
    outputs = []
    for run in (1, 2):
        model, report = tmp_path / f"model{run}.fsn", tmp_path / f"report{run}.json"
        # 15 batches an epoch, the last one short
        assert main(["train", "--flows", str(flows), "--model-out", str(model),
                     "--report-out", str(report), "--category-column", "category",
                     "--sequence-length", "10",
                     "--hidden-dim", "8", "--latent-dim", "4", "--num-layers", "2",
                     "--epochs", "2", "--batch-size", "6", "--seed", "3"]) == 0
        outputs.append((model.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


def test_step_buffer_holds_each_steps_gates():
    rng = np.random.default_rng(5)
    W, U, b = weights(rng, 3, 6)
    workspace = {}
    for B in (7, 4):  # the second pass uses the leading part of the buffers
        X = rng.uniform(0, 1, (B, 5, 3))
        cache = lstm_forward(W, U, b, X, workspace=workspace)
        ref = ref_forward(W, U, b, X)
        assert cache.steps.shape == (B, 5, 24)
        for t in range(5):
            for k, name in enumerate(("gi", "gf", "gg", "go")):
                np.testing.assert_array_equal(cache.steps[:, t, k * 6 : (k + 1) * 6],
                                              ref[name][:, t])
        assert not cache.gates.flags.writeable


def test_joint_batch_workspace_at_benchmark_shape():
    # B 64, L 25, D 8, H 64: 3B = 192 encoder rows, 64 decoder rows
    model = init_model(ModelConfig(input_dim=8, hidden_dim=64, seed=1))
    rng = np.random.default_rng(64)
    workspace = {}
    for _ in range(2):
        loss_and_grads(model, *triplet_batch(rng, 64, 25, 8), TrainConfig(), workspace=workspace)
    held = sum(buf.nbytes for layer in workspace.values() for buf in layer.values())
    # one (B, L, 4H) step buffer a layer: 22.1 MiB, where a separate gate
    # cache took 34.6
    assert held <= 23 * 2**20


def test_backward_with_a_workspace_consumes_its_cache():
    rng = np.random.default_rng(6)
    W, U, b = weights(rng, 3, 6)
    workspace = {}
    cache = lstm_forward(W, U, b, rng.uniform(0, 1, (4, 5, 3)), workspace=workspace)
    d_out = rng.standard_normal((4, 5, 6))
    lstm_backward(W, U, cache, d_out, workspace=workspace)
    assert cache.steps is None and cache.gates is None
    with pytest.raises(ValueError, match="consumed"):
        lstm_backward(W, U, cache, d_out, workspace=workspace)
    with pytest.raises(ValueError, match="consumed"):
        lstm_backward(W, U, cache, d_out)


def test_training_memory_does_not_grow_with_batches():
    model = init_model(ModelConfig(input_dim=4, hidden_dim=32, latent_dim=8, seed=1))
    cfg = TrainConfig(epochs=1, batch_size=32, seed=2)
    rng = np.random.default_rng(8)

    def triplets(count):
        A, P, _ = triplet_batch(rng, count, 25, 4)
        return Triplets(A, P, (np.arange(count) + 1) % count)

    one, seven = triplets(32), triplets(7 * 32)
    peak_one = peak_bytes(lambda: train(one, model.copy(), cfg))
    peak_seven = peak_bytes(lambda: train(seven, model.copy(), cfg))
    assert peak_seven <= 1.2 * peak_one


@pytest.mark.parametrize("reuse", [False, True])
def test_matches_reference_cell_at_training_shape(reuse):
    B, L, D, H = 192, 25, 8, 64  # the 3B rows of a stacked triplet batch
    rng = np.random.default_rng(192)
    W, U, b = weights(rng, D, H)
    X = rng.uniform(0, 1, (B, L, D))
    workspace = None
    if reuse:  # a used workspace, last filled by another batch
        workspace = {}
        other = lstm_forward(W, U, b, rng.uniform(0, 1, (B, L, D)), workspace=workspace)
        lstm_backward(W, U, other, rng.standard_normal((B, L, H)), workspace=workspace)
    cache = lstm_forward(W, U, b, X, workspace=workspace)
    ref = ref_forward(W, U, b, X)
    assert_cache_matches(cache, ref)

    d_out = rng.standard_normal((B, L, H))
    d_last = rng.standard_normal((B, H))
    got = lstm_backward(W, U, cache, d_out, d_last, workspace=workspace)
    for g, w in zip(got, ref_backward(W, U, ref, d_out, d_last)):
        np.testing.assert_array_equal(g, w)


def test_matches_reference_cell_on_zero_input_at_decoder_shape():
    B, L, D, H = 64, 25, 8, 64
    rng = np.random.default_rng(64)
    W, U, b = weights(rng, D, H)
    h0 = rng.standard_normal((B, H))
    cache = lstm_forward(W, U, b, (B, L), h0)
    ref = ref_forward(W, U, b, np.zeros((B, L, D)), h0)
    assert_cache_matches(cache, ref)

    d_out = rng.standard_normal((B, L, H))
    dW, dU, db, d_inputs, dh0, dc0 = lstm_backward(W, U, cache, d_out)
    want = ref_backward(W, U, ref, d_out)
    assert d_inputs is None and not dW.any()
    for g, w in zip((dU, db, dh0, dc0), (*want[1:3], *want[4:])):
        np.testing.assert_array_equal(g, w)


def test_cache_free_pass_matches_reference_cell_at_scoring_shape():
    B, L, D, H = 512, 25, 8, 64
    rng = np.random.default_rng(512)
    W, U, b = weights(rng, D, H)
    X = rng.uniform(0, 1, (B, L, D))
    free = lstm_forward(W, U, b, X, keep_cache=False)
    assert free.steps is None and free.gates is None
    np.testing.assert_array_equal(free.hs.transpose(1, 0, 2), ref_forward(W, U, b, X)["hs"])

"""Training's recurrences as two row halves: bit-equality with the unsplit
loop and with any worker count, where the cut falls, errors and threads,
and a traced ``train`` run."""

import contextlib
import io
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from flowsentry import cli, detector, lstm, trainer
from flowsentry.lstm import lstm_backward, lstm_forward
from flowsentry.model import ModelConfig, init_model, parameter_group
from flowsentry.sequencing import Triplets
from flowsentry.trainer import FREEZE_REGIMES, FreezeSpec, TrainConfig, train

from conftest import install, use_workers
from test_lstm import weights


class Recording(ThreadPoolExecutor):
    """A one-thread pool that counts the tasks handed to it."""

    def __init__(self):
        super().__init__(1)
        self.tasks = 0

    def submit(self, fn, /, *args, **kwargs):
        self.tasks += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def pool():
    with Recording() as recording:
        yield recording


def test_training_reads_the_scoring_worker_rule():
    assert trainer._scoring_workers is detector._scoring_workers


# --- one layer: halves against the unsplit loop ------------------------------

SHAPES = [(128, 64, 25, 8), (192, 64, 25, 8), (150, 48, 10, 48)]  # (B, H, L, D)
# a split pass hands the pool one half of the forward loop, and one half of
# the backward loop plus dU
SPLIT_TASKS = 3


def layer(shape, seed):
    B, H, L, D = shape
    rng = np.random.default_rng(seed)
    W, U, b = weights(rng, D, H)
    return rng, W, U, b, rng.uniform(0, 1, (B, L, D))


def assert_same_cache(got, want):
    for name in ("hs", "cs", "gate_blocks", "tanh_c"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None, name
        else:
            np.testing.assert_array_equal(g, w, err_msg=name)


@pytest.mark.parametrize("threaded", [False, True], ids=["caller", "pool"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "B{}-H{}-L{}-D{}".format(*s))
def test_halves_match_the_unsplit_loop(shape, threaded, pool):
    B, H, L, D = shape
    rng, W, U, b, X = layer(shape, B + H)
    halves = pool if threaded else None
    want = lstm_forward(W, U, b, X)  # no workspace: one block
    got = lstm_forward(W, U, b, X, workspace={}, pool=halves)
    assert_same_cache(got, want)

    d_out = rng.standard_normal((B, L, H))
    d_last = rng.standard_normal((B, H))
    want_grads = lstm_backward(W, U, want, d_out, d_last)
    got_grads = lstm_backward(W, U, got, d_out, d_last, workspace={}, pool=halves)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g, w)
    assert pool.tasks == (SPLIT_TASKS if threaded else 0)


@pytest.mark.parametrize("threaded", [False, True], ids=["caller", "pool"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "B{}-H{}-L{}-D{}".format(*s))
def test_halves_match_on_zero_input_decoder_form(shape, threaded, pool):
    B, H, L, D = shape
    rng, W, U, b, _ = layer(shape, B * H)
    h0 = rng.standard_normal((B, H))
    halves = pool if threaded else None
    want = lstm_forward(W, U, b, (B, L), h0)
    got = lstm_forward(W, U, b, (B, L), h0, workspace={}, pool=halves)
    assert_same_cache(got, want)

    d_out = rng.standard_normal((B, L, H))
    want_grads = lstm_backward(W, U, want, d_out)
    got_grads = lstm_backward(W, U, got, d_out, workspace={}, pool=halves)
    assert got_grads[3] is None and not got_grads[0].any()
    for g, w in zip(got_grads, want_grads):
        if w is not None:
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("threaded", [False, True], ids=["caller", "pool"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "B{}-H{}-L{}-D{}".format(*s))
def test_halves_match_without_a_cache(shape, threaded, pool):
    _, W, U, b, X = layer(shape, 7)
    want = lstm_forward(W, U, b, X, keep_cache=False)
    got = lstm_forward(W, U, b, X, keep_cache=False, workspace={},
                       pool=pool if threaded else None)
    assert got.gate_blocks is None and got.cs is None
    np.testing.assert_array_equal(got.hs, want.hs)


@pytest.mark.parametrize("B, split", [(127, False), (128, True), (129, True)])
def test_cut_falls_at_64_rows_a_half(B, split, pool, monkeypatch):
    blocks = []
    in_halves = lstm._in_halves

    def recording(run, *args):
        in_halves(lambda lo, hi: (blocks.append((lo, hi)), run(lo, hi)), *args)

    monkeypatch.setattr(lstm, "_in_halves", recording)
    _, W, U, b, X = layer((B, 16, 4, 3), 3)
    cache = lstm_forward(W, U, b, X, workspace={}, pool=pool)
    lstm_backward(W, U, cache, np.ones((B, 4, 16)), workspace={}, pool=pool)
    assert lstm.MIN_HALF == 64
    assert sorted(blocks) == sorted(([(0, B // 2), (B // 2, B)] if split else [(0, B)]) * 2)
    assert pool.tasks == (SPLIT_TASKS if split else 0)


def test_halves_the_pool_thread_never_takes_up_run_in_the_caller(pool):
    B, H, L, D = SHAPES[1]
    rng, W, U, b, X = layer(SHAPES[1], 11)
    d_out = rng.standard_normal((B, L, H))
    want = lstm_forward(W, U, b, X)
    want_grads = lstm_backward(W, U, want, d_out)
    busy = threading.Event()
    blocker = pool.submit(busy.wait, 60)  # holds the pool's one thread
    try:
        got = lstm_forward(W, U, b, X, workspace={}, pool=pool)
        got_grads = lstm_backward(W, U, got, d_out, workspace={}, pool=pool)
        assert blocker.running()
    finally:
        busy.set()
    assert_same_cache(got, want)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g, w)


def test_no_split_without_a_workspace(pool):
    _, W, U, b, X = layer((192, 16, 4, 3), 4)
    cache = lstm_forward(W, U, b, X, pool=pool)
    lstm_backward(W, U, cache, np.ones((192, 4, 16)), pool=pool)
    assert pool.tasks == 0


# --- train(): the same bits with 1, 2 and 3 workers --------------------------

F, L = 8, 10


@pytest.fixture(scope="module")
def triplets():
    # 150 triplets in batches of 128 and 22: the full batch's passes split,
    # the short batch's stay whole
    rng = np.random.default_rng(13)
    anchors = rng.uniform(0, 1, (150, L, F))
    positives = np.clip(anchors + rng.uniform(-0.05, 0.05, anchors.shape), 0, 1)
    return Triplets(anchors, positives, (np.arange(150) + 7) % 150)


RUNS = {
    "joint": (dict(), dict()),
    "reconstruction": (dict(), dict(lam_rec=1.0, lam_tml=0.0)),
    "variational": (dict(mode="variational"), dict(lam_kl=0.1)),
    "two-layer": (dict(num_layers=2, hidden_dim=48), dict()),
}


def trained(monkeypatch, workers, triplets, model, cfg, freeze=FreezeSpec()):
    use_workers(monkeypatch, workers)
    model = model.copy()
    report = train(triplets, model, cfg, freeze)
    return model.params, report


def assert_same_training(got, want):
    (params, report), (want_params, want_report) = got, want
    assert params.keys() == want_params.keys()
    for name in want_params:
        np.testing.assert_array_equal(params[name], want_params[name], err_msg=name)
    for name in ("joint_loss", "reconstruction_loss", "triplet_loss", "kl_loss"):
        np.testing.assert_array_equal(getattr(report, name), getattr(want_report, name))


@pytest.mark.parametrize("run", RUNS)
def test_train_same_bits_with_1_2_and_3_workers(monkeypatch, triplets, run, threads_started):
    model_kw, train_kw = RUNS[run]
    model = init_model(ModelConfig(input_dim=F, **{"hidden_dim": 64, "latent_dim": 16,
                                                   "seed": 3, **model_kw}))
    cfg = TrainConfig(epochs=2, batch_size=128, seed=4, **train_kw)
    one = trained(monkeypatch, 1, triplets, model, cfg)
    assert threads_started == []
    for workers in (2, 3):
        assert_same_training(trained(monkeypatch, workers, triplets, model, cfg), one)
    assert len(threads_started) == 2  # one pool thread a threaded train


def test_frozen_transfer_same_bits_with_1_2_and_3_workers(monkeypatch, triplets):
    source = init_model(ModelConfig(input_dim=F, hidden_dim=64, latent_dim=16, seed=8))
    use_workers(monkeypatch, 2)
    train(triplets, source, TrainConfig(epochs=1, seed=1))
    freeze = FreezeSpec(FREEZE_REGIMES["encoder"])
    cfg = TrainConfig(epochs=2, seed=2)
    one = trained(monkeypatch, 1, triplets, source, cfg, freeze)
    frozen = {name for name in one[0] if parameter_group(name) in freeze.frozen}
    assert frozen and not np.array_equal(one[0]["out.W"], source.params["out.W"])
    for name in frozen:
        np.testing.assert_array_equal(one[0][name], source.params[name], err_msg=name)
    for workers in (2, 3):
        assert_same_training(trained(monkeypatch, workers, triplets, source, cfg, freeze), one)


# --- errors and threads ------------------------------------------------------

def fail_in_one_half(monkeypatch, in_pool=True):
    """Make every sigmoid of the pool's half (or of the caller's) raise
    MemoryError."""
    sigmoid = lstm.sigmoid

    def failing(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) != in_pool:
            raise MemoryError("no room for this half")
        return sigmoid(*args, **kwargs)

    monkeypatch.setattr(lstm, "sigmoid", failing)


@pytest.mark.parametrize("in_pool", [True, False], ids=["pool-half", "caller-half"])
def test_memory_error_in_either_half_propagates(monkeypatch, triplets, in_pool):
    model = init_model(ModelConfig(input_dim=F, hidden_dim=16, latent_dim=4, seed=1))
    use_workers(monkeypatch, 2)
    fail_in_one_half(monkeypatch, in_pool)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room for this half"):
        train(triplets, model, TrainConfig(epochs=1))
    assert threading.active_count() == before


def test_threads_end_with_every_train(monkeypatch, triplets, threads_started):
    model = init_model(ModelConfig(input_dim=F, hidden_dim=16, latent_dim=4, seed=1))
    before = threading.active_count()
    for workers in (1, 2, 3, 1, 2):
        use_workers(monkeypatch, workers)
        train(triplets, model.copy(), TrainConfig(epochs=1))
        assert threading.active_count() == before
    assert len(threads_started) == 3


# --- commands: sequence length 5 over 3,000 flows -----------------------------

def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def flows(tmp_path_factory):
    path = tmp_path_factory.mktemp("threaded-train") / "flows.csv"
    assert run("generate", "--out", path, "--flows", 3000, "--features", 4,
               "--attack-fraction", 0.3, "--burst-flows", 100, "--burst-alignment", 5,
               "--seed", 9) == 0
    return path


def train_command(flows, out):
    return ["train", "--flows", flows, "--model-out", out / "model.fsn",
            "--report-out", out / "report.json", "--category-column", "category",
            "--sequence-length", 5, "--latent-dim", 8, "--epochs", 2, "--seed", 0]


def output_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_train_exits_1_when_the_pool_half_runs_out_of_memory(monkeypatch, flows, tmp_path,
                                                             capsys):
    use_workers(monkeypatch, 2)
    fail_in_one_half(monkeypatch)
    before = threading.active_count()
    assert run(*train_command(flows, tmp_path)) == 1
    assert "out of memory" in capsys.readouterr().err
    assert threading.active_count() == before


def test_train_command_same_bytes_with_1_2_and_3_workers(monkeypatch, flows, tmp_path):
    outputs = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        out = tmp_path / f"w{workers}"
        out.mkdir()
        assert run(*train_command(flows, out)) == 0
        outputs.append(output_bytes(out))
    assert len(outputs[0]) == 2
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# --- a traced run: the module-attribute wrapping of perfbench's tracer --------

TRACED = (("model", "encode_batch"), ("model", "decode_batch"),
          ("trainer", "loss_and_grads"), ("trainer", "train"))


def test_traced_train_on_two_workers(monkeypatch, flows, tmp_path, capfd):
    use_workers(monkeypatch, 2)
    plain = tmp_path / "plain"
    plain.mkdir()
    assert run(*train_command(flows, plain)) == 0

    traced_out = tmp_path / "traced"
    traced_out.mkdir()
    stack, calls = [], []
    before = threading.active_count()
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
    assert threading.active_count() == before
    opened = [c for c in calls if not c.startswith("/")]
    assert opened.count("train") == 1 and opened.count("loss_and_grads") >= 2
    for name in set(opened):
        assert calls.count(f"/{name}") == opened.count(name), name
    assert output_bytes(traced_out) == output_bytes(plain)

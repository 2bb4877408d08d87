import numpy as np
import pytest

from flowsentry.errors import DimensionMismatch, DivergedLoss, EmptyBatch, EmptyTrainingSet
from flowsentry import trainer as trainer_module
from flowsentry.model import (
    ModelConfig,
    decode_backward,
    decode_batch,
    encode_backward,
    encode_batch,
    init_model,
    reconstruct,
    reconstruction_error,
    zero_grads,
)
from flowsentry.sequencing import Triplets
from flowsentry.trainer import (
    DEFAULT_GRID,
    FREEZE_REGIMES,
    FreezeSpec,
    SweepEvalData,
    TrainConfig,
    joint_loss,
    loss_and_grads,
    sweep,
    train,
    triplet_margin_loss,
)

from conftest import benign_windows


def micro_triplets(count=4, L=4, n=2, seed=0):
    rng = np.random.default_rng(seed)
    seqs = np.stack([rng.uniform(0, 1, (L, n)) for i in range(count)])
    positives = np.stack([np.clip(s + rng.uniform(-0.01, 0.01, s.shape), 0, 1) for s in seqs])
    return Triplets(seqs, positives, (np.arange(count) + 1) % count)


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["lam_rec", "lam_tml", "lam_kl", "margin", "learning_rate", "clip_norm"]
    )
    def test_non_finite_floats_rejected(self, field, bad):
        with pytest.raises(ValueError):
            TrainConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["margin", "learning_rate", "clip_norm"])
    def test_positive_floats_reject_zero(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: 0.0})


class TestTripletMarginLoss:
    def test_boundary_zero(self):
        a = np.zeros(2)
        n = np.array([1.0, 0.0])  # ||a - n|| = 1 = margin
        assert triplet_margin_loss(a, a, n, margin=1.0) == 0.0

    def test_degenerate_collapse_equals_margin(self):
        a = np.array([0.3, 0.7])
        assert triplet_margin_loss(a, a, a, margin=1.0) == 1.0
        assert triplet_margin_loss(a, a, a, margin=0.25) == 0.25

    def test_hand_verified_norms(self):
        a, p, n = np.array([0.0, 0.0]), np.array([3.0, 4.0]), np.array([6.0, 8.0])
        assert triplet_margin_loss(a, p, n, margin=1.0) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            triplet_margin_loss(np.zeros(2), np.zeros(3), np.zeros(2), 1.0)


class TestJointLoss:
    def test_pure_reconstruction_equals_anchor_mse(self):
        triplets = micro_triplets()
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=1))
        cfg = TrainConfig(lam_rec=1.0, lam_tml=0.0, epochs=1)
        value = joint_loss(triplets, model, cfg)
        expected = np.mean(
            [
                reconstruction_error(anchor, reconstruct(model, anchor))
                for anchor in triplets.anchors
            ]
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_collapsed_triplets_give_margin(self):
        rng = np.random.default_rng(2)
        seq = rng.uniform(0, 1, (4, 2))
        triplets = Triplets(np.stack([seq] * 3), np.stack([seq] * 3), np.zeros(3, dtype=np.int64))
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=1))
        cfg = TrainConfig(lam_rec=0.0, lam_tml=1.0, margin=1.0, epochs=1)
        assert joint_loss(triplets, model, cfg) == pytest.approx(1.0, rel=1e-12)

    def test_empty_batch(self):
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=1))
        with pytest.raises(EmptyBatch):
            joint_loss([], model, TrainConfig(epochs=1))

    def test_non_negative(self):
        triplets = micro_triplets(seed=5)
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=2))
        cfg = TrainConfig(lam_rec=0.8, lam_tml=0.9, epochs=1)
        assert joint_loss(triplets, model, cfg) >= 0.0

    def test_zero_tml_weight_ignores_positives_and_negatives(self):
        # with lam_tml = 0 the gradient must equal the reconstruction-only
        # gradient: swapping in arbitrary positives/negatives changes nothing
        triplets = micro_triplets(seed=3)
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=3))
        cfg = TrainConfig(lam_rec=0.7, lam_tml=0.0, epochs=1)
        A = triplets.anchors
        rng = np.random.default_rng(0)
        parts1, g1 = loss_and_grads(model, A, rng.uniform(0, 1, A.shape), rng.uniform(0, 1, A.shape), cfg)
        parts2, g2 = loss_and_grads(model, A, rng.uniform(0, 1, A.shape), rng.uniform(0, 1, A.shape), cfg)
        assert parts1.total == parts2.total
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_loss_value_scales_with_common_weight_factor(self):
        triplets = micro_triplets(seed=7)
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=4))
        base = joint_loss(triplets, model, TrainConfig(lam_rec=0.8, lam_tml=0.9, epochs=1))
        half = joint_loss(triplets, model, TrainConfig(lam_rec=0.4, lam_tml=0.45, epochs=1))
        assert half == pytest.approx(0.5 * base, rel=1e-12)


def separate_branch_loss_and_grads(model, A, P, N, cfg, etas):
    """The joint loss with anchors, positives and negatives encoded and
    backpropagated as three separate batches, from the public model
    functions."""
    B, L, _ = A.shape
    eta_a, eta_p, eta_n = etas if etas is not None else (None, None, None)
    enc = [encode_batch(model, X, eta) for X, eta in ((A, eta_a), (P, eta_p), (N, eta_n))]
    za, zp, zn = (e.z for e in enc)
    dec = decode_batch(model, za, L)
    diff = dec.outputs - A
    rec = float(np.mean(diff * diff))
    ap, an = za - zp, za - zn
    d_ap, d_an = np.linalg.norm(ap, axis=1), np.linalg.norm(an, axis=1)
    hinge = d_ap - d_an + cfg.margin
    tml = float(np.mean(np.maximum(hinge, 0.0)))
    kl = 0.0
    extras = (None, None)
    if model.config.variational:
        mu, lv = enc[0].mean, enc[0].log_variance
        kl = float(np.mean(-0.5 * np.sum(1.0 + lv - mu * mu - np.exp(lv), axis=1)))
        w = cfg.lam_kl / B
        extras = (w * mu, w * 0.5 * (np.exp(lv) - 1.0))
    total = cfg.lam_tml * tml + cfg.lam_rec * rec + cfg.lam_kl * kl

    grads = zero_grads(model)
    d_za = decode_backward(model, dec, za, (2.0 * cfg.lam_rec / diff.size) * diff, grads)
    act = (hinge > 0)[:, None]
    unit_ap, unit_an = ap / d_ap[:, None], an / d_an[:, None]
    scale = cfg.lam_tml / B
    d_za = d_za + scale * np.where(act, unit_ap - unit_an, 0.0)
    encode_backward(model, enc[0], d_za, grads, *extras)
    encode_backward(model, enc[1], scale * np.where(act, -unit_ap, 0.0), grads)
    encode_backward(model, enc[2], scale * np.where(act, unit_an, 0.0), grads)
    return (total, rec, tml, kl), grads


class TestStackedTriplets:
    def batch(self, cfg, B=5, L=4, seed=0):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0, 1, (B, L, cfg.input_dim))
        P = np.clip(A + rng.uniform(-0.1, 0.1, A.shape), 0, 1)
        N = rng.uniform(0, 1, A.shape)
        etas = None
        if cfg.variational:
            etas = tuple(rng.standard_normal((B, cfg.latent_dim)) for _ in range(3))
        return A, P, N, etas

    def count_encodes(self, monkeypatch):
        rows = []
        original = trainer_module.encode_batch

        def counting(m, X, *args):
            rows.append(X.shape[0])
            return original(m, X, *args)

        monkeypatch.setattr(trainer_module, "encode_batch", counting)
        return rows

    @pytest.mark.parametrize("lam_rec,lam_tml,expected", [(0.8, 0.9, [15]), (0.0, 1.0, [15]), (1.0, 0.0, [5])])
    def test_one_encoder_pass_per_batch(self, monkeypatch, lam_rec, lam_tml, expected):
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=1))
        A, P, N, _ = self.batch(model.config)
        rows = self.count_encodes(monkeypatch)
        loss_and_grads(model, A, P, N, TrainConfig(lam_rec=lam_rec, lam_tml=lam_tml, epochs=1))
        assert rows == expected

    @pytest.mark.parametrize(
        "mode,num_layers,lam_kl",
        [("deterministic", 1, 0.0), ("deterministic", 2, 0.0), ("variational", 1, 0.1)],
    )
    def test_matches_separate_branches(self, mode, num_layers, lam_kl):
        cfg = ModelConfig(input_dim=3, hidden_dim=6, latent_dim=4, num_layers=num_layers,
                          mode=mode, seed=2)
        model = init_model(cfg)
        A, P, N, etas = self.batch(cfg, seed=num_layers)
        tcfg = TrainConfig(lam_rec=0.7, lam_tml=0.6, lam_kl=lam_kl, margin=1.0, epochs=1)
        parts, grads = loss_and_grads(model, A, P, N, tcfg, etas)
        want_parts, want = separate_branch_loss_and_grads(model, A, P, N, tcfg, etas)
        # forward rows of the stacked pass are bit-identical to separate passes
        assert (parts.total, parts.reconstruction, parts.triplet, parts.kl) == want_parts
        assert parts.triplet > 0
        # only the order of the gradient reductions over rows differs
        for name in model.param_names():
            scale = np.max(np.abs(want[name]))
            np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-10 * scale,
                                       err_msg=name)


class TestTrain:
    def test_loss_decreases_on_overfit(self):
        triplets = micro_triplets(count=1)
        model = init_model(ModelConfig(input_dim=2, hidden_dim=8, latent_dim=4, seed=0))
        report = train(
            triplets, model,
            TrainConfig(lam_rec=1.0, lam_tml=0.0, epochs=60, batch_size=1,
                        learning_rate=5e-3, seed=0),
        )
        assert report.joint_loss[-1] < report.joint_loss[0]
        assert len(report.joint_loss) == 60
        assert report.kl_loss is None

    def test_deterministic_per_seed(self):
        cfg = ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=1)
        tcfg = TrainConfig(lam_rec=0.8, lam_tml=0.9, epochs=5, batch_size=2, seed=99)
        models = []
        for _ in range(2):
            m = init_model(cfg)
            train(micro_triplets(seed=1), m, tcfg)
            models.append(m)
        for k in models[0].param_names():
            np.testing.assert_array_equal(models[0].params[k], models[1].params[k])

    def test_empty_training_set(self):
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=0))
        with pytest.raises(EmptyTrainingSet):
            train([], model, TrainConfig(epochs=1))

    def test_diverged_loss_guard(self):
        triplets = micro_triplets()
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=0))
        model.params["out.b"][:] = np.nan
        with pytest.raises(DivergedLoss):
            train(triplets, model, TrainConfig(lam_rec=1.0, lam_tml=0.0, epochs=1))

    @pytest.mark.parametrize("group", ["encoder", "decoder_core", "input_layer", "output_layer"])
    def test_single_group_freeze(self, group):
        from flowsentry.model import parameter_group

        triplets = micro_triplets(seed=2)
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=3))
        before = {k: v.copy() for k, v in model.params.items()}
        train(
            triplets, model,
            TrainConfig(lam_rec=0.8, lam_tml=0.9, epochs=3, batch_size=2, seed=1),
            FreezeSpec(frozenset({group})),
        )
        for name in model.param_names():
            if parameter_group(name) == group:
                np.testing.assert_array_equal(model.params[name], before[name])
            elif name == "dec0.W":
                # the decoder's first layer sees identically-zero step inputs,
                # so its input weights have zero gradient regardless of freeze
                np.testing.assert_array_equal(model.params[name], before[name])
            else:
                assert not np.array_equal(model.params[name], before[name])

    def test_unknown_freeze_group_rejected(self):
        with pytest.raises(ValueError):
            FreezeSpec(frozenset({"bogus"}))

    def test_freeze_regimes_cover_cli_choices(self):
        assert FREEZE_REGIMES["encoder"] == {"encoder", "input_layer"}
        assert FREEZE_REGIMES["all-but-io"] == {"encoder", "decoder_core"}


class TestSweep:
    def _eval_data(self, triplets):
        L = triplets.anchors.shape[1]
        seqs = benign_windows(triplets.anchors, [i * L for i in range(len(triplets))])
        return SweepEvalData(
            calibration_sequences=seqs,
            benign_test_sequences=seqs,
            attack_sequences=seqs[np.zeros(len(seqs), dtype=bool)],
            percentile=99.0,
        )

    def test_restricted_grid(self):
        triplets = micro_triplets()
        cfg = ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=0)
        tcfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        results, best = sweep(
            triplets, cfg, tcfg, self._eval_data(triplets),
            rec_values=(0.2, 0.8), tml_values=(0.0, 1.0),
        )
        assert len(results) == 4
        assert {(r.lam_rec, r.lam_tml) for r in results} == {
            (0.2, 0.0), (0.2, 1.0), (0.8, 0.0), (0.8, 1.0),
        }
        assert best in results

    def test_full_grid_has_121_cells(self):
        assert len(DEFAULT_GRID) == 11
        triplets = micro_triplets(count=2, L=2, n=1)
        cfg = ModelConfig(input_dim=1, hidden_dim=2, latent_dim=1, seed=0)
        tcfg = TrainConfig(epochs=1, batch_size=2, seed=0)
        results, _ = sweep(triplets, cfg, tcfg, self._eval_data(triplets))
        assert len(results) == 121

    def test_selection_uses_benign_accuracy_without_attacks(self):
        triplets = micro_triplets()
        cfg = ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=0)
        tcfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        results, best = sweep(
            triplets, cfg, tcfg, self._eval_data(triplets),
            rec_values=(1.0,), tml_values=(0.0, 0.5),
        )
        bas = [r.report.benign_accuracy for r in results]
        assert best.report.benign_accuracy == max(bas)

    def test_grid_values_validated(self):
        triplets = micro_triplets()
        cfg = ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=0)
        with pytest.raises(ValueError):
            sweep(triplets, cfg, TrainConfig(epochs=1), self._eval_data(triplets),
                  rec_values=(1.5,), tml_values=(0.0,))

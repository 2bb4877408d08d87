import numpy as np
import pytest

from flowsentry.errors import DimensionMismatch, InvalidConfig
from flowsentry.model import (
    GROUP_DECODER_CORE,
    GROUP_ENCODER,
    GROUP_INPUT_LAYER,
    GROUP_OUTPUT_LAYER,
    LOGVAR_MIN,
    ModelConfig,
    decode,
    encode,
    init_model,
    parameter_group,
    reconstruct,
    reconstruction_error,
)
from flowsentry.sequencing import Triplets
from flowsentry.trainer import TrainConfig, train


class TestConfigAndInit:
    def test_invalid_dims(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(input_dim=3, hidden_dim=0)
        with pytest.raises(InvalidConfig):
            ModelConfig(input_dim=0)
        with pytest.raises(InvalidConfig):
            ModelConfig(input_dim=3, mode="bogus")

    def test_same_seed_bit_identical(self):
        cfg = ModelConfig(input_dim=5, hidden_dim=8, latent_dim=4, seed=123)
        a, b = init_model(cfg), init_model(cfg)
        assert a.param_names() == b.param_names()
        for k in a.param_names():
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_shapes(self):
        cfg = ModelConfig(input_dim=77, hidden_dim=64, latent_dim=32)
        model = init_model(cfg)
        assert model.params["enc0.W"].shape == (256, 77)
        assert model.params["enc0.U"].shape == (256, 64)
        assert model.params["lat.W"].shape == (32, 64)
        assert model.params["seed.W"].shape == (64, 32)
        assert model.params["out.W"].shape == (77, 64)
        assert model.params["out.b"].shape == (77,)

    def test_variational_heads(self):
        cfg = ModelConfig(input_dim=3, hidden_dim=6, latent_dim=4, mode="variational")
        model = init_model(cfg)
        assert "mu.W" in model.params and "logvar.W" in model.params
        assert "lat.W" not in model.params

    def test_parameter_groups_partition(self):
        cfg = ModelConfig(input_dim=3, hidden_dim=4, latent_dim=2, num_layers=2)
        model = init_model(cfg)
        groups = {k: parameter_group(k) for k in model.param_names()}
        assert groups["enc0.W"] == GROUP_INPUT_LAYER
        assert groups["enc1.W"] == GROUP_ENCODER
        assert groups["enc0.U"] == GROUP_ENCODER
        assert groups["lat.W"] == GROUP_ENCODER
        assert groups["seed.W"] == GROUP_DECODER_CORE
        assert groups["dec0.W"] == GROUP_DECODER_CORE
        assert groups["out.W"] == GROUP_OUTPUT_LAYER
        assert set(groups.values()) == {
            GROUP_ENCODER,
            GROUP_DECODER_CORE,
            GROUP_INPUT_LAYER,
            GROUP_OUTPUT_LAYER,
        }


class TestForward:
    def test_zero_params_zero_latent(self):
        model = init_model(ModelConfig(input_dim=3, hidden_dim=4, latent_dim=2, seed=0))
        for k in model.params:
            model.params[k][:] = 0.0
        code = encode(model, np.zeros((6, 3)))
        np.testing.assert_array_equal(code.z, np.zeros(2))

    def test_zero_decoder_gives_bias_rows(self):
        model = init_model(ModelConfig(input_dim=3, hidden_dim=4, latent_dim=2, seed=0))
        for k in model.params:
            model.params[k][:] = 0.0
        model.params["out.b"][:] = [0.5, -1.0, 2.0]
        out = decode(model, np.zeros(2), length=4)
        np.testing.assert_array_equal(out, np.tile([0.5, -1.0, 2.0], (4, 1)))

    @pytest.mark.parametrize("length", [1, 3, 9])
    def test_shape_contract(self, length):
        model = init_model(ModelConfig(input_dim=4, hidden_dim=5, latent_dim=3, seed=1))
        x = np.random.default_rng(0).uniform(0, 1, (length, 4))
        out = decode(model, encode(model, x), length)
        assert out.shape == (length, 4)

    def test_forward_deterministic(self):
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=5))
        x = np.random.default_rng(1).uniform(0, 1, (7, 2))
        np.testing.assert_array_equal(encode(model, x).z, encode(model, x).z)

    def test_dimension_mismatch(self):
        model = init_model(ModelConfig(input_dim=3, hidden_dim=4, latent_dim=2, seed=0))
        with pytest.raises(DimensionMismatch):
            encode(model, np.zeros((5, 4)))
        with pytest.raises(DimensionMismatch):
            decode(model, np.zeros(3), 4)

    def test_trained_model_sensitive_to_timestep_order(self):
        rng = np.random.default_rng(2)
        model = init_model(ModelConfig(input_dim=2, hidden_dim=8, latent_dim=4, seed=2))
        seqs = np.stack([rng.uniform(0, 1, (6, 2)) for i in range(4)])
        triplets = Triplets(seqs, seqs, (np.arange(4) + 1) % 4)
        train(triplets, model, TrainConfig(lam_rec=1.0, lam_tml=0.0, epochs=40,
                                           batch_size=4, learning_rate=5e-3, seed=0))
        x = seqs[0]
        permuted = x[::-1].copy()
        assert not np.allclose(encode(model, x).z, encode(model, permuted).z)

    def test_stacked_layers_forward(self):
        model = init_model(ModelConfig(input_dim=3, hidden_dim=4, latent_dim=2,
                                       num_layers=2, seed=7))
        x = np.random.default_rng(3).uniform(0, 1, (5, 3))
        assert decode(model, encode(model, x), 5).shape == (5, 3)


class TestVariational:
    def test_clamped_floor_collapses_to_mean(self):
        cfg = ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3,
                          mode="variational", seed=3)
        model = init_model(cfg)
        model.params["logvar.W"][:] = 0.0
        model.params["logvar.b"][:] = -1e6  # clamps to LOGVAR_MIN
        x = np.random.default_rng(0).uniform(0, 1, (5, 2))
        eta = np.full(3, 2.0)
        code = encode(model, x, eta=eta)
        assert np.all(code.log_variance == LOGVAR_MIN)
        np.testing.assert_allclose(code.z, code.mean, atol=np.exp(-5.0) * 2.0)

    def test_eta_zero_matches_deterministic_twin(self):
        det_cfg = ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=9)
        det = init_model(det_cfg)
        var = init_model(
            ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3,
                        mode="variational", seed=9)
        )
        for k in det.params:
            if k.startswith("lat."):
                var.params["mu." + k.split(".")[1]] = det.params[k].copy()
            else:
                var.params[k] = det.params[k].copy()
        x = np.random.default_rng(4).uniform(0, 1, (6, 2))
        z_det = encode(det, x).z
        z_var = encode(var, x, eta=np.zeros(3)).z
        np.testing.assert_allclose(z_var, z_det, rtol=0, atol=0)
        np.testing.assert_allclose(
            decode(var, z_var, 6), decode(det, z_det, 6), rtol=0, atol=0
        )

    def test_seeded_eta_reproducible(self):
        cfg = ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3,
                          mode="variational", seed=1)
        model = init_model(cfg)
        x = np.random.default_rng(5).uniform(0, 1, (4, 2))
        np.testing.assert_array_equal(encode(model, x).z, encode(model, x).z)


class TestReconstructionError:
    def test_identity_is_zero(self):
        x = np.random.default_rng(0).uniform(0, 1, (3, 2))
        assert reconstruction_error(x, x.copy()) == 0.0

    def test_unit_offset(self):
        assert reconstruction_error(np.zeros((4, 3)), np.ones((4, 3))) == 1.0

    def test_hand_arithmetic(self):
        assert reconstruction_error(np.array([[0.0, 0.0]]), np.array([[1.0, 3.0]])) == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reconstruction_error(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_sequence_input(self):
        seq = np.zeros((2, 2))
        assert reconstruction_error(seq, np.ones((2, 2))) == 1.0

    def test_reconstruct_shape(self):
        model = init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=0))
        x = np.random.default_rng(1).uniform(0, 1, (5, 2))
        assert reconstruct(model, x).shape == (5, 2)

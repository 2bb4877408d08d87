import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.detector import (
    ThresholdModel,
    calibrate,
    classify_many,
    percentile_threshold,
    reconstruction_errors,
)
from flowsentry.errors import EmptyCalibrationSet
from flowsentry.model import ModelConfig, init_model


@pytest.fixture(scope="module")
def model():
    return init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=0))


def sequences(count=8, L=5, n=2, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(0, 1, (L, n)) for i in range(count)])


class TestPercentile:
    def test_linear_interpolation_example(self):
        errors = np.arange(1.0, 101.0)
        assert math.isclose(percentile_threshold(errors, 99.0), 99.01, rel_tol=1e-12)

    def test_percentile_100_is_max(self):
        errors = np.array([3.0, 7.0, 1.0])
        assert percentile_threshold(errors, 100.0) == 7.0

    def test_constant_sample(self):
        errors = np.full(10, 2.5)
        for q in (50.0, 90.0, 99.0, 100.0):
            assert percentile_threshold(errors, q) == 2.5

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            percentile_threshold(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            percentile_threshold(np.ones(3), 101.0)

    def test_empty_errors(self):
        with pytest.raises(EmptyCalibrationSet):
            percentile_threshold(np.zeros(0), 99.0)

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=60),
        st.floats(1.0, 99.0),
        st.floats(0.5, 1.0, exclude_max=True),
    )
    @settings(max_examples=60)
    def test_monotone_in_percentile(self, errors, hi, ratio):
        lo = hi * ratio
        e = np.asarray(errors)
        t_lo = percentile_threshold(e, lo)
        t_hi = percentile_threshold(e, hi)
        assert t_lo <= t_hi
        # flagged sets are nested: anything above the higher threshold is
        # above the lower one too
        assert np.all((e > t_hi) <= (e > t_lo))


class TestCalibrate:
    def test_threshold_is_percentile_of_errors(self, model):
        seqs = sequences()
        thr = calibrate(model, seqs, percentile=90.0)
        errors = reconstruction_errors(model, seqs)
        assert thr.threshold == percentile_threshold(errors, 90.0)
        assert thr.percentile == 90.0
        assert thr.calibration_count == len(seqs)

    def test_empty_calibration_set(self, model):
        with pytest.raises(EmptyCalibrationSet):
            calibrate(model, [])

    def test_self_consistency_bound(self, model):
        seqs = sequences(count=40, seed=3)
        for q in (90.0, 95.0, 99.0, 100.0):
            thr = calibrate(model, seqs, percentile=q)
            errors = reconstruction_errors(model, seqs)
            above = int((errors > thr.threshold).sum())
            assert above <= (100.0 - q) / 100.0 * len(seqs) + 1

    def test_invalid_threshold_model(self):
        with pytest.raises(ValueError):
            ThresholdModel(threshold=1.0, percentile=0.0, calibration_count=5)
        with pytest.raises(ValueError):
            ThresholdModel(threshold=-1.0, percentile=99.0, calibration_count=5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, bad):
        # score > nan is false, so a NaN threshold would call every window benign
        with pytest.raises(ValueError, match="finite"):
            ThresholdModel(threshold=bad, percentile=99.0, calibration_count=5)


class TestClassify:
    def test_boundary_is_benign(self, model):
        seq = sequences(count=1, seed=9)
        score = float(reconstruction_errors(model, seq)[0])
        at_scores, at_flagged = classify_many(model, ThresholdModel(score, 99.0, 1), seq)
        assert not at_flagged[0]
        assert at_scores[0] == score
        _, below_flagged = classify_many(model, ThresholdModel(score * (1 - 1e-9), 99.0, 1), seq)
        assert below_flagged[0]

    def test_zero_score_benign_for_positive_threshold(self, model):
        seq = np.zeros((1, 4, 2))
        # zero-parameter clone reconstructs zeros exactly
        clone = model.copy()
        for k in clone.params:
            clone.params[k][:] = 0.0
        scores, flagged = classify_many(clone, ThresholdModel(0.5, 99.0, 1), seq)
        assert scores[0] == 0.0
        assert not flagged[0]

    def test_classify_many_matches_single(self, model):
        seqs = sequences(count=6, seed=4)
        thr = calibrate(model, seqs, 95.0)
        many_scores, many_flagged = classify_many(model, thr, seqs)
        for i in range(len(seqs)):
            single_scores, single_flagged = classify_many(model, thr, seqs[i : i + 1])
            assert single_flagged[0] == many_flagged[i]
            assert single_scores[0] == many_scores[i]

    def test_pure_function(self, model):
        seq = sequences(count=1, seed=5)
        thr = ThresholdModel(0.1, 99.0, 1)
        a = classify_many(model, thr, seq)
        b = classify_many(model, thr, seq)
        assert a[0] == b[0] and a[1] == b[1]

    def test_chunking_invariance(self, model):
        seqs = sequences(count=10, seed=6)
        full = reconstruction_errors(model, seqs, chunk=512)
        tiny = reconstruction_errors(model, seqs, chunk=3)
        np.testing.assert_array_equal(full, tiny)

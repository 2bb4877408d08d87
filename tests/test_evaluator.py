import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.detector import ThresholdModel, calibrate, reconstruction_errors
from flowsentry.errors import EmptyCalibrationSet, InsufficientCodes, UnknownCategory
from flowsentry import detector as detector_module
from flowsentry import evaluator as evaluator_module
from flowsentry import model as model_module
from flowsentry.evaluator import (
    ConfusionCounts,
    benign_latent_codes,
    compute_metrics,
    counts_from_scores,
    evaluate_detector,
    latent_cohesion,
    per_category_eval,
    pr_across_percentiles,
)
from flowsentry.model import LatentCode, ModelConfig, init_model
from flowsentry.sequencing import Windows

from conftest import benign_windows


@pytest.fixture(scope="module")
def model():
    return init_model(ModelConfig(input_dim=2, hidden_dim=4, latent_dim=3, seed=1))


def attack_windows(values, categories, starts):
    return Windows(
        np.asarray(values, dtype=np.float64),
        np.asarray(starts, dtype=np.int64),
        np.ones(len(starts), dtype=bool),
        np.asarray(categories, dtype=object),
    )


class TestComputeMetrics:
    def test_hand_arithmetic(self):
        m = compute_metrics(ConfusionCounts(tp=97, fp=1, tn=99, fn=3))
        assert m.anomaly_accuracy == pytest.approx(97.0)
        assert m.benign_accuracy == pytest.approx(99.0)
        assert m.precision == pytest.approx(97 / 98)
        assert m.recall == pytest.approx(0.97)
        assert m.f1 == pytest.approx(2 * (97 / 98) * 0.97 / (97 / 98 + 0.97))

    def test_perfect_detector(self):
        m = compute_metrics(ConfusionCounts(tp=10, fp=0, tn=5, fn=0))
        assert m.precision == 1.0
        assert m.recall == 1.0
        assert m.f1 == 1.0

    def test_zero_denominators_are_absent(self):
        m = compute_metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=0))
        assert m.anomaly_accuracy is None
        assert m.precision is None
        assert m.recall is None
        assert m.f1 is None
        m = compute_metrics(ConfusionCounts(tp=2, fp=0, tn=0, fn=0))
        assert m.benign_accuracy is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)

    @given(st.integers(0, 10_000), st.integers(0, 10_000),
           st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=200)
    def test_identities(self, tp, fp, tn, fn):
        m = compute_metrics(ConfusionCounts(tp, fp, tn, fn))
        if m.recall is not None and m.anomaly_accuracy is not None:
            assert abs(m.anomaly_accuracy - 100.0 * m.recall) < 1e-12 * max(1.0, m.anomaly_accuracy)
        if m.f1 is not None:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert abs(m.f1 - expected) < 1e-12


class TestLatentCohesion:
    def test_identical_codes_zero(self):
        codes = [LatentCode(np.array([1.0, 2.0]))] * 3
        assert latent_cohesion(codes) == 0.0

    def test_hand_arithmetic(self):
        codes = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert latent_cohesion(codes) == 0.5

    def test_insufficient_codes(self):
        with pytest.raises(InsufficientCodes):
            latent_cohesion(np.zeros((1, 4)))


class TestPerCategory:
    def test_all_flagged_category_is_perfect(self):
        out = per_category_eval(np.zeros(0), np.array([0.2, 0.3, 0.4]), ["dos"] * 3, 1e-12)
        assert out["dos"].anomaly_accuracy == pytest.approx(100.0)
        assert out["dos"].recall == pytest.approx(1.0)

    def test_empty_categories_give_empty_map(self):
        assert per_category_eval(np.zeros(0), np.zeros(0), [], 1.0) == {}

    def test_group_by_category_requires_metadata(self):
        with pytest.raises(UnknownCategory):
            per_category_eval(np.zeros(0), np.array([0.5, 0.5]), ["dos", None], 1.0)

    def test_shared_benign_fp(self):
        out = per_category_eval(
            np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, 0.6]), ["recon", "dos"], 1e-12
        )
        # every benign window scores above the tiny threshold: fp = 4, tp = 1
        assert out["recon"].precision == pytest.approx(1 / 5)
        assert out["dos"].precision == pytest.approx(1 / 5)


class TestPRAcrossPercentiles:
    def test_separable_case(self, model):
        rng = np.random.default_rng(2)
        benign = np.stack([rng.uniform(0, 1, (4, 2)) for i in range(6)])
        # attacks far outside the unit box reconstruct terribly
        attacks = np.stack([rng.uniform(4, 5, (4, 2)) for i in range(3)])
        points = pr_across_percentiles(
            reconstruction_errors(model, benign), reconstruction_errors(model, attacks), [100.0]
        )
        assert len(points) == 1
        assert points[0].precision == pytest.approx(1.0)
        assert points[0].recall == pytest.approx(1.0)

    def test_empty_calibration(self):
        with pytest.raises(EmptyCalibrationSet):
            pr_across_percentiles(np.zeros(0), np.zeros(0), [99.0])

    def test_fp_counts_non_increasing_in_percentile(self, model):
        rng = np.random.default_rng(3)
        benign = np.stack([rng.uniform(0, 1, (4, 2)) for i in range(20)])
        points = pr_across_percentiles(
            reconstruction_errors(model, benign), np.zeros(0), [90.0, 95.0, 99.0, 100.0]
        )
        fps = [100.0 - p.benign_accuracy for p in points]
        assert fps == sorted(fps, reverse=True)


class TestEvaluateDetector:
    def test_full_report(self, model):
        rng = np.random.default_rng(4)
        benign = benign_windows([rng.uniform(0, 1, (4, 2)) for i in range(8)], [i * 4 for i in range(8)])
        attacks = attack_windows([rng.uniform(4, 5, (4, 2)) for i in range(4)], ["dos"] * 4,
                                 [100 + i for i in range(4)])
        thr = calibrate(model, benign.values, 99.0)
        report, codes = evaluate_detector(
            model, thr, benign, attacks,
            pr_percentiles=[90.0, 99.0],
        )
        assert report.counts.total == 12
        assert report.anomaly_accuracy == pytest.approx(100.0)
        assert "dos" in report.per_category
        assert len(report.pr_curve) == 2
        assert report.latent_cohesion == latent_cohesion(codes)
        np.testing.assert_array_equal(codes, benign_latent_codes(model, benign.values))

    def test_each_window_encoded_and_decoded_once(self, model, monkeypatch):
        rows = {"encode_batch": 0, "decode_batch": 0}

        def counting(name):
            original = getattr(model_module, name)

            def wrapped(m, X, *args):
                rows[name] += X.shape[0]
                return original(m, X, *args)

            return wrapped

        for module in (detector_module, evaluator_module):
            for name in rows:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name))
        rng = np.random.default_rng(5)
        benign = benign_windows([rng.uniform(0, 1, (4, 2)) for i in range(8)], [i * 4 for i in range(8)])
        attacks = attack_windows([rng.uniform(4, 5, (4, 2)) for c in ["dos", "recon", "dos"]],
                                 ["dos", "recon", "dos"], [100 + i for i in range(3)])
        thr = ThresholdModel(threshold=0.5, percentile=99.0, calibration_count=8)
        evaluate_detector(
            model, thr, benign, attacks,
            pr_percentiles=[90.0, 95.0, 99.0],
        )
        assert rows == {"encode_batch": 11, "decode_batch": 11}

    def test_counts_from_scores_strict_rule(self):
        counts = counts_from_scores(np.array([0.5, 1.0]), np.array([1.0, 2.0]), 1.0)
        # scores exactly at the threshold stay benign
        assert counts.fp == 0 and counts.tn == 2
        assert counts.tp == 1 and counts.fn == 1

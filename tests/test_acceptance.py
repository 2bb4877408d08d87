"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to see the lines as they complete.
Criterion 11 is a known failure; see "Known limitation: latent cohesion
direction" in the README (the triplet margin acts as a latent distance
floor, so the contrastive run cannot end up tighter than the
reconstruction-only run under this architecture).
"""

import time

import numpy as np
import pytest

from flowsentry.cli import main as cli_main
from flowsentry.artifact import load_artifact
from flowsentry.detector import calibrate, percentile_threshold, reconstruction_errors
from flowsentry.evaluator import (
    ConfusionCounts,
    benign_latent_codes,
    compute_metrics,
    counts_from_scores,
    latent_cohesion,
)
from flowsentry.ingest import fit_normalizer, normalize, split_benign
from flowsentry.model import ModelConfig, init_model, parameter_group, reconstruct, reconstruction_error
from flowsentry.rng import derive_seed
from flowsentry.sequencing import TripletConfig, Triplets, build_sequences, make_triplets
from flowsentry.smote import SmoteConfig, smote_oversample
from flowsentry.synthetic import SyntheticSpec, generate_flows, write_flows_csv
from flowsentry.threat import (
    BruteForceParams,
    DosParams,
    ReconParams,
    brute_force_expected_time,
    brute_force_success_prob,
    dos_overload,
    recon_detect_prob,
    recon_search_space,
    recon_success_prob,
)
from flowsentry.trainer import (
    FREEZE_REGIMES,
    TrainConfig,
    loss_and_grads,
    train,
    triplet_margin_loss,
)

from test_gradients import finite_difference_grads, max_relative_error


def criterion(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] C{num:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {num} ({name}) failed{suffix}"


def pipeline(table, root_seed, train_cfg, percentile=99.0, L=25):
    """The standard benign-only pipeline: split, normalize, window, train,
    calibrate. Returns everything the detection criteria need."""
    benign_train, benign_test = split_benign(table, 0.8, derive_seed(root_seed, "ingest-split"))
    stats = fit_normalizer(benign_train)
    train_seqs = build_sequences(normalize(benign_train, stats), L, L)
    test_seqs = build_sequences(normalize(benign_test, stats), L, L)
    all_seqs = build_sequences(normalize(table, stats), L, L)
    attack_seqs = all_seqs[all_seqs.is_attack]
    triplets = make_triplets(
        train_seqs, TripletConfig(sequence_length=L, noise_scale=0.01,
                                  seed=derive_seed(root_seed, "triplets"))
    )
    model = init_model(
        ModelConfig(input_dim=table.n_features, seed=derive_seed(root_seed, "init")),
        stats,
    )
    train(triplets, model, train_cfg)
    threshold = calibrate(model, train_seqs.values, percentile)
    return model, threshold, train_seqs.values, test_seqs.values, attack_seqs.values


@pytest.fixture(scope="module")
def attack_run():
    """Criteria 4 and 10 share one trained model on the attack corpus:
    mean-shift 5 sigma, 30% of flows in contiguous bursts, 50 epochs."""
    spec = SyntheticSpec(
        n_flows=20_000, n_features=8, attack_fraction=0.3, mean_shift=5.0,
        burst_flows=500, burst_alignment=25, seed=11,
    )
    table = generate_flows(spec)
    cfg = TrainConfig(lam_rec=0.8, lam_tml=0.9, epochs=50, seed=derive_seed(1, "training"))
    return pipeline(table, root_seed=1, train_cfg=cfg)


def test_c01_gradient_check():
    start = time.time()
    cfg = ModelConfig(input_dim=3, hidden_dim=8, latent_dim=4, num_layers=1, seed=20)
    model = init_model(cfg)
    rng = np.random.default_rng(21)
    B, L = 3, 4
    A = rng.uniform(0, 1, (B, L, 3))
    P = np.clip(A + rng.uniform(-0.01, 0.01, A.shape), 0, 1)
    N = rng.uniform(0, 1, (B, L, 3))
    tcfg = TrainConfig(lam_rec=0.7, lam_tml=0.3, margin=1.0, epochs=1)
    _, analytic = loss_and_grads(model, A, P, N, tcfg)
    numeric = finite_difference_grads(model, A, P, N, tcfg, None, h=1e-5)
    worst = max_relative_error(analytic, numeric)
    elapsed = time.time() - start
    criterion(
        1, "gradient check vs central differences",
        worst < 1e-4 and elapsed < 60,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_overfit_oracle():
    start = time.time()
    rng = np.random.default_rng(7)
    L, n = 25, 8
    anchor = rng.uniform(0, 1, (L, n))
    positive = np.clip(anchor + rng.uniform(-0.01, 0.01, (L, n)), 0, 1)
    negative = rng.uniform(0, 1, (L, n))
    model = init_model(ModelConfig(input_dim=n, seed=0))
    train(
        Triplets(np.stack([anchor, negative]), positive[None], np.array([1])), model,
        TrainConfig(lam_rec=1.0, lam_tml=0.0, epochs=500, batch_size=1,
                    learning_rate=1e-2, seed=1),
    )
    mse = reconstruction_error(anchor, reconstruct(model, anchor))
    elapsed = time.time() - start
    criterion(
        2, "single-triplet overfit below 1e-3",
        mse < 1e-3 and elapsed < 60,
        f"mse {mse:.2e}, {elapsed:.1f}s",
    )


def test_c03_threshold_calibration_consistency():
    start = time.time()
    table = generate_flows(SyntheticSpec(n_flows=5000, n_features=8, seed=11))
    cfg = TrainConfig(lam_rec=0.8, lam_tml=0.9, epochs=30, seed=derive_seed(0, "training"))
    model, threshold, _, test_seqs, _ = pipeline(table, root_seed=0, train_cfg=cfg)
    errors = reconstruction_errors(model, test_seqs)
    rate = float((errors <= threshold.threshold).mean())
    elapsed = time.time() - start
    criterion(
        3, "held-out benign verdict rate at percentile 99",
        rate >= 0.97 and elapsed < 300,
        f"rate {rate:.4f} over {len(test_seqs)} sequences, {elapsed:.0f}s",
    )


def test_c04_synthetic_attack_detection(attack_run):
    start = time.time()
    model, threshold, _, test_seqs, attack_seqs = attack_run
    benign_scores = reconstruction_errors(model, test_seqs)
    attack_scores = reconstruction_errors(model, attack_seqs)
    m = compute_metrics(counts_from_scores(benign_scores, attack_scores, threshold.threshold))
    elapsed = time.time() - start
    criterion(
        4, "5-sigma burst detection (AA >= 95, BA >= 97)",
        m.anomaly_accuracy >= 95.0 and m.benign_accuracy >= 97.0 and elapsed < 600,
        f"BA {m.benign_accuracy:.2f}, AA {m.anomaly_accuracy:.2f}",
    )


def test_c05_triplet_loss_exactness():
    a = np.zeros(2)
    n_at_margin = np.array([1.0, 0.0])
    case1 = triplet_margin_loss(a, a, n_at_margin, margin=1.0)
    collapsed = np.array([0.4, -0.2])
    case2 = triplet_margin_loss(collapsed, collapsed, collapsed, margin=1.0)
    case3 = triplet_margin_loss(
        np.array([0.0, 0.0]), np.array([3.0, 4.0]), np.array([6.0, 8.0]), margin=1.0
    )
    criterion(
        5, "triplet margin loss worked examples",
        case1 == 0.0 and case2 == 1.0 and case3 == 0.0,
        f"values ({case1}, {case2}, {case3}) == (0, m, 0)",
    )


def test_c06_threat_calculators():
    ok = True
    # Eq. 1: expected time
    ok &= brute_force_expected_time(BruteForceParams(2, 3, 1.0, 1)) == 4.0
    ok &= brute_force_expected_time(BruteForceParams(2, 3, 1.0, 2)) == 2.0
    ok &= brute_force_expected_time(BruteForceParams(2, 1, 2.0, 1)) == 2.0
    # Eq. 2: success probability
    ok &= brute_force_success_prob(BruteForceParams(2, 3, 1.0, elapsed=0.0)) == 0.0
    ok &= brute_force_success_prob(BruteForceParams(2, 3, 1.0, elapsed=8.0)) == 1.0
    ok &= brute_force_success_prob(BruteForceParams(2, 3, 1.0, elapsed=2.0)) == 0.25
    # Eq. 3-4: overload boolean and queuing ratio
    ok &= not dos_overload(DosParams(10.0, 5.0, 0.0)).overloaded
    ok &= dos_overload(DosParams(10.0, 0.0, 0.0, 3.0, 2.0, 10.0)).utilization == 0.5
    ok &= not dos_overload(DosParams(10.0, 4.0, 6.0)).overloaded
    # Eq. 5: search space
    ok &= recon_search_space(ReconParams(1, 1, 1)) == 1
    ok &= recon_search_space(ReconParams(256, 1024, 4)) == 1_048_576
    ok &= recon_search_space(ReconParams(9, 1, 5)) == 45
    # Eq. 6: detection probability
    ok &= recon_detect_prob(ReconParams(1, 1, 1, scan_rate=3.0, detection_scale=1.0, time=0.0)) == 0.0
    ok &= recon_detect_prob(ReconParams(1, 1, 1, scan_rate=3.0, detection_scale=0.0, time=9.0)) == 0.0
    ok &= abs(recon_detect_prob(
        ReconParams(1, 1, 1, scan_rate=1.0, detection_scale=1.0, time=np.log(2))
    ) - 0.5) < 1e-15
    # Eq. 7: success probability
    ok &= recon_success_prob(ReconParams(1, 1, 1, scan_rate=1.0, time=1.0,
                                         vulnerabilities=4, exploitable=4)) == 1.0
    ok &= recon_success_prob(ReconParams(1, 1, 1, scan_rate=1.0, time=3.0,
                                         vulnerabilities=4, exploitable=0)) == 0.0
    ok &= recon_success_prob(ReconParams(1, 1, 1, scan_rate=2.0, time=1.0,
                                         vulnerabilities=4, exploitable=1)) == 0.4375

    rng = np.random.default_rng(100)
    mono = True
    for _ in range(1000):
        a = int(rng.integers(2, 12))
        k = int(rng.integers(1, 10))
        p = int(rng.integers(1, 50))
        T = float(rng.uniform(0.01, 10))
        t1 = brute_force_expected_time(BruteForceParams(a, k, T, p))
        mono &= brute_force_expected_time(BruteForceParams(a, k + 1, T, p)) > t1
        mono &= brute_force_expected_time(BruteForceParams(a, k, T, p + 1)) < t1
        mono &= 0.0 <= brute_force_success_prob(
            BruteForceParams(a, k, T, p, elapsed=float(rng.uniform(0, 1e4)))
        ) <= 1.0
        lo, hi = sorted(rng.uniform(0, 20, 2))
        scale, rate = rng.uniform(0, 5, 2)
        rp_lo = ReconParams(1, 1, 1, scan_rate=rate, detection_scale=scale, time=lo)
        rp_hi = ReconParams(1, 1, 1, scan_rate=rate, detection_scale=scale, time=hi)
        d_lo, d_hi = recon_detect_prob(rp_lo), recon_detect_prob(rp_hi)
        mono &= d_lo <= d_hi and 0.0 <= d_lo <= 1.0 and 0.0 <= d_hi <= 1.0
        v = int(rng.integers(1, 30))
        mono &= 0.0 <= recon_success_prob(
            ReconParams(1, 1, 1, scan_rate=rate, time=hi,
                        vulnerabilities=v, exploitable=int(rng.integers(0, v + 1)))
        ) <= 1.0
        legit, attack = rng.uniform(0, 100, 2)
        cap = float(rng.uniform(0.1, 100))
        mono &= (
            dos_overload(DosParams(cap, legit, attack)).overloaded
            == dos_overload(DosParams(cap, attack, legit)).overloaded
        )
    criterion(6, "threat calculator examples and monotonicity", ok and mono)


def test_c07_metric_identities():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10_000):
        counts = ConfusionCounts(*(int(x) for x in rng.integers(0, 10_000, 4)))
        m = compute_metrics(counts)
        if m.recall is not None:
            worst = max(worst, abs(m.anomaly_accuracy - 100.0 * m.recall))
        if m.f1 is not None:
            worst = max(
                worst,
                abs(m.f1 - 2 * m.precision * m.recall / (m.precision + m.recall)),
            )
    criterion(7, "AA = 100*R and F1 harmonic-mean identities", worst < 1e-12,
              f"worst deviation {worst:.1e}")


def test_c08_smote_geometry():
    rng = np.random.default_rng(8)
    count, k, extra = 1000, 5, 500
    points = rng.uniform(0, 1, (count, 8))
    table_features = points
    from conftest import make_table

    table = make_table(table_features)
    out = smote_oversample(table, SmoteConfig(target_count=count + extra, k_neighbors=k, seed=3))
    ok = True
    worst = 0.0
    for s in range(count, count + extra):
        sample = out.features[s]
        base = points[(s - count) % count]
        dists = np.linalg.norm(points - base, axis=1)
        dists[(s - count) % count] = np.inf
        neighbors = points[np.argsort(dists)[:k]]
        residual = np.inf
        for nn in neighbors:
            direction = nn - base
            denom = float(direction @ direction)
            u = 0.0 if denom == 0 else float((sample - base) @ direction) / denom
            u = min(max(u, 0.0), 1.0)
            residual = min(residual, float(np.linalg.norm(sample - (base + u * direction))))
        worst = max(worst, residual)
        ok &= residual <= 1e-9
        ok &= sample.min() >= 0.0 and sample.max() <= 1.0
    criterion(8, "SMOTE samples on neighbor segments in the unit box", ok,
              f"worst residual {worst:.1e}")


def test_c09_freeze_contract(tmp_path):
    flows = tmp_path / "flows.csv"
    write_flows_csv(flows, generate_flows(SyntheticSpec(n_flows=600, n_features=3, seed=9)))
    source_path = tmp_path / "source.fsn"
    rc = cli_main([
        "train", "--flows", str(flows), "--model-out", str(source_path),
        "--category-column", "category", "--sequence-length", "10",
        "--hidden-dim", "8", "--latent-dim", "4", "--epochs", "2", "--seed", "1",
    ])
    assert rc == 0
    source = load_artifact(source_path).model

    ok = True
    details = []
    for regime, frozen_groups in FREEZE_REGIMES.items():
        out = tmp_path / f"tuned-{regime}.fsn"
        rc = cli_main([
            "transfer", "--model", str(source_path), "--flows", str(flows),
            "--model-out", str(out), "--freeze", regime,
            "--category-column", "category", "--sequence-length", "10",
            "--epochs", "2", "--seed", "2",
        ])
        assert rc == 0
        tuned = load_artifact(out).model
        frozen_ok = all(
            np.array_equal(tuned.params[name], source.params[name])
            for name in source.param_names()
            if parameter_group(name) in frozen_groups
        )
        trained_any = any(
            not np.array_equal(tuned.params[name], source.params[name])
            for name in source.param_names()
            if parameter_group(name) not in frozen_groups
        )
        ok &= frozen_ok and trained_any
        details.append(f"{regime}: frozen bit-identical={frozen_ok}")
    criterion(9, "transfer freeze contract", ok, "; ".join(details))


def test_c10_percentile_monotonicity(attack_run):
    model, _, train_seqs, test_seqs, attack_seqs = attack_run
    calibration_errors = reconstruction_errors(model, train_seqs)
    scores = np.concatenate([
        reconstruction_errors(model, test_seqs),
        reconstruction_errors(model, attack_seqs),
    ])
    benign_count = len(test_seqs)
    flagged_sets = []
    benign_accuracy = []
    for q in (90.0, 95.0, 99.0, 100.0):
        thr = percentile_threshold(calibration_errors, q)
        flagged = set(np.flatnonzero(scores > thr))
        flagged_sets.append(flagged)
        fp = sum(1 for i in flagged if i < benign_count)
        benign_accuracy.append(100.0 * (benign_count - fp) / benign_count)
    nested = all(
        flagged_sets[i + 1] <= flagged_sets[i] for i in range(len(flagged_sets) - 1)
    )
    ba_monotone = all(
        benign_accuracy[i + 1] >= benign_accuracy[i] for i in range(len(benign_accuracy) - 1)
    )
    criterion(
        10, "flagged-set nesting and benign accuracy across percentiles",
        nested and ba_monotone,
        "BA " + "/".join(f"{v:.2f}" for v in benign_accuracy),
    )


def test_c11_latent_cohesion_direction():
    # Known failure: the triplet margin is a distance floor on the latent
    # codes, so the contrastive run cannot end tighter than the
    # reconstruction-only run under this architecture. See the README.
    table = generate_flows(SyntheticSpec(n_flows=5000, n_features=8, seed=11))
    benign_train, benign_test = split_benign(table, 0.8, derive_seed(0, "ingest-split"))
    stats = fit_normalizer(benign_train)
    train_seqs = build_sequences(normalize(benign_train, stats), 25, 25)
    test_seqs = build_sequences(normalize(benign_test, stats), 25, 25)
    triplets = make_triplets(
        train_seqs, TripletConfig(seed=derive_seed(0, "triplets"))
    )
    cohesion = {}
    for lam_tml in (0.9, 0.0):
        model = init_model(ModelConfig(input_dim=8, seed=derive_seed(0, "init")), stats)
        train(
            triplets, model,
            TrainConfig(lam_rec=0.9, lam_tml=lam_tml, epochs=200,
                        learning_rate=5e-3, seed=derive_seed(0, "training")),
        )
        cohesion[lam_tml] = latent_cohesion(benign_latent_codes(model, test_seqs.values))
    criterion(
        11, "latent cohesion smaller with the contrastive term",
        cohesion[0.9] < cohesion[0.0],
        f"with {cohesion[0.9]:.4f} vs without {cohesion[0.0]:.4f}",
    )


@pytest.mark.skip(
    reason="optional full-scale reproduction; needs the external IoT flow "
    "datasets and multi-hour runtime - recipe documented in README"
)
def test_c12_full_scale_reproduction():
    pass

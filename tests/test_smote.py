import numpy as np
import pytest

from flowsentry import smote
from flowsentry.errors import TargetBelowInput, TooFewRecords
from flowsentry.rng import rng_from
from flowsentry.smote import SmoteConfig, smote_oversample

from conftest import make_table, peak_bytes


def segment_residual(sample, base, neighbors):
    """Distance from `sample` to the nearest segment [base, neighbor]."""
    best = np.inf
    for nn in neighbors:
        direction = nn - base
        denom = float(direction @ direction)
        u = 0.0 if denom == 0 else float((sample - base) @ direction) / denom
        u = min(max(u, 0.0), 1.0)
        best = min(best, float(np.linalg.norm(sample - (base + u * direction))))
    return best


def test_noop_when_target_equals_count():
    table = make_table([[0.1], [0.5], [0.9]])
    out = smote_oversample(table, SmoteConfig(target_count=3, k_neighbors=1, seed=0))
    assert out is table


def test_two_point_interpolation_stays_on_segment():
    table = make_table([[0.0], [1.0]])
    out = smote_oversample(table, SmoteConfig(target_count=3, k_neighbors=1, seed=4))
    synthetic = out.features[2, 0]
    assert 0.0 <= synthetic <= 1.0


def test_originals_preserved_in_order():
    rng = np.random.default_rng(0)
    table = make_table(rng.uniform(0, 1, (10, 3)))
    out = smote_oversample(table, SmoteConfig(target_count=17, k_neighbors=3, seed=1))
    assert len(out) == 17
    np.testing.assert_array_equal(out.features[:10], table.features)
    assert list(out.original_indices[:10]) == list(range(10))
    assert set(out.original_indices[10:]) == {-1}
    assert out.n_attack == 0


def test_synthetics_on_neighbor_segments_and_in_unit_box():
    rng = np.random.default_rng(7)
    k = 4
    table = make_table(rng.uniform(0, 1, (64, 4)))
    out = smote_oversample(table, SmoteConfig(target_count=120, k_neighbors=k, seed=9))
    points = table.features
    for s in range(64, 120):
        sample = out.features[s]
        base = points[(s - 64) % 64]
        dists = np.linalg.norm(points - base, axis=1)
        dists[(s - 64) % 64] = np.inf
        neighbors = points[np.argsort(dists)[:k]]
        assert segment_residual(sample, base, neighbors) <= 1e-9
        assert sample.min() >= 0.0 and sample.max() <= 1.0


def test_deterministic_per_seed():
    rng = np.random.default_rng(3)
    table = make_table(rng.uniform(0, 1, (12, 2)))
    a = smote_oversample(table, SmoteConfig(target_count=20, k_neighbors=3, seed=5))
    b = smote_oversample(table, SmoteConfig(target_count=20, k_neighbors=3, seed=5))
    np.testing.assert_array_equal(a.features, b.features)


def test_too_few_records():
    table = make_table([[0.1], [0.2]])
    with pytest.raises(TooFewRecords):
        smote_oversample(table, SmoteConfig(target_count=5, k_neighbors=2, seed=0))


def test_target_below_input():
    table = make_table([[0.1], [0.2], [0.3]])
    with pytest.raises(TargetBelowInput):
        smote_oversample(table, SmoteConfig(target_count=2, k_neighbors=1, seed=0))


def test_rejects_attack_rows():
    table = make_table([[0.1], [0.2], [0.3]], attacks=[False, True, False])
    with pytest.raises(ValueError):
        smote_oversample(table, SmoteConfig(target_count=5, k_neighbors=1, seed=0))


def reference_neighbors(points, k):
    """Per-row exact neighbours: Euclidean norm, self excluded, stable order."""
    rows = []
    for i, p in enumerate(points):
        dists = np.linalg.norm(points - p, axis=1)
        dists[i] = np.inf
        rows.append(np.argsort(dists, kind="stable")[:k])
    return np.array(rows)


def reference_oversample(points, cfg):
    """SMOTE with the reference neighbours of every row and the same draws."""
    count = len(points)
    n_synthetic = cfg.target_count - count
    neighbors = reference_neighbors(points, cfg.k_neighbors)
    rng = rng_from(cfg.seed)
    base_idx = np.arange(n_synthetic) % count
    pick = rng.integers(0, cfg.k_neighbors, size=n_synthetic)
    u = rng.uniform(0.0, 1.0, size=n_synthetic)
    bases = points[base_idx]
    picked = points[neighbors[base_idx, pick]]
    return np.vstack([points, bases + u[:, None] * (picked - bases)])


def budget_for_rows(n, rows):
    """The byte budget that makes the neighbour search take `rows` rows a chunk."""
    return smote._IN_FLIGHT * 8 * n * rows


@pytest.mark.parametrize("rows", [1, 7, 50])
@pytest.mark.parametrize("target", [61, 99, 100, 163])  # 50 rows: below, at, above 2x
def test_oversample_matches_reference_at_any_chunk(monkeypatch, rows, target):
    rng = np.random.default_rng(21)
    points = rng.uniform(0, 1, (50, 4))
    k = 3
    # distinct distances: the k+1 nearest of every row are well separated
    dists = np.sort(np.linalg.norm(points[:, None] - points[None], axis=2), axis=1)
    assert np.diff(dists[:, : k + 2], axis=1).min() > 1e-9
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(50, rows))
    cfg = SmoteConfig(target_count=target, k_neighbors=k, seed=8)
    out = smote_oversample(make_table(points), cfg)
    np.testing.assert_array_equal(out.features, reference_oversample(points, cfg))


@pytest.mark.parametrize("rows", [1, 7, 40])
def test_exact_duplicate_is_first_neighbor_never_self(monkeypatch, rows):
    rng = np.random.default_rng(5)
    half = rng.uniform(0, 1, (20, 3))
    order = rng.permutation(40)
    points = np.vstack([half, half])[order]
    twin = np.argsort(order)[(order + 20) % 40]  # the row holding the same point
    monkeypatch.setattr(smote, "_BLOCK_BYTES", budget_for_rows(40, rows))
    neighbors = smote._nearest_neighbors(points, 4, 40)
    assert neighbors.shape == (40, 4)
    np.testing.assert_array_equal(points[neighbors[:, 0]], points)
    np.testing.assert_array_equal(neighbors[:, 0], twin)
    assert not (neighbors == np.arange(40)[:, None]).any()


def test_neighbor_search_memory_within_budget():
    points = np.random.default_rng(0).uniform(0, 1, (20_000, 8))
    peak = peak_bytes(lambda: smote._nearest_neighbors(points, 5, 2_000))
    # products, distances and argpartition's indices, the (2,000, 5) int64
    # result, and 1 MiB for the (n,) squared norms and each chunk's (rows, k)
    # scraps
    assert peak <= 3 * smote._BLOCK_BYTES + 2_000 * 5 * 8 + (1 << 20)

import csv

import numpy as np
import pytest

from flowsentry import synthetic
from flowsentry.ingest import load_flows
from flowsentry.synthetic import (
    SyntheticSpec,
    generate_flows,
    synthetic_schema,
    write_flows_csv,
)

from conftest import make_table


def test_benign_only_corpus():
    table = generate_flows(SyntheticSpec(n_flows=200, n_features=3, attack_fraction=0.0, seed=1))
    assert len(table) == 200
    assert table.n_attack == 0
    assert all(c is None for c in table.categories)


def test_attack_fraction_and_categories():
    spec = SyntheticSpec(
        n_flows=1000, n_features=4, attack_fraction=0.3,
        burst_flows=100, seed=2, categories=("dos", "recon"),
    )
    table = generate_flows(spec)
    assert table.n_attack == 300
    cats = {c for c in table.categories if c is not None}
    assert cats == {"dos", "recon"}


def test_bursts_are_contiguous():
    spec = SyntheticSpec(n_flows=600, n_features=2, attack_fraction=0.25,
                         burst_flows=50, seed=3)
    table = generate_flows(spec)
    runs = np.flatnonzero(np.diff(table.is_attack.astype(int)) != 0) + 1
    segments = np.split(table.is_attack, runs)
    attack_runs = [len(s) for s in segments if s[0]]
    assert sum(attack_runs) == 150
    assert all(r == 50 for r in attack_runs)


def test_burst_alignment():
    spec = SyntheticSpec(n_flows=1000, n_features=2, attack_fraction=0.2,
                         burst_flows=100, burst_alignment=25, seed=4)
    table = generate_flows(spec)
    starts = np.flatnonzero(np.diff(np.concatenate([[0], table.is_attack.astype(int)])) == 1)
    assert all(s % 25 == 0 for s in starts)


def test_mean_shift_separates_attack_rows():
    spec = SyntheticSpec(n_flows=2000, n_features=3, attack_fraction=0.3,
                         burst_flows=200, mean_shift=5.0, seed=5)
    table = generate_flows(spec)
    benign = table.features[~table.is_attack]
    attack = table.features[table.is_attack]
    gap = attack.mean(axis=0) - benign.mean(axis=0)
    assert np.all(gap > 3.0 * benign.std(axis=0))


def test_deterministic_csv(tmp_path):
    spec = SyntheticSpec(n_flows=150, n_features=3, attack_fraction=0.2,
                         burst_flows=30, seed=6)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_flows_csv(a, generate_flows(spec))
    write_flows_csv(b, generate_flows(spec))
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip(tmp_path):
    spec = SyntheticSpec(n_flows=120, n_features=2, attack_fraction=0.25,
                         burst_flows=30, seed=7)
    table = generate_flows(spec)
    path = tmp_path / "flows.csv"
    write_flows_csv(path, table)
    loaded = load_flows(path, synthetic_schema(2))
    assert len(loaded) == 120
    np.testing.assert_allclose(loaded.features, table.features, rtol=0, atol=0)
    np.testing.assert_array_equal(loaded.is_attack, table.is_attack)
    assert loaded.categories == table.categories


def reference_csv(path, table):
    """The table written row by row through ``csv.writer``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j}" for j in range(table.n_features)] + ["label", "category"])
        for i in range(len(table)):
            row = [repr(float(v)) for v in table.features[i]]
            row.append("attack" if table.is_attack[i] else "benign")
            row.append(table.categories[i] or "")
            writer.writerow(row)


@pytest.mark.parametrize("block_rows", [1, 3, 8192])
@pytest.mark.parametrize("n_features", [0, 1, 3])
def test_csv_bytes_match_csv_writer(tmp_path, monkeypatch, block_rows, n_features):
    categories = ["a,b", 'q"t', "line\nbreak", "", None, "plain", " spaced ", "a,b"]
    attacks = [True, True, True, True, False, True, False, False]
    values = [0.1, -0.0, 1e-300, 5e-324, np.inf, -np.inf, np.nan, 123456789.0]
    features = np.array([np.roll(values, i)[:n_features] for i in range(8)]).reshape(8, -1)
    table = make_table(features, attacks, categories)
    monkeypatch.setattr(synthetic, "_WRITE_ROWS", block_rows)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_flows_csv(got, table)
    reference_csv(want, table)
    assert got.read_bytes() == want.read_bytes()


def test_invalid_spec():
    with pytest.raises(ValueError):
        SyntheticSpec(attack_fraction=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(n_flows=0)
    with pytest.raises(ValueError):
        SyntheticSpec(attack_fraction=0.5, categories=())

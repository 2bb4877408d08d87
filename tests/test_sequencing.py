from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.errors import NeedAtLeastTwoSequences, SequenceLongerThanData
from flowsentry.sequencing import TripletConfig, Windows, build_sequences, make_triplets

from conftest import benign_windows, make_table


class TestBuildSequences:
    def test_exact_tiling(self):
        table = make_table([[i] for i in range(10)])
        seqs = build_sequences(table, length=5, stride=5)
        assert len(seqs) == 2
        assert seqs.starts.tolist() == [0, 5]
        np.testing.assert_array_equal(seqs.values[1][:, 0], [5, 6, 7, 8, 9])

    def test_trailing_partial_window_discarded(self):
        table = make_table([[i] for i in range(11)])
        assert len(build_sequences(table, 5, 5)) == 2

    def test_stride_defaults_to_length(self):
        table = make_table([[i] for i in range(12)])
        assert build_sequences(table, 4).starts.tolist() == [0, 4, 8]

    def test_majority_attack_label(self):
        table = make_table(
            [[0]] * 5, attacks=[True, True, True, False, False],
            categories=["dos", "dos", "dos", None, None],
        )
        seq = build_sequences(table, 5)
        assert seq.is_attack.tolist() == [True]
        assert seq.categories.tolist() == ["dos"]

    def test_tie_stays_benign(self):
        table = make_table([[0]] * 4, attacks=[True, True, False, False])
        seq = build_sequences(table, 4)
        assert seq.is_attack.tolist() == [False]

    def test_flipping_one_flow_in_tied_window_flips_label(self):
        attacks = [True, True, False, False]
        base = build_sequences(make_table([[0]] * 4, attacks=attacks), 4)
        flipped = build_sequences(
            make_table([[0]] * 4, attacks=[True, True, True, False]), 4
        )
        assert base.is_attack.tolist() == [False]
        assert flipped.is_attack.tolist() == [True]

    def test_window_longer_than_data(self):
        with pytest.raises(SequenceLongerThanData):
            build_sequences(make_table([[0]] * 10), 25)

    def test_dominant_category_ties_break_lexicographically(self):
        table = make_table(
            [[0]] * 4,
            attacks=[True, True, True, False],
            categories=["recon", "dos", "recon", None],
        )
        seq = build_sequences(table, 4)
        assert seq.categories.tolist() == ["recon"]
        tied = make_table(
            [[0]] * 3,
            attacks=[True, True, False],
            categories=["recon", "dos", None],
        )
        assert build_sequences(tied, 3).categories[0] == "dos"

    def test_benign_sequence_has_no_category(self):
        table = make_table([[0]] * 3, attacks=[True, False, False], categories=["dos", None, None])
        seq = build_sequences(table, 3)
        assert seq.is_attack.tolist() == [False]
        assert seq.categories.tolist() == [None]


    def test_values_are_read_only_views_of_the_table(self):
        table = make_table([[i, -i] for i in range(12)])
        seqs = build_sequences(table, 4, 3)
        for values, start in zip(seqs.values, seqs.starts):
            assert np.shares_memory(values, table.features)
            assert not values.flags.writeable
            np.testing.assert_array_equal(
                values, table.features[start : start + 4]
            )
        with pytest.raises(ValueError):
            seqs.values[0][0, 0] = 1.0

    @given(
        n=st.integers(1, 40),
        length=st.integers(1, 12),
        stride=st.one_of(st.none(), st.integers(1, 6)),
        attacks=st.lists(st.booleans(), min_size=40, max_size=40),
        categories=st.lists(st.sampled_from([None, "", "dos", "recon", "Recon", "a"]),
                            min_size=40, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_labels_and_categories_match_a_window_loop(
        self, n, length, stride, attacks, categories
    ):
        length = min(length, n)
        table = make_table([[float(i)] for i in range(n)], attacks[:n], categories[:n])
        seqs = build_sequences(table, length, stride)
        starts = range(0, n - length + 1, stride or length)
        assert seqs.starts.tolist() == list(starts)
        for is_attack, category, start in zip(seqs.is_attack, seqs.categories, starts):
            window = range(start, start + length)
            n_attack = sum(attacks[i] for i in window)
            assert is_attack == (2 * n_attack > length)
            counts = Counter(categories[i] for i in window if attacks[i] and categories[i] is not None)
            expected = min(counts, key=lambda c: (-counts[c], c)) if counts and is_attack else None
            assert category == expected


class TestMakeTriplets:
    def _seqs(self, count=4, L=6, n=2, seed=0):
        rng = np.random.default_rng(seed)
        return benign_windows(
            [rng.uniform(0, 1, (L, n)) for i in range(count)],
            [i * L for i in range(count)],
        )

    def test_zero_noise_positive_identical(self):
        seqs = self._seqs()
        triplets = make_triplets(seqs, TripletConfig(noise_scale=0.0, seed=1))
        for anchor, positive in zip(triplets.anchors, triplets.positives):
            np.testing.assert_array_equal(anchor, positive)

    def test_noise_bounded_and_clamped(self):
        seqs = self._seqs(count=6)
        triplets = make_triplets(seqs, TripletConfig(noise_scale=0.01, seed=1))
        for anchor, positive in zip(triplets.anchors, triplets.positives):
            delta = np.abs(positive - anchor)
            assert delta.max() <= 0.01 + 1e-15
            assert positive.min() >= 0.0
            assert positive.max() <= 1.0

    def test_two_sequences_forces_the_other_negative(self):
        seqs = self._seqs(count=2)
        triplets = make_triplets(seqs, TripletConfig(seed=5))
        for i, negative in enumerate(triplets.negatives):
            assert seqs.starts[negative] != seqs.starts[i]

    def test_triplet_count_equals_anchor_count(self):
        seqs = self._seqs(count=7)
        assert len(make_triplets(seqs, TripletConfig(seed=0))) == 7

    def test_negative_start_differs(self):
        seqs = self._seqs(count=9)
        triplets = make_triplets(seqs, TripletConfig(seed=3))
        for i, negative in enumerate(triplets.negatives):
            assert seqs.starts[negative] != seqs.starts[i]

    def test_deterministic_per_seed(self):
        seqs = self._seqs(count=5)
        a = make_triplets(seqs, TripletConfig(noise_scale=0.01, seed=11))
        b = make_triplets(seqs, TripletConfig(noise_scale=0.01, seed=11))
        for i in range(len(a)):
            np.testing.assert_array_equal(a.positives[i], b.positives[i])
            assert seqs.starts[a.negatives[i]] == seqs.starts[b.negatives[i]]

    def test_needs_two_distinct_starts(self):
        with pytest.raises(NeedAtLeastTwoSequences):
            make_triplets(self._seqs(count=1), TripletConfig(seed=0))
        same_start = benign_windows([np.zeros((3, 1)) for _ in range(3)], [0, 0, 0])
        with pytest.raises(NeedAtLeastTwoSequences):
            make_triplets(same_start, TripletConfig(seed=0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_noise_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="noise_scale"):
            TripletConfig(noise_scale=bad)

    def test_rejects_attack_sequences(self):
        seqs = self._seqs(count=3)
        with_bad = Windows(
            np.concatenate([seqs.values, seqs.values[:1]]),
            np.append(seqs.starts, 99),
            np.append(seqs.is_attack, True),
            np.append(seqs.categories, "dos"),
        )
        with pytest.raises(ValueError):
            make_triplets(with_bad, TripletConfig(seed=0))

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_zero_noise_distance_property(self, count, seed):
        rng = np.random.default_rng(seed % 1000)
        seqs = benign_windows(
            [rng.uniform(0, 1, (4, 2)) for i in range(count)],
            [i * 4 for i in range(count)],
        )
        triplets = make_triplets(seqs, TripletConfig(noise_scale=0.0, seed=seed))
        assert len(triplets) == count
        for anchor, positive in zip(triplets.anchors, triplets.positives):
            assert np.linalg.norm(anchor - positive) == 0.0


def reference_triplets(windows, cfg):
    """One anchor at a time: each anchor's own stream draws its noise, then
    its negative among the windows with a different start."""
    children = np.random.SeedSequence(cfg.seed).spawn(len(windows))
    positives, negatives = [], []
    for i, anchor in enumerate(windows.values):
        rng = np.random.default_rng(children[i])
        positive = anchor
        if cfg.noise_scale > 0:
            noise = rng.uniform(-cfg.noise_scale, cfg.noise_scale, anchor.shape)
            positive = np.clip(anchor + noise, 0.0, 1.0)
        positives.append(positive)
        negatives.append(int(rng.choice(np.flatnonzero(windows.starts != windows.starts[i]))))
    return np.stack(positives), np.array(negatives)


@given(
    starts=st.lists(st.integers(0, 6), min_size=2, max_size=12).filter(lambda s: len(set(s)) > 1),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 3)),
    noise_scale=st.sampled_from([0.0, 0.01, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_triplets_match_a_per_anchor_loop(starts, shape, noise_scale, seed):
    rng = np.random.default_rng(seed)
    windows = benign_windows(rng.uniform(0, 1, (len(starts), *shape)), starts)
    cfg = TripletConfig(noise_scale=noise_scale, seed=seed)
    triplets = make_triplets(windows, cfg)
    positives, negatives = reference_triplets(windows, cfg)
    assert triplets.anchors is windows.values
    if noise_scale == 0:
        assert triplets.positives is windows.values
    np.testing.assert_array_equal(triplets.positives, positives)
    np.testing.assert_array_equal(triplets.negatives, negatives)
    assert triplets.negatives.dtype == np.int64
    assert len(triplets) == len(starts)


def test_triplets_of_a_table_match_a_per_anchor_loop():
    table = make_table(np.random.default_rng(4).uniform(0, 1, (200, 3)))
    windows = build_sequences(table, 7, 5)
    cfg = TripletConfig(noise_scale=0.05, seed=12)
    triplets = make_triplets(windows, cfg)
    positives, negatives = reference_triplets(windows, cfg)
    assert np.shares_memory(triplets.anchors, table.features)
    np.testing.assert_array_equal(triplets.positives, positives)
    np.testing.assert_array_equal(triplets.negatives, negatives)

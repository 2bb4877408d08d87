from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.errors import NeedAtLeastTwoSequences, SequenceLongerThanData
from flowsentry.ingest import ATTACK, BENIGN
from flowsentry.sequencing import TripletConfig, build_sequences, make_triplets

from conftest import benign_sequence, make_table


class TestBuildSequences:
    def test_exact_tiling(self):
        table = make_table([[i] for i in range(10)])
        seqs = build_sequences(table, length=5, stride=5)
        assert len(seqs) == 2
        assert [s.start_index for s in seqs] == [0, 5]
        np.testing.assert_array_equal(seqs[1].values[:, 0], [5, 6, 7, 8, 9])

    def test_trailing_partial_window_discarded(self):
        table = make_table([[i] for i in range(11)])
        assert len(build_sequences(table, 5, 5)) == 2

    def test_stride_defaults_to_length(self):
        table = make_table([[i] for i in range(12)])
        assert [s.start_index for s in build_sequences(table, 4)] == [0, 4, 8]

    def test_majority_attack_label(self):
        table = make_table(
            [[0]] * 5, attacks=[True, True, True, False, False],
            categories=["dos", "dos", "dos", None, None],
        )
        (seq,) = build_sequences(table, 5)
        assert seq.label == ATTACK
        assert seq.category == "dos"

    def test_tie_stays_benign(self):
        table = make_table([[0]] * 4, attacks=[True, True, False, False])
        (seq,) = build_sequences(table, 4)
        assert seq.label == BENIGN

    def test_flipping_one_flow_in_tied_window_flips_label(self):
        attacks = [True, True, False, False]
        base = build_sequences(make_table([[0]] * 4, attacks=attacks), 4)[0]
        flipped = build_sequences(
            make_table([[0]] * 4, attacks=[True, True, True, False]), 4
        )[0]
        assert base.label == BENIGN
        assert flipped.label == ATTACK

    def test_window_longer_than_data(self):
        with pytest.raises(SequenceLongerThanData):
            build_sequences(make_table([[0]] * 10), 25)

    def test_dominant_category_ties_break_lexicographically(self):
        table = make_table(
            [[0]] * 4,
            attacks=[True, True, True, False],
            categories=["recon", "dos", "recon", None],
        )
        (seq,) = build_sequences(table, 4)
        assert seq.category == "recon"
        tied = make_table(
            [[0]] * 3,
            attacks=[True, True, False],
            categories=["recon", "dos", None],
        )
        assert build_sequences(tied, 3)[0].category == "dos"

    def test_benign_sequence_has_no_category(self):
        table = make_table([[0]] * 3, attacks=[True, False, False], categories=["dos", None, None])
        (seq,) = build_sequences(table, 3)
        assert seq.label == BENIGN
        assert seq.category is None


    def test_values_are_read_only_views_of_the_table(self):
        table = make_table([[i, -i] for i in range(12)])
        seqs = build_sequences(table, 4, 3)
        for seq in seqs:
            assert np.shares_memory(seq.values, table.features)
            assert not seq.values.flags.writeable
            np.testing.assert_array_equal(
                seq.values, table.features[seq.start_index : seq.start_index + 4]
            )
        with pytest.raises(ValueError):
            seqs[0].values[0, 0] = 1.0

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
        assert [s.start_index for s in seqs] == list(starts)
        for seq, start in zip(seqs, starts):
            window = range(start, start + length)
            n_attack = sum(attacks[i] for i in window)
            assert seq.is_attack == (2 * n_attack > length)
            counts = Counter(categories[i] for i in window if attacks[i] and categories[i] is not None)
            expected = min(counts, key=lambda c: (-counts[c], c)) if counts and seq.is_attack else None
            assert seq.category == expected


class TestMakeTriplets:
    def _seqs(self, count=4, L=6, n=2, seed=0):
        rng = np.random.default_rng(seed)
        return [
            benign_sequence(rng.uniform(0, 1, (L, n)), start_index=i * L)
            for i in range(count)
        ]

    def test_zero_noise_positive_identical(self):
        seqs = self._seqs()
        triplets = make_triplets(seqs, TripletConfig(noise_scale=0.0, seed=1))
        for t in triplets:
            np.testing.assert_array_equal(t.anchor.values, t.positive.values)

    def test_noise_bounded_and_clamped(self):
        seqs = self._seqs(count=6)
        triplets = make_triplets(seqs, TripletConfig(noise_scale=0.01, seed=1))
        for t in triplets:
            delta = np.abs(t.positive.values - t.anchor.values)
            assert delta.max() <= 0.01 + 1e-15
            assert t.positive.values.min() >= 0.0
            assert t.positive.values.max() <= 1.0

    def test_two_sequences_forces_the_other_negative(self):
        seqs = self._seqs(count=2)
        for t in make_triplets(seqs, TripletConfig(seed=5)):
            assert t.negative.start_index != t.anchor.start_index

    def test_triplet_count_equals_anchor_count(self):
        seqs = self._seqs(count=7)
        assert len(make_triplets(seqs, TripletConfig(seed=0))) == 7

    def test_negative_start_differs(self):
        seqs = self._seqs(count=9)
        for t in make_triplets(seqs, TripletConfig(seed=3)):
            assert t.negative.start_index != t.anchor.start_index

    def test_deterministic_per_seed(self):
        seqs = self._seqs(count=5)
        a = make_triplets(seqs, TripletConfig(noise_scale=0.01, seed=11))
        b = make_triplets(seqs, TripletConfig(noise_scale=0.01, seed=11))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.positive.values, y.positive.values)
            assert x.negative.start_index == y.negative.start_index

    def test_needs_two_distinct_starts(self):
        with pytest.raises(NeedAtLeastTwoSequences):
            make_triplets(self._seqs(count=1), TripletConfig(seed=0))
        same_start = [benign_sequence(np.zeros((3, 1)), 0) for _ in range(3)]
        with pytest.raises(NeedAtLeastTwoSequences):
            make_triplets(same_start, TripletConfig(seed=0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_noise_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="noise_scale"):
            TripletConfig(noise_scale=bad)

    def test_rejects_attack_sequences(self):
        seqs = self._seqs(count=3)
        bad = seqs[0].__class__(seqs[0].values, ATTACK, "dos", 99)
        with pytest.raises(ValueError):
            make_triplets(seqs + [bad], TripletConfig(seed=0))

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_zero_noise_distance_property(self, count, seed):
        rng = np.random.default_rng(seed % 1000)
        seqs = [
            benign_sequence(rng.uniform(0, 1, (4, 2)), start_index=i * 4)
            for i in range(count)
        ]
        triplets = make_triplets(seqs, TripletConfig(noise_scale=0.0, seed=seed))
        assert len(triplets) == count
        for t in triplets:
            assert np.linalg.norm(t.anchor.values - t.positive.values) == 0.0

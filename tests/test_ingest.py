import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.errors import (
    EmptyFile,
    InsufficientData,
    MissingColumn,
    NoBenignRecords,
    NonNumericValue,
    ShortRow,
)
from flowsentry.ingest import (
    FlowSchema,
    fit_normalizer,
    load_flows,
    normalize,
    split_benign,
)

from conftest import make_table


def write(tmp_path, text, name="flows.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            FlowSchema(feature_columns=("a", "a"), label_column="label")

    def test_label_in_features_rejected(self):
        with pytest.raises(ValueError):
            FlowSchema(feature_columns=("a", "label"), label_column="label")

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            FlowSchema(feature_columns=(), label_column="label")


class TestLoadFlows:
    def test_three_row_parse(self, tmp_path, two_feature_schema):
        path = write(
            tmp_path,
            "a,b,label,category\n1,2,benign,\n3,4,attack,dos\n5,6,benign,\n",
        )
        table = load_flows(path, two_feature_schema)
        assert len(table) == 3
        assert table.n_benign == 2
        assert table.n_attack == 1
        np.testing.assert_array_equal(table.is_attack, [False, True, False])
        assert table.categories == [None, "dos", None]
        np.testing.assert_array_equal(table.features, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(table.original_indices, [0, 1, 2])

    def test_missing_label_column(self, tmp_path, two_feature_schema):
        path = write(tmp_path, "a,b,category\n1,2,\n")
        with pytest.raises(MissingColumn):
            load_flows(path, two_feature_schema)

    def test_empty_file(self, tmp_path, two_feature_schema):
        with pytest.raises(EmptyFile):
            load_flows(write(tmp_path, ""), two_feature_schema)

    def test_header_only_gives_empty_table(self, tmp_path, two_feature_schema):
        table = load_flows(write(tmp_path, "a,b,label,category\n"), two_feature_schema)
        assert len(table) == 0

    def test_non_numeric_cell(self, tmp_path, two_feature_schema):
        path = write(tmp_path, "a,b,label,category\n1,2,benign,\n1,oops,benign,\n")
        with pytest.raises(NonNumericValue) as err:
            load_flows(path, two_feature_schema)
        assert err.value.row == 1
        assert err.value.column == "b"

    def test_short_row(self, tmp_path, two_feature_schema):
        path = write(tmp_path, "a,b,label,category\n1,2,benign,\n\n1,2,benign\n")
        with pytest.raises(ShortRow) as err:
            load_flows(path, two_feature_schema)
        assert err.value.row == 1
        assert "data row 1 has 3 cells, the header has 4" in str(err.value)

    def test_exact_label_comparison(self, tmp_path):
        schema = FlowSchema(("a",), "label", benign_label_value="Benign")
        table = load_flows(
            write(tmp_path, "a,label\n1,Benign\n2,benign\n"), schema
        )
        # "benign" != "Benign": exact string comparison
        assert table.n_benign == 1
        assert table.n_attack == 1

    def test_custom_delimiter(self, tmp_path):
        schema = FlowSchema(("a", "b"), "label", delimiter=";")
        table = load_flows(write(tmp_path, "a;b;label\n1;2;benign\n"), schema)
        assert len(table) == 1


class TestNormalizer:
    def test_two_point_fit(self):
        stats = fit_normalizer(make_table([[0, 10], [4, 20]]))
        np.testing.assert_array_equal(stats.minimum, [0, 10])
        np.testing.assert_array_equal(stats.maximum, [4, 20])

    def test_single_record_rejected(self):
        with pytest.raises(InsufficientData):
            fit_normalizer(make_table([[1, 2]]))

    def test_constant_column(self):
        stats = fit_normalizer(make_table([[5, 5], [5, 9]]))
        assert stats.minimum[0] == stats.maximum[0] == 5

    def test_normalize_values(self):
        stats = fit_normalizer(make_table([[0], [4]]))
        out = normalize(make_table([[4], [2], [8]]), stats)
        np.testing.assert_allclose(out.features[:, 0], [1.0, 0.5, 1.0])

    def test_constant_features_map_to_zero(self):
        stats = fit_normalizer(make_table([[5, 0], [5, 1]]))
        out = normalize(make_table([[5, 0.5], [7, 0.25]]), stats)
        np.testing.assert_allclose(out.features[:, 0], [0.0, 0.0])
        np.testing.assert_allclose(out.features[:, 1], [0.5, 0.25])

    @given(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=30
        )
    )
    def test_idempotent_on_unit_range(self, values):
        table = make_table([[v] for v in values])
        stats = fit_normalizer(make_table([[0.0], [1.0]]))
        once = normalize(table, stats)
        twice = normalize(once, stats)
        np.testing.assert_array_equal(once.features, twice.features)


class TestSplitBenign:
    def test_spec_sizes(self):
        table = make_table([[i] for i in range(10)])
        train, test = split_benign(table, 0.8, seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_half_split(self):
        table = make_table([[i] for i in range(4)])
        train, test = split_benign(table, 0.5, seed=1)
        assert (len(train), len(test)) == (2, 2)

    def test_deterministic(self):
        table = make_table([[i] for i in range(20)])
        a = split_benign(table, 0.7, seed=9)
        b = split_benign(table, 0.7, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_no_benign_records(self):
        table = make_table([[1], [2]], attacks=[True, True])
        with pytest.raises(NoBenignRecords):
            split_benign(table, 0.5, seed=0)

    def test_partitions_are_shuffled(self):
        table = make_table([[i] for i in range(50)])
        train, _ = split_benign(table, 0.8, seed=3)
        assert list(train.original_indices) != sorted(train.original_indices)

    @given(
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=40)
    def test_partition_multiset(self, n, seed, fraction):
        attacks = [i % 3 == 0 for i in range(n)]
        if all(attacks):
            attacks[0] = False
        table = make_table([[float(i)] for i in range(n)], attacks=attacks)
        train, test = split_benign(table, fraction, seed)
        combined = sorted(
            list(train.original_indices) + list(test.original_indices)
        )
        benign_idx = [i for i in range(n) if not attacks[i]]
        assert combined == benign_idx  # exact multiset, disjoint, no attacks
        assert len(train) == int(np.floor(fraction * len(benign_idx)))

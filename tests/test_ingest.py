import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowsentry import ingest
from flowsentry.errors import (
    EmptyFile,
    InsufficientData,
    MissingColumn,
    NoBenignRecords,
    NonNumericValue,
    ShortRow,
    UndecodableText,
)
from flowsentry.ingest import (
    FlowSchema,
    fit_normalizer,
    load_flows,
    normalize,
    split_benign,
)
from flowsentry.synthetic import SyntheticSpec, generate_flows, synthetic_schema, write_flows_csv

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


class TestUndecodable:
    @pytest.mark.parametrize("crlf", [False, True])
    def test_names_file_and_data_row(self, tmp_path, two_feature_schema, crlf):
        text = b"a,b,label,category\n1,2,benign,\n\n3,4,attack,d\xffs\n5,6,benign,\n"
        path = tmp_path / "flows.csv"
        path.write_bytes(text.replace(b"\n", b"\r\n") if crlf else text)
        with path.open() as fh:
            message = f"{path}: data row 1 is not valid {fh.encoding} text"
        for load in (load_flows, ingest._load_csv):
            with pytest.raises(UndecodableText) as err:
                load(path, two_feature_schema)
            assert err.value.row == 1
            assert str(err.value) == message

    def test_in_header(self, tmp_path, two_feature_schema):
        path = tmp_path / "flows.csv"
        path.write_bytes(b"a,b,label,cat\xe9gory\n1,2,benign,\n")
        with pytest.raises(UndecodableText, match="the header row is not valid"):
            load_flows(path, two_feature_schema)
        with pytest.raises(UndecodableText, match="the header row is not valid"):
            ingest.read_header(path, ",")

    def test_first_bad_row_wins(self, tmp_path, two_feature_schema):
        path = tmp_path / "flows.csv"
        path.write_bytes(b"a,b,label,category\n1,x,benign,\n3,4,\xff,\n")
        with pytest.raises(NonNumericValue):
            load_flows(path, two_feature_schema)


def _same_result(path, schema):
    """load_flows and the csv path give the same table, or the same error."""
    def run(load):
        try:
            return load(path, schema)
        except Exception as exc:  # compared by type and message below
            return exc

    fast, slow = run(load_flows), run(ingest._load_csv)
    if isinstance(slow, Exception):
        assert type(fast) is type(slow) and str(fast) == str(slow)
        return
    assert fast.features.dtype == slow.features.dtype == np.float64
    assert fast.features.shape == slow.features.shape
    assert fast.features.tobytes() == slow.features.tobytes()
    np.testing.assert_array_equal(fast.is_attack, slow.is_attack)
    assert fast.is_attack.dtype == slow.is_attack.dtype
    assert fast.categories == slow.categories
    np.testing.assert_array_equal(fast.original_indices, slow.original_indices)


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1.5", "2.5 ", "\t3", "1_0", "+.5", "5.", "1e-400"]),
)
_ODD_CELLS = st.sampled_from([
    "1__0", "_1", "\u0661\u0662", "\u00a01", "\x1c2", "nan", "inf", "-inf", "Infinity",
    "1e400", "x", "", "0x10", "1.0\x00", '"1.5"', '4"',
])
_LABELS = st.sampled_from(["benign", "attack", "Benign", "benign ", "", "b\u00e9nign"])
_ODD_LABELS = st.sampled_from(['"benign"', "benign\x00"])
_CATEGORIES = st.sampled_from(["", "dos", "recon", "r\u00e9seau", " "])
_ODD_CATEGORIES = st.sampled_from(["dos\x00", '"dos"', "d\ros", "d\r\nos"])


@st.composite
def _flow_csv(draw):
    """Bytes of a small flow CSV for the schema (a, b, label, category).

    Half the cases are plain, so the fast path reads them; each other case
    carries one irregularity that the fast path must hand to the csv path.
    """
    header = ["a", "b", "label", "category"]
    if draw(st.booleans()):
        header.append("extra")
    header = draw(st.permutations(header))
    plain = {"label": _LABELS, "category": _CATEGORIES, "extra": _CATEGORIES}
    odd = {"label": _ODD_LABELS, "category": _ODD_CATEGORIES, "extra": _ODD_CATEGORIES}
    rows = [
        [draw(plain.get(name, _NUMBERS)) for name in header] if draw(st.integers(0, 9)) else []
        for _ in range(draw(st.integers(0, 12)))
    ]
    sep = draw(st.sampled_from([",", ";"]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from(["", ending]))
    prefix = ""
    kind = draw(st.sampled_from(
        ["plain"] * 4 + ["cell"] * 3 + ["short", "long", "header", "cr", "prefix", "bytes"]
    ))
    full = [row for row in rows if row]
    if kind == "cell" and full:
        row = draw(st.sampled_from(full))
        j = draw(st.integers(0, len(header) - 1))
        row[j] = draw(odd.get(header[j], _ODD_CELLS))
    elif kind in ("short", "long") and full:
        row = draw(st.sampled_from(full))
        row[:] = row[:-1] if kind == "short" else row + ["1"]
    elif kind == "header":
        header = header[:-1]
    elif kind == "cr":
        ending = "\r"
    elif kind == "prefix":
        prefix = draw(st.sampled_from(["\n", "\r\n", " "]))
    text = prefix + ending.join(sep.join(line) for line in [header, *rows]) + final
    data = bytearray(text.encode("utf-8"))
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xb2\x80", b"\r", b"\0"]))
    if draw(st.integers(0, 19)) == 0:
        data = bytearray()
    return bytes(data), sep


class TestColumnarParse:
    @given(case=_flow_csv(), block=st.sampled_from([None, 16, 64, 128]), with_category=st.booleans())
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_csv_path(self, tmp_path, monkeypatch, case, block, with_category):
        data, sep = case
        path = tmp_path / "flows.csv"
        path.write_bytes(data)
        schema = FlowSchema(("a", "b"), "label", "category" if with_category else None, delimiter=sep)
        with monkeypatch.context() as m:
            if block is not None:
                m.setattr(ingest, "_BLOCK_BYTES", block)
            _same_result(path, schema)

    @pytest.mark.parametrize("block", [None, 256, 1000])
    @pytest.mark.parametrize("edit", [None, "crlf", "blank lines"])
    def test_plain_corpus_takes_the_fast_path(self, tmp_path, monkeypatch, block, edit):
        """A corpus shaped like the benchmark's never reaches the csv path."""
        spec = SyntheticSpec(n_flows=3000, n_features=8, attack_fraction=0.3,
                             burst_flows=500, burst_alignment=25, seed=3)
        path = tmp_path / "flows.csv"
        write_flows_csv(path, generate_flows(spec))
        if edit == "crlf":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        elif edit == "blank lines":
            path.write_bytes(path.read_bytes().replace(b"benign,\n", b"benign,\n\n", 40))
        schema = synthetic_schema(8)
        expected = ingest._load_csv(path, schema)

        def no_fallback(*_):
            raise AssertionError("load_flows fell back to the csv path")

        monkeypatch.setattr(ingest, "_load_csv", no_fallback)
        if block is not None:
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        table = load_flows(path, schema)
        assert table.features.tobytes() == expected.features.tobytes()
        np.testing.assert_array_equal(table.is_attack, expected.is_attack)
        assert table.categories == expected.categories
        assert table.n_attack > 0 and None in table.categories and "dos" in table.categories

    @pytest.mark.parametrize("text", [
        'a,b,label,category\n1,2,benign,\n3,"4",attack,dos\n',
        "a,b,label,category\n1,2,benign,\n3,4,attack\n",
        "a,b,label,category\n1,2,benign,,\n",
        "a,b,label,category\n1,nan,benign,\n",
        "a,b,label,category\n1,\u0661,benign,\n",
        "a,b,label,category\r1,2,benign,\r",
        "\na,b,label,category\n1,2,benign,\n",
    ])
    def test_irregular_files_fall_back(self, tmp_path, two_feature_schema, text):
        path = tmp_path / "flows.csv"
        path.write_bytes(text.encode())
        assert ingest._load_columnar(path, two_feature_schema) is None
        _same_result(path, two_feature_schema)


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

import numpy as np
import pytest

from flowsentry.ingest import FlowSchema, FlowTable
from flowsentry.sequencing import Windows


@pytest.fixture
def two_feature_schema() -> FlowSchema:
    return FlowSchema(
        feature_columns=("a", "b"),
        label_column="label",
        attack_category_column="category",
    )


def make_table(
    features, attacks=None, categories=None, start_index: int = 0
) -> FlowTable:
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if attacks is None:
        attacks = [False] * n
    if categories is None:
        categories = [None] * n
    return FlowTable(features, attacks, categories, np.arange(start_index, start_index + n))


def benign_windows(values, starts) -> Windows:
    """Benign, uncategorised windows: row i holds ``values[i]`` and starts at
    flow ``starts[i]``."""
    return Windows(
        np.asarray(values, dtype=np.float64),
        np.asarray(starts, dtype=np.int64),
        np.zeros(len(starts), dtype=bool),
        np.full(len(starts), None, dtype=object),
    )

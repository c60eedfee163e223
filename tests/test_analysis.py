import numpy as np
import pytest

from missmix.analysis import (item_marginals, item_value_counts,
                              paired_difference_histogram, skl, skl_report,
                              smoothed_distribution)
from missmix.data import RatingDataset
from missmix.errors import DataValidationError, EvaluationError

LOG2_3 = np.log2(3.0)


def test_smoothed_distribution():
    np.testing.assert_allclose(smoothed_distribution([2, 0]), [0.75, 0.25])
    np.testing.assert_allclose(smoothed_distribution([0, 0, 0]), 1 / 3)


def test_skl_hand_value():
    p = smoothed_distribution([2, 0])
    q = smoothed_distribution([0, 2])
    # 0.5*log2(3) in each direction
    assert skl(p, q) == pytest.approx(LOG2_3, abs=1e-12)
    assert skl(q, p) == pytest.approx(LOG2_3, abs=1e-12)


def test_skl_properties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.dirichlet(np.ones(5)) + 1e-6
        q = rng.dirichlet(np.ones(5)) + 1e-6
        p, q = p / p.sum(), q / q.sum()
        assert skl(p, p) == pytest.approx(0.0, abs=1e-12)
        assert skl(p, q) >= 0
        assert skl(p, q) == pytest.approx(skl(q, p), abs=1e-12)


def test_skl_validation():
    with pytest.raises(EvaluationError):
        skl([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(EvaluationError):
        skl([0.5, 0.5], [0.2, 0.3, 0.5])


def test_value_histogram_and_item_counts():
    ds = RatingDataset.from_arrays(2, 2, 3, [0, 0, 1], [0, 1, 0], [1, 3, 1])
    assert ds.value_counts().tolist() == [2, 0, 1]
    counts = item_value_counts(ds)
    assert counts.tolist() == [[2, 0, 0], [0, 0, 1]]


def test_item_marginals_smoothing():
    ds = RatingDataset.from_arrays(1, 2, 2, [0], [0], [1])
    marg = item_marginals(ds)
    np.testing.assert_allclose(marg[0], [2 / 3, 1 / 3])
    np.testing.assert_allclose(marg[1], [0.5, 0.5])


def test_skl_report_hand_case():
    # item 0: counts (2,0) vs (0,2) -> log2(3); item 1 unobserved both
    a = RatingDataset.from_arrays(2, 2, 2, [0, 1], [0, 0], [1, 1])
    b = RatingDataset.from_arrays(2, 2, 2, [0, 1], [0, 0], [2, 2])
    rep = skl_report(a, b)
    assert rep.per_item[0] == pytest.approx(LOG2_3, abs=1e-12)
    assert rep.per_item[1] == pytest.approx(0.0, abs=1e-12)
    assert rep.median == pytest.approx(LOG2_3 / 2, abs=1e-12)
    assert rep.mean == pytest.approx(LOG2_3 / 2, abs=1e-12)


def test_skl_report_identical_datasets():
    rng = np.random.default_rng(2)
    users = rng.integers(0, 10, size=40)
    items = rng.integers(0, 5, size=40)
    values = rng.integers(1, 4, size=40)
    keep = np.unique(users * 5 + items, return_index=True)[1]
    ds = RatingDataset.from_arrays(10, 5, 3, users[keep], items[keep],
                                   values[keep])
    rep = skl_report(ds, ds)
    np.testing.assert_allclose(rep.per_item, 0.0, atol=1e-12)


def test_skl_report_dimension_mismatch():
    a = RatingDataset.from_arrays(1, 2, 2, [0], [0], [1])
    b = RatingDataset.from_arrays(1, 3, 2, [0], [0], [1])
    with pytest.raises(EvaluationError):
        skl_report(a, b)


def test_paired_difference_histogram():
    a = RatingDataset.from_arrays(2, 2, 5, [0, 0, 1], [0, 1, 0], [1, 3, 5])
    b = RatingDataset.from_arrays(2, 2, 5, [0, 1, 1], [0, 0, 1], [5, 1, 2])
    offsets, counts = paired_difference_histogram(a, b)
    assert offsets.tolist() == list(range(-4, 5))
    # shared pairs: (0,0): 1-5=-4 and (1,0): 5-1=4
    assert counts[offsets == -4][0] == 1
    assert counts[offsets == 4][0] == 1
    assert counts.sum() == 2


def test_paired_difference_no_common_pairs():
    a = RatingDataset.from_arrays(1, 2, 3, [0], [0], [1])
    b = RatingDataset.from_arrays(1, 2, 3, [0], [1], [2])
    _, counts = paired_difference_histogram(a, b)
    assert counts.sum() == 0


def test_item_value_counts_rejects_out_of_range_values():
    # such a dataset cannot be built, so item_value_counts never sees one
    with pytest.raises(DataValidationError, match="rating 0 out of range"):
        RatingDataset.from_arrays(2, 1, 2, [0, 1], [0, 0], [1, 0])

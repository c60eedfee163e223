import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from missmix.cptv import CptvParams, e_step_nmar
from missmix.data import BLOCK_CELLS, RatingDataset
from missmix.errors import EvaluationError
from missmix.mixture import FitConfig, MixtureParams, e_step_mar, init_params
from missmix.predict import (empirical_median_value, mae, posterior_z, predict_median,
                             predicted_medians, predictive_distribution)
from missmix.synthetic import apply_cptv_missingness, sample_ground_truth


def test_predict_median_hand_cases():
    assert predict_median(np.array([[0.5, 0.5]]))[0] == 1
    assert predict_median(np.array([[0.49, 0.51]]))[0] == 2
    assert predict_median(np.array([[0.2, 0.3, 0.5]]))[0] == 2
    assert predict_median(np.array([[0.2, 0.2, 0.6]]))[0] == 3
    assert predict_median(np.array([0.1, 0.9]))[0] == 2


_MEDIAN_ENTRIES = st.sampled_from(
    [0.0, -0.0, 0.125, 0.25, 0.5, 1.0, -0.25, -0.5, np.nan, np.inf, -np.inf]) | st.floats(-1.0, 1.5)


@given(st.integers(1, 8).flatmap(lambda v: hnp.arrays(
    np.float64, st.tuples(st.integers(0, 12), st.just(v)), elements=_MEDIAN_ENTRIES)))
@example(np.zeros((2, 4)))                                      # never reaches one half
@example(np.array([[0.5, 0.0, 0.0], [0.25, 0.25, 0.5], [0.125, 0.125, 0.25]]))  # exact ties
@example(np.array([[0.6, -0.3, 0.4], [0.1, 0.5, -0.4], [-0.5, 0.5, 0.75]]))    # not monotone
@example(np.array([[np.nan, 0.9, 0.1], [0.1, np.nan, 0.9], [0.1, 0.2, np.nan]]))
@example(np.array([[np.inf, -np.inf, 1.0], [-np.inf, 0.2, 0.8], [0.1, 0.2, np.inf]]))
@example(np.array([[-100, -100, 1], [100, 100, -100]], dtype=np.int8))  # cumsum widens
def test_predict_median_is_the_first_column_whose_running_sum_reaches_one_half(dist):
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.argmax(np.cumsum(dist, axis=1) >= 0.5, axis=1) + 1
        got = predict_median(dist)
    assert got.dtype == np.int64 and got.tobytes() == want.astype(np.int64).tobytes()


def test_predictive_distribution_mixes_components():
    beta = np.zeros((2, 1, 2))
    beta[:, 0, 0] = [1.0, 0.0]
    beta[:, 0, 1] = [0.0, 1.0]
    params = MixtureParams(theta=np.array([0.5, 0.5]), beta=beta)
    q = np.array([[0.25, 0.75]])
    dist = predictive_distribution(params, q, [0], [0])
    np.testing.assert_allclose(dist, [[0.25, 0.75]], atol=1e-15)


def test_predictive_distribution_in_blocks_equals_one_einsum():
    params = init_params(9, 5, FitConfig(n_components=4, seed=3))
    rng = np.random.default_rng(1)
    q = rng.dirichlet(np.ones(4), size=40)
    n = 2 * (BLOCK_CELLS // (5 * 4)) + 77  # two whole blocks of pairs at V = 5, K = 4
    users, items = rng.integers(0, 40, n), rng.integers(0, 9, n)
    whole = np.einsum("vnk,nk->nv", params.beta[:, items, :], q[users])
    assert predictive_distribution(params, q, users, items).tobytes() == whole.tobytes()


def test_medians_taken_block_by_block_equal_the_medians_of_one_table():
    params = init_params(9, 5, FitConfig(n_components=4, seed=3))
    rng = np.random.default_rng(2)
    q = rng.dirichlet(np.ones(4), size=40)
    n = 2 * (BLOCK_CELLS // (5 * 4)) + 77  # two whole blocks of pairs at V = 5, K = 4
    users, items = rng.integers(0, 40, n).astype(np.int32), rng.integers(0, 9, n)
    whole = predict_median(predictive_distribution(params, q, users, items))
    got = predicted_medians(params, q, users, items)
    assert got.dtype == whole.dtype and got.tobytes() == whole.tobytes()
    assert predicted_medians(params, q, [], []).tolist() == []


@pytest.mark.parametrize("n_values", [2, 5, 7])
def test_predictive_distribution_has_the_bits_of_the_value_major_gather(n_values):
    # item rows gathered from a (M, V, K) copy of beta give the bits of the
    # (V, pairs, K) gather from beta itself, at every K
    rng = np.random.default_rng(n_values)
    for k in range(1, 34):
        params = init_params(11, n_values, FitConfig(n_components=k, seed=k))
        q = rng.dirichlet(np.ones(k), size=30)
        users, items = rng.integers(0, 30, 500), rng.integers(0, 11, 500)
        old = np.einsum("vnk,nk->nv", params.beta[:, items, :], q[users])
        assert predictive_distribution(params, q, users, items).tobytes() == old.tobytes()


def test_predictive_distribution_rows_sum_to_one():
    params = init_params(6, 4, FitConfig(n_components=3, seed=2))
    rng = np.random.default_rng(0)
    q = rng.dirichlet(np.ones(3), size=5)
    users = rng.integers(0, 5, size=12)
    items = rng.integers(0, 6, size=12)
    dist = predictive_distribution(params, q, users, items)
    np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-12)


def test_mae():
    assert mae([2, 3], [1, 3]) == pytest.approx(0.5)
    with pytest.raises(EvaluationError):
        mae([], [])
    with pytest.raises(EvaluationError):
        mae([1, 2], [1])


def test_posterior_z_dispatch():
    truth = sample_ground_truth(40, 8, 3, 2, np.array([0.3, 0.5, 0.9]), seed=1)
    ds = apply_cptv_missingness(truth, seed=2)
    q_blind = posterior_z(truth.params, ds)
    np.testing.assert_array_equal(q_blind, e_step_mar(truth.params, ds))
    cptv = CptvParams(mu=truth.mu)
    q_aware = posterior_z(truth.params, ds, cptv=cptv)
    np.testing.assert_array_equal(q_aware, e_step_nmar(truth.params, cptv, ds))
    # the response pattern carries information, so they should differ
    assert not np.allclose(q_blind, q_aware)
    # a model may cover items the conditioning data never mentions
    keep = ds.items < 5
    narrow = RatingDataset.from_arrays(40, 5, 3, ds.users[keep],
                                       ds.items[keep], ds.values[keep])
    wide = RatingDataset.from_arrays(40, 8, 3, narrow.users, narrow.items,
                                     narrow.values)
    for c in (None, cptv):
        np.testing.assert_array_equal(posterior_z(truth.params, narrow, cptv=c),
                                      posterior_z(truth.params, wide, cptv=c))


def test_empirical_median_value():
    ds = RatingDataset.from_arrays(1, 4, 3, [0, 0, 0, 0], [0, 1, 2, 3],
                                   [1, 2, 3, 3])
    assert empirical_median_value(ds) == 2
    empty = RatingDataset.from_arrays(1, 1, 3, [], [], [])
    with pytest.raises(EvaluationError):
        empirical_median_value(empty)

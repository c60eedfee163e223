import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from missmix.errors import ConfigurationError, GenerationError
from missmix.synthetic import (_keep_mask, _probe_mask, apply_cptv_missingness,
                               build_study_dataset, sample_ground_truth,
                               sample_mcar_test)
from oracles import (ORACLE_ASSIGNMENT_LIMIT, OracleLimitError,
                     brute_force_user_evidence, user_rows, whole_table_ground_truth,
                     whole_table_keep_mask, whole_table_probe_mask, whole_table_study)


def test_ground_truth_shapes_and_ranges():
    truth = sample_ground_truth(30, 7, 4, 3, np.full(4, 0.5), seed=0)
    assert truth.complete.shape == (30, 7)
    assert truth.complete.min() >= 1 and truth.complete.max() <= 4
    assert truth.z.shape == (30,)
    assert set(np.unique(truth.z)) <= set(range(3))
    assert truth.params.theta.shape == (3,)
    assert truth.params.beta.shape == (4, 7, 3)
    assert truth.params.alpha is None


def test_ground_truth_deterministic():
    a = sample_ground_truth(20, 5, 3, 2, np.full(3, 0.7), seed=9)
    b = sample_ground_truth(20, 5, 3, 2, np.full(3, 0.7), seed=9)
    assert np.array_equal(a.complete, b.complete)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.params.beta, b.params.beta)


def test_ground_truth_validation():
    with pytest.raises(ConfigurationError):
        sample_ground_truth(0, 5, 3, 2, np.full(3, 0.5), seed=0)
    with pytest.raises(ConfigurationError):
        sample_ground_truth(5, 5, 3, 2, np.full(4, 0.5), seed=0)
    for mu in ([0.5, 0.5, 1.5], [0.5, 0.5, np.nan]):
        with pytest.raises(ConfigurationError):
            sample_ground_truth(5, 5, 3, 2, np.array(mu), seed=0)
    for concentration in (0, np.nan, np.inf, 1e308):
        with pytest.raises(ConfigurationError):
            sample_ground_truth(5, 5, 3, 2, np.full(3, 0.5), seed=0,
                                concentration=concentration)


def test_ratings_follow_component_distributions():
    # K=1 so every user shares one rating distribution per item
    truth = sample_ground_truth(4000, 3, 3, 1, np.ones(3), seed=4,
                                concentration=2.0)
    for m in range(3):
        freq = np.bincount(truth.complete[:, m], minlength=4)[1:] / 4000
        np.testing.assert_allclose(freq, truth.params.beta[:, m, 0], atol=0.03)


def test_missingness_rate_tracks_value():
    mu = np.array([0.2, 0.8])
    truth = sample_ground_truth(300, 40, 2, 2, mu, seed=1)
    ds = apply_cptv_missingness(truth, seed=2)
    observed = np.zeros(truth.complete.shape, dtype=bool)
    observed[ds.users, ds.items] = True
    for v, expect in ((1, 0.2), (2, 0.8)):
        cells = truth.complete == v
        rate = observed[cells].mean()
        assert rate == pytest.approx(expect, abs=0.02)
    # observed values match the underlying table
    assert (truth.complete[ds.users, ds.items] == ds.values).all()


def test_value_five_observation_rate_matches_preset():
    from missmix.cptv import YAHOO_MU
    truth = sample_ground_truth(2000, 100, 5, 5, YAHOO_MU, seed=3)
    ds = apply_cptv_missingness(truth, seed=5)
    observed = np.zeros(truth.complete.shape, dtype=bool)
    observed[ds.users, ds.items] = True
    rate = observed[truth.complete == 5].mean()
    assert rate == pytest.approx(0.225, abs=0.01)


def test_missingness_boundary_probabilities():
    truth = sample_ground_truth(50, 10, 2, 1, np.array([0.0, 1.0]), seed=6)
    ds = apply_cptv_missingness(truth, seed=7)
    assert (ds.values == 2).all()
    assert ds.n_obs == int((truth.complete == 2).sum())


def test_mcar_probe_is_value_blind():
    truth = sample_ground_truth(500, 30, 3, 2, np.array([0.1, 0.5, 0.9]), seed=8)
    probe = sample_mcar_test(truth, 6, seed=9)
    assert probe.n_obs == 500 * 6
    rows = user_rows(probe)
    assert [len(items) for items, _ in rows] == [6] * 500
    # no duplicate items inside a row and values copied from the table
    for i in (0, 250, 499):
        items, values = rows[i]
        assert len(set(items.tolist())) == 6
        assert (truth.complete[i, items] == values).all()
    # item selection is uniform: chi-squared on item counts
    counts = np.bincount(probe.items, minlength=30)
    p = stats.chisquare(counts).pvalue
    assert p > 0.001
    with pytest.raises(ConfigurationError):
        sample_mcar_test(truth, 31, seed=0)


@given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
@example(4, 7, 7, 0)
def test_probe_mask_is_the_argsort_mask_on_distinct_keys(n_users, n_items, per_user, seed):
    # the probe takes each row's smallest keys by partition, not by sort;
    # without ties both pick the same cells, up to the whole row
    per_user = min(per_user, n_items)
    keys = np.random.default_rng(seed).random((n_users, n_items))
    assume(all(len(np.unique(row)) == n_items for row in keys))
    expected = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(expected, np.argsort(keys, axis=1)[:, :per_user], True, axis=1)
    truth = SimpleNamespace(complete=np.ones(keys.shape, dtype=np.int64))
    assert np.array_equal(_probe_mask(truth, per_user, seed), expected)


def test_build_study_dataset_postconditions():
    truth = sample_ground_truth(400, 30, 5, 3, np.array(
        [0.056, 0.044, 0.108, 0.252, 0.9]), seed=10)
    split, kept = build_study_dataset(truth, seed=11, per_user_test=5,
                                      min_train=8)
    assert not np.isin(split.train.pair_keys(), split.test.pair_keys()).any()
    assert all(len(items) >= 8 for items, _ in user_rows(split.train))
    assert [len(items) for items, _ in user_rows(split.test)] == [5] * split.test.n_users
    assert split.train.n_users == len(kept)
    # values trace back to the complete table through the kept mapping
    orig = kept[split.test.users]
    assert (truth.complete[orig, split.test.items] == split.test.values).all()
    orig = kept[split.train.users]
    assert (truth.complete[orig, split.train.items] == split.train.values).all()


def test_build_study_dataset_deterministic():
    truth = sample_ground_truth(200, 20, 3, 2, np.array([0.3, 0.5, 0.9]), seed=12)
    s1, k1 = build_study_dataset(truth, seed=13, per_user_test=4, min_train=3)
    s2, k2 = build_study_dataset(truth, seed=13, per_user_test=4, min_train=3)
    assert np.array_equal(k1, k2)
    assert np.array_equal(s1.train.values, s2.train.values)
    assert np.array_equal(s1.test.values, s2.test.values)


def test_build_study_dataset_can_drop_everyone():
    truth = sample_ground_truth(20, 5, 2, 1, np.array([0.01, 0.01]), seed=14)
    with pytest.raises(GenerationError):
        build_study_dataset(truth, seed=15, per_user_test=2, min_train=5)


def _triples(ds):
    return list(zip(ds.users.tolist(), ds.items.tolist(), ds.values.tolist()))


@pytest.mark.parametrize("min_train", [0, 9])
def test_build_study_dataset_is_the_missingness_minus_the_probe(min_train):
    # under the seeds it spawns, train is the value-dependent draw less the
    # probe, and users short of min_train leave both sides, which re-index
    truth = sample_ground_truth(300, 20, 5, 3, np.array(
        [0.3, 0.2, 0.4, 0.6, 0.9]), seed=17)
    split, kept = build_study_dataset(truth, seed=18, per_user_test=4,
                                      min_train=min_train)
    seed_missing, seed_test = np.random.SeedSequence(18).spawn(2)
    probe = _triples(sample_mcar_test(truth, 4, seed_test))
    probed = {(u, m) for u, m, _ in probe}
    train = [t for t in _triples(apply_cptv_missingness(truth, seed_missing))
             if t[:2] not in probed]
    counts = np.bincount([u for u, _, _ in train], minlength=300)
    expected = [u for u in range(300) if counts[u] >= min_train]
    assert kept.tolist() == expected
    assert len(expected) == 300 if min_train == 0 else 0 < len(expected) < 300
    new = {u: i for i, u in enumerate(expected)}
    assert split.train.n_users == split.test.n_users == len(expected)
    assert _triples(split.train) == [(new[u], m, x) for u, m, x in train if u in new]
    assert _triples(split.test) == [(new[u], m, x) for u, m, x in probe if u in new]


def test_build_study_dataset_checks_min_train_first():
    truth = sample_ground_truth(20, 5, 2, 1, np.array([0.5, 0.5]), seed=19)
    # before the probe is drawn, so before its own size check
    with pytest.raises(ConfigurationError, match=r"^min_train must be >= 0, got -1$"):
        build_study_dataset(truth, seed=20, per_user_test=0, min_train=-1)


@st.composite
def _block_edge_studies(draw):
    """A small population whose table ends just before, at or just after a
    row block of 2**16 cells, with mu touching 0 and 1, and split sizes."""
    n_items = draw(st.sampled_from([1, 2**16 - 1, 2**16, 2**16 + 1]))
    rows = max(1, 2**16 // n_items)  # rows per block
    n_users = draw(st.sampled_from(sorted({1, max(1, rows - 1), rows, rows + 1, 2 * rows + 1})))
    n_values, n_components = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    mu = np.array(draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]),
                                min_size=n_values, max_size=n_values)))
    return (n_users, n_items, n_values, n_components, mu, draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(1, min(n_items, 3))), draw(st.integers(0, 3)))


@settings(max_examples=20)
@given(_block_edge_studies())
@example((2**16 + 1, 1, 5, 3, np.array([0.0, 0.3, 0.7, 1.0, 0.3]), 0, 1, 1))
def test_row_blocked_draws_equal_the_whole_table_draws(study):
    # every N x M draw comes from its generator one row block at a time,
    # which must give the bits of the one whole-table draw
    n_users, n_items, n_values, n_components, mu, seed, per_user, min_train = study
    truth = sample_ground_truth(n_users, n_items, n_values, n_components, mu, seed)
    theta, beta, z, complete = whole_table_ground_truth(n_users, n_items, n_values,
                                                        n_components, seed)
    for got, expected in ((truth.params.theta, theta), (truth.params.beta, beta),
                          (truth.z, z), (truth.complete, complete)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert np.array_equal(_keep_mask(truth, seed + 1),
                          whole_table_keep_mask(complete, mu, seed + 1))
    assert np.array_equal(_probe_mask(truth, per_user, seed + 2),
                          whole_table_probe_mask(complete.shape, per_user, seed + 2))
    train, test, kept = whole_table_study(complete, mu, seed + 3, per_user, min_train)
    if len(kept) == 0:
        with pytest.raises(GenerationError):
            build_study_dataset(truth, seed + 3, per_user, min_train)
        return
    split, got_kept = build_study_dataset(truth, seed + 3, per_user, min_train)
    assert got_kept.tolist() == kept.tolist()
    assert _triples(split.train) == list(zip(*(a.tolist() for a in train)))
    assert _triples(split.test) == list(zip(*(a.tolist() for a in test)))


def test_no_draw_holds_a_whole_float64_table():
    n_users, n_items = 500, 2000
    table_bytes = n_users * n_items * 8
    tracemalloc.start()
    try:
        truth = sample_ground_truth(n_users, n_items, 5, 3, np.full(5, 0.5), seed=0)
        truth_peak = tracemalloc.get_traced_memory()[1]
        for draw in (lambda: _keep_mask(truth, 1), lambda: _probe_mask(truth, 10, 2)):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            draw()
            assert tracemalloc.get_traced_memory()[1] - held < table_bytes
    finally:
        tracemalloc.stop()
    assert truth_peak < table_bytes


def test_oracle_limit_guard():
    truth = sample_ground_truth(1, 30, 3, 1, np.full(3, 0.5), seed=16)
    assert 3 ** 30 > ORACLE_ASSIGNMENT_LIMIT
    with pytest.raises(OracleLimitError):
        brute_force_user_evidence(truth.params, truth.mu, np.array([0]),
                                  np.array([1]))


def test_oracle_fully_observed_is_plain_product():
    truth = sample_ground_truth(1, 4, 3, 2, np.full(3, 0.6), seed=17)
    items = np.arange(4)
    values = truth.complete[0]
    got = brute_force_user_evidence(truth.params, truth.mu, items, values)
    expect = 0.0
    for z in range(2):
        probs = truth.params.beta[values - 1, items, z] * 0.6
        expect += truth.params.theta[z] * np.prod(probs)
    assert got == pytest.approx(expect, rel=1e-12)

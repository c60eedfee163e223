import numpy as np
import pytest
from scipy import stats

from missmix.errors import ConfigurationError, GenerationError
from missmix.synthetic import (apply_cptv_missingness, build_study_dataset,
                               sample_ground_truth, sample_mcar_test)
from oracles import (ORACLE_ASSIGNMENT_LIMIT, OracleLimitError,
                     brute_force_user_evidence)


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
    assert probe.row_counts().tolist() == [6] * 500
    # no duplicate items inside a row and values copied from the table
    for i in (0, 250, 499):
        items, values = probe.row(i)
        assert len(set(items.tolist())) == 6
        assert (truth.complete[i, items] == values).all()
    # item selection is uniform: chi-squared on item counts
    counts = np.bincount(probe.items, minlength=30)
    p = stats.chisquare(counts).pvalue
    assert p > 0.001
    with pytest.raises(ConfigurationError):
        sample_mcar_test(truth, 31, seed=0)


def test_build_study_dataset_postconditions():
    truth = sample_ground_truth(400, 30, 5, 3, np.array(
        [0.056, 0.044, 0.108, 0.252, 0.9]), seed=10)
    split, kept = build_study_dataset(truth, seed=11, per_user_test=5,
                                      min_train=8)
    assert not np.isin(split.train.pair_keys(), split.test.pair_keys()).any()
    assert (split.train.row_counts() >= 8).all()
    assert split.test.row_counts().tolist() == [5] * split.test.n_users
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

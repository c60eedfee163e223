import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
from scipy.sparse import csr_array
from scipy.special import gammaln, logsumexp

from missmix import data
from missmix.cptv import (YAHOO_MU, CptvParams, e_step_nmar, fit_nmar,
                          log_posterior_nmar)
from missmix.data import RatingDataset
from missmix.errors import ConfigurationError, DataValidationError, EstimationError
from missmix.mixture import (FitConfig, MixtureParams, _e_step, _log_weights,
                             _logsumexp, _m_step, _objective, e_step_mar, fit_mar,
                             init_params, log_posterior_mar, m_step_mar)
from missmix.predict import posterior_z
from oracles import log_posterior


def _random_dataset(rng, N, M, V, density=0.5):
    mask = rng.random((N, M)) < density
    users, items = np.nonzero(mask)
    values = rng.integers(1, V + 1, size=len(users))
    return RatingDataset.from_arrays(N, M, V, users, items, values)


def _params_for(theta, beta, alpha_val=2.0, phi_val=2.0):
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return MixtureParams(theta=theta, beta=beta,
                         alpha=alpha_val, phi=phi_val)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        FitConfig(n_components=0)
    with pytest.raises(ConfigurationError):
        FitConfig(n_components=2, alpha=1.0)
    with pytest.raises(ConfigurationError):
        FitConfig(n_components=2, phi=0.5)
    with pytest.raises(ConfigurationError):
        FitConfig(n_components=2, max_iters=0)
    for bad in (dict(alpha=np.nan), dict(phi=np.nan), dict(alpha=np.inf),
                dict(rel_tol=np.nan), dict(rel_tol=-1.0), dict(rel_tol=np.inf),
                dict(seed=-1)):
        with pytest.raises(ConfigurationError):
            FitConfig(n_components=2, **bad)


def test_init_params_shapes_and_simplexes():
    cfg = FitConfig(n_components=3, seed=5)
    params = init_params(7, 4, cfg)
    assert params.theta.shape == (3,)
    assert params.beta.shape == (4, 7, 3)
    assert params.theta.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(params.beta.sum(axis=0), 1.0, atol=1e-12)
    # same seed, same start
    again = init_params(7, 4, cfg)
    assert np.array_equal(params.theta, again.theta)
    assert np.array_equal(params.beta, again.beta)
    with pytest.raises(ConfigurationError, match="need n_items >= 1"):
        init_params(0, 4, cfg)


def test_map_updates_and_objective_need_smoothing():
    # ground-truth parameters carry no smoothing to add
    truth = MixtureParams(theta=np.ones(1), beta=np.full((2, 1, 1), 0.5))
    data = RatingDataset.from_arrays(1, 1, 2, [0], [0], [1])
    with pytest.raises(ConfigurationError, match="updates need smoothing"):
        m_step_mar(truth, data, np.ones((1, 1)))
    with pytest.raises(ConfigurationError, match="log posterior needs smoothing"):
        log_posterior_mar(truth, data)


def test_e_step_two_component_hand_case():
    # one user rates one item; weights 0.5*0.9 and 0.5*0.1
    beta = np.zeros((2, 1, 2))
    beta[:, 0, 0] = [0.9, 0.1]
    beta[:, 0, 1] = [0.1, 0.9]
    params = _params_for([0.5, 0.5], beta)
    ds = RatingDataset.from_arrays(1, 1, 2, [0], [0], [1])
    q = e_step_mar(params, ds)
    np.testing.assert_allclose(q[0], [0.9, 0.1], atol=1e-12)


def test_e_step_empty_row_gives_prior_weights():
    beta = np.full((2, 1, 2), 0.5)
    params = _params_for([0.7, 0.3], beta)
    ds = RatingDataset.from_arrays(2, 1, 2, [0], [0], [1])
    q = e_step_mar(params, ds)
    np.testing.assert_allclose(q[1], [0.7, 0.3], atol=1e-12)


def test_e_step_rows_normalised():
    rng = np.random.default_rng(0)
    for seed in range(10):
        ds = _random_dataset(rng, 30, 8, 4)
        params = init_params(8, 4, FitConfig(n_components=3, seed=seed))
        q = e_step_mar(params, ds)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
        assert (q >= 0).all()


def test_m_step_beta_hand_case():
    # K=1, V=5, phi=2: one observation of value 2 on item 0
    ds = RatingDataset.from_arrays(1, 1, 5, [0], [0], [2])
    params = init_params(1, 5, FitConfig(n_components=1, seed=0))
    q = np.ones((1, 1))
    new = m_step_mar(params, ds, q)
    expected = np.array([1, 2, 1, 1, 1]) / 6.0
    np.testing.assert_allclose(new.beta[:, 0, 0], expected, atol=1e-15)


def test_m_step_prior_only_modes():
    # no data: theta uniform at symmetric alpha, beta uniform at symmetric phi
    ds = RatingDataset.from_arrays(0, 2, 5, [], [], [])
    params = init_params(2, 5, FitConfig(n_components=4, seed=1))
    q = np.zeros((0, 4))
    new = m_step_mar(params, ds, q)
    np.testing.assert_allclose(new.theta, 0.25, atol=1e-15)
    np.testing.assert_allclose(new.beta, 0.2, atol=1e-15)


def test_m_step_simplexes_exact():
    rng = np.random.default_rng(3)
    for seed in range(10):
        ds = _random_dataset(rng, 40, 6, 3)
        params = init_params(6, 3, FitConfig(n_components=4, seed=seed))
        q = e_step_mar(params, ds)
        new = m_step_mar(params, ds, q)
        assert abs(new.theta.sum() - 1.0) < 1e-12
        assert np.abs(new.beta.sum(axis=0) - 1.0).max() < 1e-12


def test_log_posterior_increases_under_em():
    rng = np.random.default_rng(11)
    for seed in range(8):
        ds = _random_dataset(rng, 50, 10, 4)
        cfg = FitConfig(n_components=3, seed=seed, max_iters=30, rel_tol=0.0)
        result = fit_mar(ds, cfg)
        trace = result.log_posterior_trace
        assert len(trace) == 30
        deltas = np.diff(trace)
        floor = -1e-9 * np.abs(trace[1:])
        assert (deltas >= floor).all()


def test_log_posterior_mar_matches_the_objective_oracle():
    # smoothing away from 2, where gammaln(alpha) = 0 would hide its terms
    rng = np.random.default_rng(41)
    for K, M, V in ((1, 3, 2), (2, 4, 3), (3, 2, 5)):
        ds = _random_dataset(rng, 6, M, V)
        params = init_params(M, V, FitConfig(n_components=K, alpha=1.7,
                                             phi=2.6, seed=int(rng.integers(99))))
        assert log_posterior_mar(params, ds) == pytest.approx(
            log_posterior(params, ds), rel=1e-12, abs=0)


def test_fit_matches_manual_objective():
    rng = np.random.default_rng(2)
    ds = _random_dataset(rng, 25, 5, 3)
    cfg = FitConfig(n_components=2, seed=4, max_iters=15, rel_tol=0.0)
    result = fit_mar(ds, cfg)
    assert result.log_posterior_trace[-1] == pytest.approx(
        log_posterior_mar(result.params, ds), abs=1e-9)


def test_both_fits_raise_on_a_non_finite_objective():
    # finite settings whose gammaln terms overflow; no RuntimeWarning escapes
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng, 20, 4, 3)
    mu = np.full(3, 0.5)
    for bad in (dict(alpha=1e308), dict(phi=1e308)):
        cfg = FitConfig(n_components=2, **bad)
        for fit in (lambda: fit_mar(ds, cfg), lambda: fit_nmar(ds, cfg, mu)):
            with pytest.raises(EstimationError, match="log posterior is nan"):
                fit()
    with pytest.raises(EstimationError, match="log posterior is nan"):
        fit_nmar(ds, FitConfig(n_components=2), mu, strength=1e308)


def test_single_component_converges_immediately():
    rng = np.random.default_rng(9)
    ds = _random_dataset(rng, 30, 6, 5)
    result = fit_mar(ds, FitConfig(n_components=1, seed=0))
    assert result.converged
    assert result.iterations <= 2


def test_e_steps_reject_out_of_range_entries():
    # value 0 would otherwise read the value-V row of every table, and
    # item M a cell past the end, without any error; no dataset holding
    # either can be built, so no E-step ever sees one
    bad_value = (2, 3, 2, [0, 1], [0, 2], [1, 0])
    bad_item = (2, 3, 2, [0, 1], [0, 3], [1, 2])
    for args, match in ((bad_value, "rating 0"), (bad_item, "item index 3")):
        with pytest.raises(DataValidationError, match=match):
            RatingDataset.from_arrays(*args)


def test_incidence_forms_match_per_triple_loop():
    # user 2 has no observations and item 3 is never rated
    N, M, V, K = 4, 5, 3, 2
    users = [0, 0, 0, 1, 1, 3, 3, 3]
    items = [0, 2, 4, 1, 2, 0, 1, 4]
    values = [3, 1, 2, 2, 2, 1, 3, 3]
    ds = RatingDataset.from_arrays(N, M, V, users, items, values)
    params = init_params(M, V, FitConfig(n_components=K, seed=3))
    cptv = CptvParams(mu=np.array([0.2, 0.5, 0.7]))
    q = np.random.default_rng(4).dirichlet(np.ones(K), size=N)

    log_beta = np.log(params.beta)
    gamma0 = ((1.0 - cptv.mu)[:, None, None] * params.beta).sum(axis=0)
    mar = np.tile(np.log(params.theta), (N, 1))
    nmar = mar + np.log(gamma0).sum(axis=0)
    scatter = np.zeros((V, M, K))
    for i, m, x in zip(users, items, values):
        mar[i] += log_beta[x - 1, m]
        nmar[i] += np.log(cptv.mu[x - 1]) + log_beta[x - 1, m] - np.log(gamma0[m])
        scatter[x - 1, m] += q[i]

    np.testing.assert_allclose(_log_weights(params, ds), mar, rtol=1e-13)
    np.testing.assert_allclose(_log_weights(params, ds, cptv), nmar, rtol=1e-13)
    np.testing.assert_allclose(ds.scatter(q), scatter, rtol=1e-13)
    assert np.array_equal(ds.scatter(q)[:, 3], np.zeros((V, K)))
    assert ds._csr is ds._csr


@pytest.mark.parametrize("K", [1, 3])
def test_loaded_kernels_match_scipy_sparse_bit_for_bit(K):
    # user 2 has no ratings and item 3 is never rated; K=1 is the operand
    # scipy hands to its single-vector kernels csr_matvec and csc_matvec
    N, M, V = 4, 5, 3
    ds = RatingDataset.from_arrays(N, M, V, [0, 0, 0, 1, 1, 3, 3, 3],
                                   [0, 2, 4, 1, 2, 0, 1, 4], [3, 1, 2, 2, 2, 1, 3, 3])
    # the operator as a csr_array, built from int64 arrays; at sizes this small
    # the dataset's own index arrays are int32
    cols = (ds.values.astype(np.int64) - 1) * M + ds.items
    A = csr_array((np.ones(ds.n_obs), cols, np.searchsorted(ds.users, np.arange(N + 1))),
                  shape=(N, V * M))
    assert [a.dtype for a in ds._csr] == [np.int32, np.int32, A.data.dtype]
    rng = np.random.default_rng(K)
    table, q = rng.normal(size=(V, M + 2, K)), rng.normal(size=(N, K))
    assert ds.gather(table).tobytes() == (A @ table[:, :M].reshape(V * M, K)).tobytes()
    assert ds.scatter(q).tobytes() == (A.T @ q).tobytes()
    with pytest.raises(ValueError):
        ds.scatter(q[:-1])


@pytest.mark.parametrize("n_items, n_values", [(2, 5), (10, 4), (10, 6)])
def test_a_model_that_does_not_cover_the_data_is_refused(n_items, n_values):
    # a 2-item model on 10-item data gave every user the same posterior row
    # and a positive log posterior, without an error
    ds = _random_dataset(np.random.default_rng(0), 20, 10, 5)
    params = init_params(n_items, n_values, FitConfig(5, seed=0))
    cptv = CptvParams(mu=np.full(n_values, 0.5))
    calls = [lambda: posterior_z(params, ds), lambda: posterior_z(params, ds, cptv),
             lambda: e_step_mar(params, ds), lambda: e_step_nmar(params, cptv, ds),
             lambda: log_posterior_mar(params, ds),
             lambda: log_posterior_nmar(params, cptv, ds)]
    for call in calls:
        with pytest.raises(ConfigurationError, match=f"model covers {n_items} items and"
                                                     f" {n_values} values; data has 10 and 5"):
            call()


def test_loaded_gammaln_is_scipy_special_gammaln():
    loaded = data._scipy("special", "_special_ufuncs").gammaln
    x = np.array([1e-300, 0.5, 1.0, 2.0, 3.7, 171.5, 1e300, 0.0, -1.5, np.inf, np.nan])
    assert loaded(x).tobytes() == gammaln(x).tobytes()
    for scalar in (2.0, 20.0, 200.0, 0.25):
        assert loaded(scalar) == gammaln(scalar)


@pytest.fixture
def fresh_kernels():
    """Drop the cached scipy modules before and after the test."""
    data._scipy.cache_clear()
    yield
    data._scipy.cache_clear()


def test_kernels_load_by_file_without_scipy_sparse_or_special(monkeypatch, fresh_kernels):
    # with both packages and both modules unimportable only the load by file works
    for name in ("scipy.sparse", "scipy.special",
                 "scipy.sparse._sparsetools", "scipy.special._special_ufuncs"):
        monkeypatch.setitem(sys.modules, name, None)
    assert callable(data._scipy("sparse", "_sparsetools").csc_matvecs)
    assert data._scipy("special", "_special_ufuncs").gammaln(3.0) == gammaln(3.0)


def test_forced_import_fallback_gives_the_same_fit_bytes(monkeypatch, fresh_kernels):
    ds = _random_dataset(np.random.default_rng(5), 30, 8, 5)
    cfg = FitConfig(n_components=2, seed=1, max_iters=20)

    def fit_bytes():
        fits = fit_mar(ds, cfg), fit_nmar(ds, cfg, YAHOO_MU, strength=200.0)
        return [a.tobytes() for fit in fits for a in (
            fit.params.theta, fit.params.beta, fit.log_posterior_trace, fit.q)] + [
            fits[1].cptv.mu.tobytes()]

    by_file = fit_bytes()
    looked_up = []

    class NoPath:
        @staticmethod
        def find_spec(name, path=None):
            looked_up.append(name)

    monkeypatch.setattr(data, "PathFinder", NoPath)
    data._scipy.cache_clear()
    assert fit_bytes() == by_file
    assert looked_up == ["scipy", "scipy"]
    # a scipy without the private gammaln module falls back to scipy.special
    monkeypatch.setitem(sys.modules, "scipy.special._special_ufuncs", None)
    data._scipy.cache_clear()
    assert data._scipy("special", "_special_ufuncs") is scipy.special
    assert fit_bytes() == by_file


def test_fit_is_deterministic():
    rng = np.random.default_rng(21)
    ds = _random_dataset(rng, 40, 7, 3)
    cfg = FitConfig(n_components=2, seed=13, max_iters=25)
    a, b = fit_mar(ds, cfg), fit_mar(ds, cfg)
    assert np.array_equal(a.params.theta, b.params.theta)
    assert np.array_equal(a.params.beta, b.params.beta)


@pytest.mark.parametrize("K", [1, 2, 5, 7, 8, 9, 10, 20, 33])
def test_logsumexp_matches_scipy_bit_for_bit(K):
    rng = np.random.default_rng(K)
    a = rng.normal(scale=30.0, size=(50000, K))
    a[rng.random(a.shape) < 0.2] = -np.inf
    a[:100] = -np.inf                                   # all -inf
    a[100:200, -1] = np.inf
    a[200:300, 0] = -np.inf
    a[200:300, -1] = np.inf                             # +inf next to -inf
    a[300:400, 0] = np.nan
    a[400:500, -1] = np.nan
    a[400:500, 0] = -np.inf                             # NaN next to -inf
    a[500:600] = 3.0                                    # every entry tied
    a[600:700] = np.round(a[600:700] / 30.0)            # ties among few values
    a[700:800, 0] = a[700:800].max(axis=1)              # tied maxima
    a[800:900] = 1e308                                  # sum overflows
    a[900:1000, 0] = -1e308
    a[900:1000, -1] = 1.7e308                           # shift overflows
    a[1000:1300] = -np.abs(a[1000:1300])
    a[1000:1100, 0], a[1000:1100, -1] = -0.0, 0.0       # maxima -0.0 then +0.0
    a[1100:1200, 0], a[1100:1200, -1] = 0.0, -0.0       # maxima +0.0 then -0.0
    a[1200:1300] = -0.0                                 # every entry -0.0
    with np.errstate(over="ignore"):
        want = logsumexp(a, axis=1)
    got = _logsumexp(a)
    assert got.shape == want.shape == (50000,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("learn", [False, True])
def test_an_em_iteration_needs_three_rating_tables_of_memory(learn):
    # one M-step, E-step and objective at M = 2000, K = 10 hold the new beta and
    # at most two more (V, M, K) tables at once, plus (M, K) and (N, K) ones
    N, M, V, K = 300, 2000, 5, 10
    ds = _random_dataset(np.random.default_rng(0), N, M, V, density=0.05)
    params = init_params(M, V, FitConfig(K, seed=0))
    mu = YAHOO_MU * 4.0
    cptv = CptvParams(mu, *((mu * 50 + 1, (1 - mu) * 50 + 1) if learn else (None, None)))
    q, _ = _e_step(params, ds, cptv)  # builds the dataset's cached operator and counts
    ds.value_counts()
    table = params.beta.nbytes
    tracemalloc.start()
    try:
        new, new_cptv = _m_step(params, ds, q, cptv)
        _objective(new, _e_step(new, ds, new_cptv)[1], new_cptv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # with every temporary kept apart, as before, a step peaked at 4.2 tables
    assert peak < 3 * table + 4 * q.nbytes, peak / table

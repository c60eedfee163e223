import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from missmix.cptv import (CptvParams, MU_EPS, YAHOO_MU, build_mu_prior,
                          e_step_nmar, estimate_mu_heldout, fit_nmar,
                          log_evidence_nmar, log_posterior_nmar, m_step_nmar,
                          missing_value_attribution)
from missmix.data import RatingDataset
from missmix.errors import (ConfigurationError, DataValidationError,
                            EstimationError)
from missmix.mixture import (FitConfig, MixtureParams, e_step_mar, fit_mar,
                             init_params, m_step_mar)
from missmix.synthetic import apply_cptv_missingness, sample_ground_truth
from oracles import (brute_force_user_evidence, compute_gamma,
                     expected_complete_objective, log_posterior)


def _params_for(theta, beta):
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return MixtureParams(theta=theta, beta=beta, alpha=2.0, phi=2.0)


def _random_nmar_case(rng, N=6, max_M=4, max_V=3, max_K=3):
    K = int(rng.integers(1, max_K + 1))
    M = int(rng.integers(1, max_M + 1))
    V = int(rng.integers(2, max_V + 1))
    mu = rng.uniform(0.05, 0.95, size=V)
    truth = sample_ground_truth(N, M, V, K, mu, seed=int(rng.integers(1 << 31)))
    ds = apply_cptv_missingness(truth, seed=int(rng.integers(1 << 31)))
    return truth.params, mu, ds


def test_yahoo_preset_values():
    np.testing.assert_array_equal(YAHOO_MU, [0.014, 0.011, 0.027, 0.063, 0.225])


def test_cptv_params_validation_and_clamping():
    p = CptvParams(mu=np.array([0.0, 1.0]))
    assert p.mu[0] == MU_EPS and p.mu[1] == 1.0 - MU_EPS
    with pytest.raises(ConfigurationError):
        CptvParams(mu=np.array([0.5]), xi1=np.array([2.0]))
    with pytest.raises(ConfigurationError):
        CptvParams(mu=np.array([0.5]), xi1=np.array([2.0]), xi0=np.array([1.0]))
    with pytest.raises(ConfigurationError):
        CptvParams(mu=np.array([0.5, 0.5]), xi1=np.array([2.0]),
                   xi0=np.array([2.0]))
    for mu in ([0.5, 2.0], [0.5, np.nan], [-0.1, 0.5], [[0.5]], 0.5):
        with pytest.raises(ConfigurationError, match="mu must be"):
            CptvParams(mu=mu)
    for xi in ([2.0, np.nan], [2.0, np.inf]):
        with pytest.raises(ConfigurationError, match="prior counts"):
            CptvParams(mu=[0.5, 0.5], xi1=[2.0, 2.0], xi0=xi)


_floats = st.one_of(st.floats(), st.floats(0, 1), st.floats(1, 1e3))
_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2,
                                                  min_side=0, max_side=3),
                     elements=_floats)


@given(mu=_arrays, xi1=st.none() | _arrays, xi0=st.none() | _arrays)
def test_cptv_params_holds_only_valid_values(mu, xi1, xi0):
    try:
        p = CptvParams(mu=mu, xi1=xi1, xi0=xi0)
    except ConfigurationError:
        return
    assert p.mu.ndim == 1
    assert ((0 < p.mu) & (p.mu < 1)).all()
    if p.xi1 is not None:
        for xi in (p.xi1, p.xi0):
            assert xi.shape == p.mu.shape
            assert ((1 < xi) & (xi < np.inf)).all()


def test_fit_nmar_validation():
    ds = RatingDataset.from_arrays(2, 2, 2, [0, 1], [0, 1], [1, 2])
    cfg = FitConfig(n_components=1, max_iters=2)
    bad = [(np.ones((2, 2)), None),             # not a vector
           (np.full(3, 0.5), None),             # wrong length
           (np.array([0.5, 2.0]), None),        # not a probability
           (np.array([0.5, np.nan]), None),
           (np.array([0.5, 0.5]), 2.0),         # prior counts <= 1
           (np.array([0.5, 0.5]), np.nan),
           (np.array([0.5, np.nan]), 10.0),
           (np.full(3, 0.5), 10.0)]
    for mu, strength in bad:
        with pytest.raises(ConfigurationError):
            fit_nmar(ds, cfg, mu, strength)
    assert fit_nmar(ds, cfg, np.array([0.5, 0.5]), 10.0).cptv.xi1 is not None


def test_compute_gamma_hand_case():
    # K=1, M=2, V=2; item 0 observed with value 1
    beta = np.zeros((2, 2, 1))
    beta[:, 0, 0] = [0.2, 0.8]
    beta[:, 1, 0] = [0.6, 0.4]
    params = _params_for([1.0], beta)
    cptv = CptvParams(mu=np.array([0.2, 0.7]))
    ds = RatingDataset.from_arrays(1, 2, 2, [0], [0], [1])
    g = compute_gamma(params, cptv, ds)
    assert g[0, 0, 0] == pytest.approx(0.2 * 0.2, abs=1e-15)
    # hidden cell: sum_v (1-mu_v) beta_v = 0.8*0.6 + 0.3*0.4
    assert g[0, 1, 0] == pytest.approx(0.8 * 0.6 + 0.3 * 0.4, abs=1e-15)


def test_compute_gamma_rejects_out_of_range_values():
    # such a dataset cannot be built, so compute_gamma never sees one
    with pytest.raises(DataValidationError, match="rating 0 out of range"):
        RatingDataset.from_arrays(2, 1, 2, [0, 1], [0, 0], [1, 0])


def test_log_evidence_matches_dense_gamma():
    rng = np.random.default_rng(31)
    for _ in range(25):
        params, mu, ds = _random_nmar_case(rng)
        cptv = CptvParams(mu=mu)
        g = compute_gamma(params, cptv, ds)
        dense = np.log((params.theta * np.prod(g, axis=1)).sum(axis=1))
        fast = log_evidence_nmar(params, cptv, ds)
        np.testing.assert_allclose(fast, dense, rtol=1e-10, atol=1e-12)


def test_log_evidence_matches_enumeration_oracle():
    rng = np.random.default_rng(77)
    for _ in range(30):
        params, mu, ds = _random_nmar_case(rng)
        fast = np.exp(log_evidence_nmar(params, CptvParams(mu=mu), ds))
        for i in range(ds.n_users):
            items, values = ds.row(i)
            oracle = brute_force_user_evidence(params, mu, items, values)
            assert abs(fast[i] - oracle) <= 1e-12 * oracle


def test_uniform_mu_e_step_reduces_to_value_blind():
    rng = np.random.default_rng(13)
    for _ in range(10):
        params, _, ds = _random_nmar_case(rng, N=20)
        cptv = CptvParams(mu=np.full(params.n_values, 0.3))
        qa = e_step_nmar(params, cptv, ds)
        qb = e_step_mar(params, ds)
        np.testing.assert_allclose(qa, qb, atol=1e-12)


def test_m_step_hand_case():
    # K=1, V=2, M=2, one user: item 0 observed value 1, item 1 hidden.
    # beta item1 puts all mass on value 2, so the hidden cell is
    # attributed entirely to value 2.
    beta = np.zeros((2, 2, 1))
    beta[:, 0, 0] = [0.5, 0.5]
    beta[:, 1, 0] = [0.0, 1.0]
    params = _params_for([1.0], beta)
    cptv = CptvParams(mu=np.array([0.5, 0.5]), xi1=np.array([2.0, 2.0]),
                      xi0=np.array([2.0, 2.0]))
    ds = RatingDataset.from_arrays(1, 2, 2, [0], [0], [1])
    q = np.ones((1, 1))
    new_params, new_cptv = m_step_nmar(params, cptv, ds, q, learn_mu=True)
    np.testing.assert_allclose(new_params.theta, [1.0])
    # item0: observed value 1 -> (1+1, 1+0)/3; item1: hidden unit on value 2
    np.testing.assert_allclose(new_params.beta[:, 0, 0], [2 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(new_params.beta[:, 1, 0], [1 / 3, 2 / 3], atol=1e-15)
    # mu_1: (2-1+1)/(2+2-2+1+0); mu_2: (2-1+0)/(2+2-2+0+1)
    np.testing.assert_allclose(new_cptv.mu, [2 / 3, 1 / 3], atol=1e-15)


def test_m_step_prior_only_mu_mode():
    ds = RatingDataset.from_arrays(0, 2, 2, [], [], [])
    beta = np.full((2, 2, 1), 0.5)
    params = _params_for([1.0], beta)
    cptv = CptvParams(mu=np.array([0.4, 0.4]), xi1=np.array([3.0, 3.0]),
                      xi0=np.array([2.0, 2.0]))
    q = np.zeros((0, 1))
    _, new_cptv = m_step_nmar(params, cptv, ds, q, learn_mu=True)
    np.testing.assert_allclose(new_cptv.mu, 2 / 3, atol=1e-15)


def test_m_step_fixed_mode_keeps_mu():
    rng = np.random.default_rng(3)
    params, mu, ds = _random_nmar_case(rng, N=15)
    params = MixtureParams(theta=params.theta, beta=params.beta,
                           alpha=2.0, phi=2.0)
    cptv = CptvParams(mu=mu)
    q = e_step_nmar(params, cptv, ds)
    _, new_cptv = m_step_nmar(params, cptv, ds, q, learn_mu=False)
    assert new_cptv is cptv
    with pytest.raises(ConfigurationError):
        m_step_nmar(params, cptv, ds, q, learn_mu=True)


def test_log_posterior_nmar_matches_the_objective_oracle():
    # smoothing away from 2 and rates away from 1/2, where terms of the
    # priors vanish or coincide
    rng = np.random.default_rng(43)
    for _ in range(6):
        truth_params, mu, ds = _random_nmar_case(rng)
        params = MixtureParams(theta=truth_params.theta, beta=truth_params.beta,
                               alpha=1.7, phi=2.6)
        fixed = CptvParams(mu=mu)
        assert log_posterior_nmar(params, fixed, ds) == pytest.approx(
            log_posterior(params, ds, mu), rel=1e-12, abs=0)
        prior = build_mu_prior(rng.uniform(0.1, 0.9, size=len(mu)), 30.0)
        learned = CptvParams(mu=mu, xi1=prior[0], xi0=prior[1])
        assert log_posterior_nmar(params, learned, ds) == pytest.approx(
            log_posterior(params, ds, mu, prior), rel=1e-12, abs=0)


def test_fit_nmar_monotone_and_converges():
    rng = np.random.default_rng(19)
    truth = sample_ground_truth(80, 12, 3, 2, np.array([0.3, 0.5, 0.8]), seed=5)
    ds = apply_cptv_missingness(truth, seed=6)
    cfg = FitConfig(n_components=2, seed=1, max_iters=300, rel_tol=1e-8)
    # learn mode: prior counts xi1 = xi0 = 4
    for mu, strength, kind in ((truth.mu, None, "fixed"),
                               (np.full(3, 0.5), 8.0, "learn")):
        result = fit_nmar(ds, cfg, mu, strength)
        trace = result.log_posterior_trace
        deltas = np.diff(trace)
        assert (deltas >= -1e-9 * np.abs(trace[1:])).all()
        assert (result.cptv.xi1 is not None) == (kind == "learn")
        assert result.log_posterior_trace[-1] == pytest.approx(
            log_posterior_nmar(result.params, result.cptv, ds), abs=1e-9)
    fixed = fit_nmar(ds, cfg, truth.mu)
    np.testing.assert_allclose(fixed.cptv.mu, truth.mu, atol=1e-15)


def test_attribution_sums_to_one_and_none_when_complete():
    truth = sample_ground_truth(50, 8, 3, 2, np.array([0.2, 0.5, 0.9]), seed=2)
    ds = apply_cptv_missingness(truth, seed=3)
    cfg = FitConfig(n_components=2, seed=0, max_iters=60)
    result = fit_nmar(ds, cfg, truth.mu)
    attr = result.missing_value_attribution
    assert attr is not None and attr.shape == (3,)
    assert attr.sum() == pytest.approx(1.0, abs=1e-12)
    assert (attr >= 0).all()

    complete = apply_cptv_missingness(truth, seed=4, mu=np.ones(3))
    assert complete.n_obs == 50 * 8
    r2 = fit_nmar(complete, cfg, np.full(3, 0.5))
    assert r2.missing_value_attribution is None


def test_fully_observed_fixed_mu_matches_value_blind_fit():
    truth = sample_ground_truth(60, 10, 4, 3, np.ones(4), seed=8)
    full = apply_cptv_missingness(truth, seed=9)
    cfg = FitConfig(n_components=3, seed=2, max_iters=50, rel_tol=0.0)
    ra = fit_mar(full, cfg)
    rb = fit_nmar(full, cfg, np.full(4, 0.37))
    np.testing.assert_allclose(ra.params.theta, rb.params.theta, atol=1e-6)
    np.testing.assert_allclose(ra.params.beta, rb.params.beta, atol=1e-6)


def test_estimate_mu_hand_case():
    # probe counts [3,1] smooth to [2/3,1/3]; train counts [2,1] over
    # 2 users x exposure 3 give rates [1/3,1/6]; ratios are 0.5 each
    train = RatingDataset.from_arrays(2, 3, 2, [0, 0, 1], [0, 1, 0], [1, 1, 2])
    probe = RatingDataset.from_arrays(2, 3, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                                      [1, 1, 1, 2])
    mu = estimate_mu_heldout(train, probe, 3)
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-15)
    # per-user exposure array, same total
    mu2 = estimate_mu_heldout(train, probe, np.array([4, 2]))
    np.testing.assert_allclose(mu2, mu, atol=1e-15)


def test_estimate_mu_warns_and_clamps_above_one():
    train = RatingDataset.from_arrays(1, 4, 2, [0, 0, 0, 0], [0, 1, 2, 3],
                                      [1, 1, 1, 1])
    probe = RatingDataset.from_arrays(1, 4, 2, [0, 0], [0, 1], [1, 2])
    with pytest.warns(UserWarning, match="value 1"):
        mu = estimate_mu_heldout(train, probe, 4)
    assert mu[0] == 1.0 - MU_EPS


def test_estimate_mu_input_validation():
    train = RatingDataset.from_arrays(1, 2, 2, [0], [0], [1])
    probe = RatingDataset.from_arrays(1, 2, 2, [0], [1], [2])
    empty = RatingDataset.from_arrays(1, 2, 2, [], [], [])
    with pytest.raises(EstimationError):
        estimate_mu_heldout(train, empty, 2)
    with pytest.raises(ConfigurationError):
        estimate_mu_heldout(train, probe, np.array([1, 2, 3]))
    with pytest.raises(ConfigurationError):
        # total exposure below observed count
        estimate_mu_heldout(train, probe, 0.5)


def test_build_mu_prior_hand_case():
    xi1, xi0 = build_mu_prior(YAHOO_MU, 200.0)
    assert xi1[-1] == pytest.approx(45.0)
    assert xi0[-1] == pytest.approx(155.0)
    np.testing.assert_allclose(xi1 + xi0, 200.0, atol=1e-12)


def test_build_mu_prior_strength_floor():
    with pytest.raises(ConfigurationError, match="90.9"):
        build_mu_prior(YAHOO_MU, 50.0)
    with pytest.raises(ConfigurationError):
        build_mu_prior(np.array([0.5, 1.0]), 10.0)
    with pytest.raises(ConfigurationError):
        build_mu_prior(np.array([0.5]), 0.0)
    for mu_hat, strength in (([0.5, np.nan], 10.0), ([0.5], np.nan),
                             ([0.5], np.inf)):
        with pytest.raises(ConfigurationError):
            build_mu_prior(np.array(mu_hat), strength)


def test_missing_value_attribution_direct():
    # one hidden cell fully attributed by beta: same setup as the
    # m-step hand case
    beta = np.zeros((2, 2, 1))
    beta[:, 0, 0] = [0.5, 0.5]
    beta[:, 1, 0] = [0.0, 1.0]
    params = _params_for([1.0], beta)
    cptv = CptvParams(mu=np.array([0.5, 0.5]))
    ds = RatingDataset.from_arrays(1, 2, 2, [0], [0], [1])
    attr = missing_value_attribution(params, cptv, ds, np.ones((1, 1)))
    np.testing.assert_allclose(attr, [0.0, 1.0], atol=1e-15)


def _simplex_moves(p, eps=1e-3):
    """Copies of ``p`` with a little mass moved between two entries of
    one distribution along axis 0, both ways, staying on the simplex."""
    V = p.shape[0]
    for idx in np.ndindex(p.shape[1:]):
        for a in range(V):
            for b in range(V):
                if a != b:
                    moved = p.copy()
                    d = eps * min(p[(a,) + idx], p[(b,) + idx])
                    moved[(a,) + idx] += d
                    moved[(b,) + idx] -= d
                    yield moved


def test_m_steps_are_stationary_for_the_expected_objective():
    # Small moves of theta, each beta[:, m, z] and each mu[v] away from
    # the M-step's output never raise the expected complete-data
    # objective, written out cell by cell in the oracle.
    rng = np.random.default_rng(57)
    for case in range(4):
        _, _, ds = _random_nmar_case(rng, N=8)
        K = int(rng.integers(1, 4))
        V = ds.n_values
        cfg = FitConfig(n_components=K, alpha=1.6, phi=2.4, seed=case)
        params = init_params(ds.n_items, V, cfg)
        xi1, xi0 = rng.uniform(1.5, 6.0, V), rng.uniform(1.5, 6.0, V)
        cptv = CptvParams(mu=rng.uniform(0.1, 0.9, V), xi1=xi1, xi0=xi0)

        q = e_step_mar(params, ds)
        new = m_step_mar(params, ds, q)
        best = expected_complete_objective(new.theta, new.beta, q, ds, 1.6, 2.4)
        tol = 1e-12 * abs(best)
        for theta in _simplex_moves(new.theta):
            assert expected_complete_objective(
                theta, new.beta, q, ds, 1.6, 2.4) <= best + tol
        for beta in _simplex_moves(new.beta):
            assert expected_complete_objective(
                new.theta, beta, q, ds, 1.6, 2.4) <= best + tol

        q = e_step_nmar(params, cptv, ds)
        new, new_cptv = m_step_nmar(params, cptv, ds, q, learn_mu=True)

        def objective(theta, beta, mu):
            return expected_complete_objective(
                theta, beta, q, ds, 1.6, 2.4, mu=mu,
                old=(params.beta, cptv.mu), prior=(xi1, xi0))

        mu = new_cptv.mu
        best = objective(new.theta, new.beta, mu)
        tol = 1e-12 * abs(best)
        for theta in _simplex_moves(new.theta):
            assert objective(theta, new.beta, mu) <= best + tol
        for beta in _simplex_moves(new.beta):
            assert objective(new.theta, beta, mu) <= best + tol
        for v in range(V):
            for sign in (1, -1):
                moved = mu.copy()
                moved[v] += sign * 1e-3 * min(mu[v], 1 - mu[v])
                assert objective(new.theta, new.beta, moved) <= best + tol

import numpy as np
import pytest

from missmix.cptv import (CptvParams, MU_EPS, MuMode, YAHOO_MU, build_mu_prior,
                          compute_gamma, e_step_nmar, estimate_mu_heldout,
                          fit_nmar, log_evidence_nmar, log_posterior_nmar,
                          m_step_nmar, missing_value_attribution)
from missmix.data import RatingDataset
from missmix.errors import ConfigurationError, EstimationError
from missmix.mixture import FitConfig, MixtureParams, e_step_mar, fit_mar
from missmix.synthetic import (apply_cptv_missingness, brute_force_user_evidence,
                               sample_ground_truth)


def _params_for(theta, beta):
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return MixtureParams(theta=theta, beta=beta,
                         alpha=np.full(theta.shape, 2.0),
                         phi=np.full(beta.shape, 2.0))


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


def test_mu_mode_validation():
    with pytest.raises(ConfigurationError):
        MuMode.fixed(np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        MuMode.learn(np.array([0.5, 2.0]), np.array([2.0, 2.0]))
    mode = MuMode.learn(np.array([3.0]), np.array([2.0]))
    assert mode.kind == "learn"


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
                           alpha=np.full(params.n_components, 2.0),
                           phi=np.full(params.beta.shape, 2.0))
    cptv = CptvParams(mu=mu)
    q = e_step_nmar(params, cptv, ds)
    _, new_cptv = m_step_nmar(params, cptv, ds, q, learn_mu=False)
    assert new_cptv is cptv
    with pytest.raises(ConfigurationError):
        m_step_nmar(params, cptv, ds, q, learn_mu=True)


def test_fit_nmar_monotone_and_converges():
    rng = np.random.default_rng(19)
    truth = sample_ground_truth(80, 12, 3, 2, np.array([0.3, 0.5, 0.8]), seed=5)
    ds = apply_cptv_missingness(truth, seed=6)
    cfg = FitConfig(n_components=2, seed=1, max_iters=300, rel_tol=1e-8)
    for mode in (MuMode.fixed(truth.mu),
                 MuMode.learn(np.full(3, 4.0), np.full(3, 4.0))):
        result = fit_nmar(ds, cfg, mode)
        trace = result.log_posterior_trace
        deltas = np.diff(trace)
        assert (deltas >= -1e-9 * np.abs(trace[1:])).all()
        assert result.mu_mode == mode.kind
        assert result.log_posterior_trace[-1] == pytest.approx(
            log_posterior_nmar(result.params, result.cptv, ds), abs=1e-9)
    fixed = fit_nmar(ds, cfg, MuMode.fixed(truth.mu))
    np.testing.assert_allclose(fixed.cptv.mu, truth.mu, atol=1e-15)


def test_attribution_sums_to_one_and_none_when_complete():
    truth = sample_ground_truth(50, 8, 3, 2, np.array([0.2, 0.5, 0.9]), seed=2)
    ds = apply_cptv_missingness(truth, seed=3)
    cfg = FitConfig(n_components=2, seed=0, max_iters=60)
    result = fit_nmar(ds, cfg, MuMode.fixed(truth.mu))
    attr = result.missing_value_attribution
    assert attr is not None and attr.shape == (3,)
    assert attr.sum() == pytest.approx(1.0, abs=1e-12)
    assert (attr >= 0).all()

    complete = apply_cptv_missingness(truth, seed=4, mu=np.ones(3))
    assert complete.n_obs == 50 * 8
    r2 = fit_nmar(complete, cfg, MuMode.fixed(np.full(3, 0.5)))
    assert r2.missing_value_attribution is None


def test_fully_observed_fixed_mu_matches_value_blind_fit():
    truth = sample_ground_truth(60, 10, 4, 3, np.ones(4), seed=8)
    full = apply_cptv_missingness(truth, seed=9)
    cfg = FitConfig(n_components=3, seed=2, max_iters=50, rel_tol=0.0)
    ra = fit_mar(full, cfg)
    rb = fit_nmar(full, cfg, MuMode.fixed(np.full(4, 0.37)))
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

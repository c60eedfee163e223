"""Mixture fitting under value-dependent missingness.

The observation model attaches to each rating value v a probability
mu[v-1] that an entry holding v is actually observed. Fitting then has
to explain both the observed values and the observation pattern itself:
a user's evidence multiplies, over every item, either
mu[x] * beta[x, m, z] (entry observed with value x) or
sum_v (1 - mu[v]) * beta[v, m, z] (entry hidden). EM updates below keep
everything in log domain per user and reduce the per-hidden-cell terms
to one (item, component) table, so cost stays proportional to the number
of observed entries.

mu can be held fixed or learned; learning places a Beta(xi1, xi0) prior
on each mu[v] and both raise the same joint objective monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .analysis import smoothed_distribution
from .data import RatingDataset
from .errors import ConfigurationError, EstimationError
from .mixture import (FitConfig, FitResult, MixtureParams, _gather,
                      _log_dirichlet_prior, _map_update,
                      _normalize_log_weights, _run_em, _scatter, init_params)

# Observation probabilities are clamped inside the open unit interval so
# their logs stay finite.
MU_EPS = 1e-12

# Observation rates per rating value 1..5 measured on a public music
# rating service by comparing self-selected and randomly probed ratings.
YAHOO_MU = np.array([0.014, 0.011, 0.027, 0.063, 0.225])


@dataclass
class CptvParams:
    """Per-value observation probabilities, optionally with their prior.

    mu[v-1] is the probability that an entry rated v is observed, in
    [0, 1] and clamped to [MU_EPS, 1 - MU_EPS]. When xi1/xi0 are set
    (both or neither), mu is learnable under independent Beta(xi1[v],
    xi0[v]) priors whose entries must be finite and exceed 1, so the
    posterior mode stays interior. Other values raise ConfigurationError.
    """

    mu: np.ndarray
    xi1: np.ndarray | None = None
    xi0: np.ndarray | None = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or not ((mu >= 0) & (mu <= 1)).all():
            raise ConfigurationError(
                "mu must be a 1-d vector of probabilities in [0, 1]")
        self.mu = np.clip(mu, MU_EPS, 1.0 - MU_EPS)
        if (self.xi1 is None) != (self.xi0 is None):
            raise ConfigurationError("xi1 and xi0 must be given together")
        if self.xi1 is not None:
            self.xi1 = np.asarray(self.xi1, dtype=float)
            self.xi0 = np.asarray(self.xi0, dtype=float)
            if self.xi1.shape != self.mu.shape or self.xi0.shape != self.mu.shape:
                raise ConfigurationError("xi1/xi0 must match mu in shape")
            if not all(((1 < xi) & (xi < np.inf)).all() for xi in (self.xi1, self.xi0)):
                raise ConfigurationError("prior counts must all be finite and > 1")

    @property
    def n_values(self) -> int:
        return self.mu.shape[0]


def _hidden_cell_table(params: MixtureParams, cptv: CptvParams) -> np.ndarray:
    """gamma0[m, z] = sum_v (1 - mu[v]) * beta[v, m, z], shape (M, K)."""
    return ((1.0 - cptv.mu)[:, None, None] * params.beta).sum(axis=0)


def _log_weights_nmar(params: MixtureParams, cptv: CptvParams,
                      dataset: RatingDataset) -> np.ndarray:
    """Unnormalised per-user log component weights, shape (N, K).

    Starts every user from the all-hidden row sum and adjusts only the
    observed entries, swapping each hidden-cell term for
    log mu[x] + log beta[x, m, z].
    """
    with np.errstate(divide="ignore"):
        log_theta = np.log(params.theta)
        log_beta = np.log(params.beta)
        log_gamma0 = np.log(_hidden_cell_table(params, cptv))
    base = log_theta + log_gamma0.sum(axis=0)
    adj = np.log(cptv.mu)[:, None, None] + log_beta - log_gamma0
    return base + _gather(dataset, adj)


def e_step_nmar(params: MixtureParams, cptv: CptvParams,
                dataset: RatingDataset) -> np.ndarray:
    """Posterior component responsibilities, shape (N, K); rows sum to 1."""
    q, _ = _normalize_log_weights(_log_weights_nmar(params, cptv, dataset))
    return q


def log_evidence_nmar(params: MixtureParams, cptv: CptvParams,
                      dataset: RatingDataset) -> np.ndarray:
    """Per-user log probability of observed values and response pattern,
    shape (N,)."""
    return logsumexp(_log_weights_nmar(params, cptv, dataset), axis=1)


def _expected_counts(params: MixtureParams, cptv: CptvParams,
                     dataset: RatingDataset, q: np.ndarray):
    """Expected (V, M, K) rating counts of the observed and the hidden cells.

    Returns (observed, hidden): the responsibility scatter of the observed
    entries, and the responsibility mass of users whose (i, m) cell is
    hidden spread over the values as a hidden rating at (m, z) is.
    """
    gamma0 = _hidden_cell_table(params, cptv)
    w = (1.0 - cptv.mu)[:, None, None] * params.beta / gamma0
    observed = _scatter(dataset, q)
    hidden_q = np.maximum(q.sum(axis=0) - observed.sum(axis=0), 0.0)
    return observed, w * hidden_q


def m_step_nmar(params: MixtureParams, cptv: CptvParams, dataset: RatingDataset,
                q: np.ndarray, learn_mu: bool = False):
    """Maximise the smoothed expected complete-data objective.

    Returns (params, cptv) with theta and beta always updated; mu is
    re-estimated only with ``learn_mu``, which requires cptv to carry
    its Beta prior.
    """
    observed, hidden = _expected_counts(params, cptv, dataset, q)
    new_params = _map_update(params, q, observed, hidden)
    if not learn_mu:
        return new_params, cptv
    if cptv.xi1 is None:
        raise ConfigurationError("cannot learn mu without its Beta prior")
    observed_v = dataset.value_counts()
    hidden_v = hidden.sum(axis=(1, 2))
    mu_num = cptv.xi1 - 1.0 + observed_v
    mu = mu_num / (cptv.xi1 + cptv.xi0 - 2.0 + observed_v + hidden_v)
    return new_params, CptvParams(mu=mu, xi1=cptv.xi1, xi0=cptv.xi0)


def missing_value_attribution(params: MixtureParams, cptv: CptvParams,
                              dataset: RatingDataset,
                              q: np.ndarray) -> np.ndarray | None:
    """Fraction of the hidden entries attributed to each rating value.

    Under the fitted model, each hidden cell spreads one unit of mass
    over the values; entry v-1 is that mass summed over all hidden
    cells, as a fraction of their count. None if nothing is hidden.
    """
    if dataset.n_obs >= dataset.n_users * dataset.n_items:
        return None
    by_value = _expected_counts(params, cptv, dataset, q)[1].sum(axis=(1, 2))
    return by_value / by_value.sum()


def _log_beta_prior(cptv: CptvParams) -> float:
    """Log density of mu under its Beta prior; 0 when there is none."""
    if cptv.xi1 is None:
        return 0.0
    return float((gammaln(cptv.xi1 + cptv.xi0) - gammaln(cptv.xi1)
                  - gammaln(cptv.xi0)
                  + (cptv.xi1 - 1.0) * np.log(cptv.mu)
                  + (cptv.xi0 - 1.0) * np.log1p(-cptv.mu)).sum())


def _objective_nmar(params: MixtureParams, cptv: CptvParams,
                    log_z: np.ndarray) -> float:
    return float(log_z.sum()) + _log_dirichlet_prior(params) + _log_beta_prior(cptv)


def log_posterior_nmar(params: MixtureParams, cptv: CptvParams,
                       dataset: RatingDataset) -> float:
    """Log of (evidence x priors); includes the Beta term for mu only
    when cptv carries a prior."""
    return _objective_nmar(params, cptv, log_evidence_nmar(params, cptv, dataset))


def fit_nmar(dataset: RatingDataset, config: FitConfig, mu,
             strength: float | None = None) -> FitResult:
    """Fit mixture and observation probabilities jointly by MAP EM.

    Parameters
    ----------
    dataset : RatingDataset
    config : FitConfig
        Smoothing and stopping settings, as for the value-independent fit.
    mu : array_like, shape (V,)
        Observation probability of each rating value, held fixed.
    strength : float, optional
        Learn mu instead, under the prior `build_mu_prior(mu, strength)`:
        it starts at a draw from the prior and is re-estimated every
        iteration.

    Returns
    -------
    FitResult
        With cptv (holding the prior's xi1/xi0 when mu was learned) and,
        when any cell is hidden, the missing-value attribution.
    """
    params = init_params(dataset.n_items, dataset.n_values, config)
    learn = strength is not None
    xi1, xi0 = build_mu_prior(mu, strength) if learn else (None, None)
    if learn:
        mu = np.random.default_rng([config.seed, 1]).beta(xi1, xi0)
    cptv = CptvParams(mu=mu, xi1=xi1, xi0=xi0)
    if cptv.n_values != dataset.n_values:
        raise ConfigurationError(f"mu must have {dataset.n_values} entries")

    (params, cptv), q, trace, converged = _run_em(
        (params, cptv),
        lambda s: _log_weights_nmar(*s, dataset),
        lambda s, q: m_step_nmar(*s, dataset, q, learn_mu=learn),
        lambda s, log_z: _objective_nmar(*s, log_z),
        config)
    return FitResult(params=params, cptv=cptv, log_posterior_trace=trace,
                     converged=converged, iterations=len(trace), q=q,
                     missing_value_attribution=missing_value_attribution(
                         params, cptv, dataset, q))


def estimate_mu_heldout(train: RatingDataset, heldout: RatingDataset,
                        exposure) -> np.ndarray:
    """Estimate per-value observation probabilities from a random probe.

    The probe (``heldout``) samples cells without regard to their
    values, so its value frequencies estimate the underlying rating
    distribution; the self-selected ``train`` counts, divided by the
    number of cells each user could have contributed (``exposure``,
    scalar or per-user), estimate the joint rate of holding-and-showing
    each value. Their ratio estimates mu. Frequencies from the probe are
    add-one smoothed, and the result is clamped inside (0, 1); a
    per-value rate exceeding its probe frequency triggers a warning
    since the ratio is then no longer a probability.
    """
    import warnings

    if heldout.n_values != train.n_values:
        raise ConfigurationError("train and heldout disagree on n_values")
    if heldout.n_obs == 0:
        raise EstimationError("heldout probe is empty")
    exposure = np.asarray(exposure, dtype=float)
    if exposure.ndim == 0:
        total_exposure = float(exposure) * train.n_users
    elif exposure.shape == (train.n_users,):
        total_exposure = float(exposure.sum())
    else:
        raise ConfigurationError(
            "exposure must be a scalar or one count per user")
    if total_exposure < train.n_obs:
        raise ConfigurationError(
            f"total exposure {total_exposure:g} is below the number of"
            f" observed training entries {train.n_obs}")

    probe_freq = smoothed_distribution(heldout.value_counts())
    select_rate = train.value_counts() / total_exposure
    mu_hat = select_rate / probe_freq
    if (mu_hat > 1.0).any():
        worst = int(np.argmax(mu_hat))
        warnings.warn(
            f"estimated observation probability for value {worst + 1} is"
            f" {mu_hat[worst]:.4g} > 1; clamping", stacklevel=2)
    return np.clip(mu_hat, MU_EPS, 1.0 - MU_EPS)


def build_mu_prior(mu_hat, strength: float):
    """Convert an estimated mu into Beta prior counts (xi1, xi0).

    xi1 = strength * mu_hat and xi0 = strength * (1 - mu_hat), so the
    prior mean is mu_hat and ``strength`` acts as a pseudo-count budget
    per value. Every entry must exceed 1 for the posterior mode to stay
    interior; too small a strength raises with the minimum that works.
    """
    mu_hat = np.asarray(mu_hat, dtype=float)
    if mu_hat.ndim != 1 or not ((0 < mu_hat) & (mu_hat < 1)).all():
        raise ConfigurationError("mu_hat must be a 1-d vector inside (0, 1)")
    if not 0 < strength < np.inf:
        raise ConfigurationError(f"strength must be finite and > 0, got {strength}")
    xi1 = strength * mu_hat
    xi0 = strength * (1.0 - mu_hat)
    if not ((xi1 > 1) & (xi0 > 1)).all():
        needed = 1.0 / min(mu_hat.min(), (1.0 - mu_hat).min())
        raise ConfigurationError(
            f"strength {strength:g} leaves some prior count <= 1;"
            f" need strength > {needed:.6g}")
    return xi1, xi0

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

from .data import RatingDataset, _require_in_range
from .errors import ConfigurationError, EstimationError
from .mixture import (FitConfig, FitResult, MixtureParams, _gather,
                      _log_dirichlet_prior, _normalize_log_weights, _run_em,
                      _scatter, init_params)

# Observation probabilities are clamped inside the open unit interval so
# their logs stay finite.
MU_EPS = 1e-12

# Observation rates per rating value 1..5 measured on a public music
# rating service by comparing self-selected and randomly probed ratings.
YAHOO_MU = np.array([0.014, 0.011, 0.027, 0.063, 0.225])


@dataclass
class CptvParams:
    """Per-value observation probabilities, optionally with their prior.

    mu[v-1] is the probability that an entry rated v is observed. When
    xi1/xi0 are set (both or neither), mu is treated as learnable under
    independent Beta(xi1[v], xi0[v]) priors; entries must exceed 1 so
    the posterior mode stays interior.
    """

    mu: np.ndarray
    xi1: np.ndarray | None = None
    xi0: np.ndarray | None = None

    def __post_init__(self):
        self.mu = np.clip(np.asarray(self.mu, dtype=float), MU_EPS, 1.0 - MU_EPS)
        if (self.xi1 is None) != (self.xi0 is None):
            raise ConfigurationError("xi1 and xi0 must be given together")
        if self.xi1 is not None:
            self.xi1 = np.asarray(self.xi1, dtype=float)
            self.xi0 = np.asarray(self.xi0, dtype=float)
            if self.xi1.shape != self.mu.shape or self.xi0.shape != self.mu.shape:
                raise ConfigurationError("xi1/xi0 must match mu in shape")
            if (self.xi1 <= 1).any() or (self.xi0 <= 1).any():
                raise ConfigurationError("prior counts must all be > 1")

    @property
    def n_values(self) -> int:
        return self.mu.shape[0]


@dataclass
class MuMode:
    """How fit_nmar treats the observation probabilities."""

    kind: str
    mu: np.ndarray | None = None
    xi1: np.ndarray | None = None
    xi0: np.ndarray | None = None

    @classmethod
    def fixed(cls, mu) -> "MuMode":
        """Hold mu at the given per-value vector."""
        mu = np.asarray(mu, dtype=float)
        if mu.ndim != 1:
            raise ConfigurationError("mu must be a 1-d vector")
        return cls(kind="fixed", mu=mu)

    @classmethod
    def learn(cls, xi1, xi0) -> "MuMode":
        """Learn mu under Beta(xi1[v], xi0[v]) priors."""
        xi1 = np.asarray(xi1, dtype=float)
        xi0 = np.asarray(xi0, dtype=float)
        if xi1.shape != xi0.shape or xi1.ndim != 1:
            raise ConfigurationError("xi1/xi0 must be 1-d vectors of equal length")
        if (xi1 <= 1).any() or (xi0 <= 1).any():
            raise ConfigurationError("prior counts must all be > 1")
        return cls(kind="learn", xi1=xi1, xi0=xi0)


def _hidden_cell_table(params: MixtureParams, cptv: CptvParams) -> np.ndarray:
    """gamma0[m, z] = sum_v (1 - mu[v]) * beta[v, m, z], shape (M, K)."""
    return ((1.0 - cptv.mu)[:, None, None] * params.beta).sum(axis=0)


def compute_gamma(params: MixtureParams, cptv: CptvParams,
                  dataset: RatingDataset) -> np.ndarray:
    """Dense per-cell evidence table, shape (N, M, K).

    gamma[i, m, z] is the probability of cell (i, m)'s outcome given
    component z: mu[x] * beta[x, m, z] for an entry observed with value
    x, and the hidden-cell mass sum_v (1 - mu[v]) * beta[v, m, z]
    otherwise. Materialising N x M x K is meant for small instances and
    reference checks; the fitting routines never build it.
    """
    _require_in_range(dataset)
    gamma0 = _hidden_cell_table(params, cptv)
    out = np.broadcast_to(gamma0, (dataset.n_users,) + gamma0.shape).copy()
    v = dataset.values - 1
    out[dataset.users, dataset.items, :] = (
        cptv.mu[v, None] * params.beta[v, dataset.items, :])
    return out


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


def _hidden_mass_stats(params: MixtureParams, cptv: CptvParams,
                       dataset: RatingDataset, q: np.ndarray):
    """Expected hidden-rating mass, split by value.

    Returns (w, hidden_q, obs_vmz): w[v, m, z] is the conditional
    distribution of a hidden rating at (m, z); hidden_q[m, z] is the
    responsibility mass of users whose (i, m) cell is hidden; obs_vmz is
    the responsibility scatter of the observed entries.
    """
    gamma0 = _hidden_cell_table(params, cptv)
    w = (1.0 - cptv.mu)[:, None, None] * params.beta / gamma0
    obs_vmz = _scatter(dataset, q)
    hidden_q = np.maximum(q.sum(axis=0) - obs_vmz.sum(axis=0), 0.0)
    return w, hidden_q, obs_vmz


def m_step_nmar(params: MixtureParams, cptv: CptvParams, dataset: RatingDataset,
                q: np.ndarray, learn_mu: bool = False):
    """Maximise the smoothed expected complete-data objective.

    Returns (params, cptv) with theta and beta always updated; mu is
    re-estimated only with ``learn_mu``, which requires cptv to carry
    its Beta prior.
    """
    if params.alpha is None or params.phi is None:
        raise ConfigurationError("maximum-posterior updates need smoothing")
    theta_num = params.alpha - 1.0 + q.sum(axis=0)
    theta = theta_num / theta_num.sum()

    w, hidden_q, obs_vmz = _hidden_mass_stats(params, cptv, dataset, q)
    beta_num = params.phi - 1.0 + obs_vmz + w * hidden_q
    beta = beta_num / beta_num.sum(axis=0, keepdims=True)
    new_params = MixtureParams(theta=theta, beta=beta,
                               alpha=params.alpha, phi=params.phi)

    if not learn_mu:
        return new_params, cptv
    if cptv.xi1 is None:
        raise ConfigurationError("cannot learn mu without its Beta prior")
    observed_v = dataset.value_counts()
    hidden_v = (w * hidden_q).sum(axis=(1, 2))
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
    w, hidden_q, _ = _hidden_mass_stats(params, cptv, dataset, q)
    by_value = (w * hidden_q).sum(axis=(1, 2))
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


def fit_nmar(dataset: RatingDataset, config: FitConfig,
             mu_mode: MuMode) -> FitResult:
    """Fit mixture and observation probabilities jointly by MAP EM.

    Parameters
    ----------
    dataset : RatingDataset
    config : FitConfig
        Smoothing and stopping settings, as for the value-independent fit.
    mu_mode : MuMode
        MuMode.fixed(mu) holds the observation probabilities; with
        MuMode.learn(xi1, xi0) they start at a draw from the prior and
        are re-estimated every iteration.

    Returns
    -------
    FitResult
        With cptv, mu_mode, and (when any cell is hidden) the
        missing-value attribution of the final model.
    """
    params = init_params(dataset.n_items, dataset.n_values, config)
    if mu_mode.kind == "fixed":
        if mu_mode.mu is None or mu_mode.mu.shape != (dataset.n_values,):
            raise ConfigurationError(
                f"fixed mu must have {dataset.n_values} entries")
        cptv = CptvParams(mu=mu_mode.mu)
        learn = False
    elif mu_mode.kind == "learn":
        if mu_mode.xi1 is None or mu_mode.xi1.shape != (dataset.n_values,):
            raise ConfigurationError(
                f"mu prior must have {dataset.n_values} entries per side")
        rng = np.random.default_rng([config.seed, 1])
        cptv = CptvParams(mu=rng.beta(mu_mode.xi1, mu_mode.xi0),
                          xi1=mu_mode.xi1, xi0=mu_mode.xi0)
        learn = True
    else:
        raise ConfigurationError(f"unknown mu mode {mu_mode.kind!r}")

    (params, cptv), q, trace, converged = _run_em(
        (params, cptv),
        lambda s: _log_weights_nmar(*s, dataset),
        lambda s, q: m_step_nmar(*s, dataset, q, learn_mu=learn),
        lambda s, log_z: _objective_nmar(*s, log_z),
        config)
    return FitResult(params=params, cptv=cptv, mu_mode=mu_mode.kind,
                     log_posterior_trace=trace, converged=converged,
                     iterations=len(trace),
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

    V = train.n_values
    if heldout.n_values != V:
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

    probe_freq = (heldout.value_counts() + 1.0) / (heldout.n_obs + V)
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
    if mu_hat.ndim != 1 or ((mu_hat <= 0) | (mu_hat >= 1)).any():
        raise ConfigurationError("mu_hat must be a 1-d vector inside (0, 1)")
    if strength <= 0:
        raise ConfigurationError(f"strength must be > 0, got {strength}")
    xi1 = strength * mu_hat
    xi0 = strength * (1.0 - mu_hat)
    if (xi1 <= 1).any() or (xi0 <= 1).any():
        needed = 1.0 / min(mu_hat.min(), (1.0 - mu_hat).min())
        raise ConfigurationError(
            f"strength {strength:g} leaves some prior count <= 1;"
            f" need strength > {needed:.6g}")
    return xi1, xi0

"""Mixture fitting under value-dependent missingness.

The observation model attaches to each rating value v a probability
mu[v-1] that an entry holding v is actually observed. Fitting then has
to explain both the observed values and the observation pattern itself:
a user's evidence multiplies, over every item, either
mu[x] * beta[x, m, z] (entry observed with value x) or
sum_v (1 - mu[v]) * beta[v, m, z] (entry hidden). The EM path in
`mixture`, shared with the value-blind fit, keeps everything in log
domain per user and reduces the per-hidden-cell terms to one (item,
component) table, so cost stays proportional to the number of observed
entries. This module holds the observation model, its estimation and
priors, the attribution of hidden entries and the public wrappers.

mu can be held fixed or learned; learning places a Beta(xi1, xi0) prior
on each mu[v] and both raise the same joint objective monotonically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analysis import smoothed_distribution
from .data import RatingDataset
from .errors import ConfigurationError, EstimationError
from .mixture import (FitConfig, FitResult, MixtureParams, _e_step,
                      _expected_counts, _fit, _log_weights, _logsumexp,
                      _m_step, _objective, _only)

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


class _MuStack(CptvParams):
    """A stack's mu, fixed or learned, one row per fit, shape (S, V), clamped as a
    CptvParams mu is but not checked, so a NaN row fails its own fit at the objective."""

    def __post_init__(self):
        self.mu = np.clip(np.asarray(self.mu, dtype=float), MU_EPS, 1.0 - MU_EPS)

    def take(self, rows):
        """The mu of the fits at ``rows`` (an index, or a list); a CptvParams for one fit."""
        mu = self.mu[rows]
        return replace(self, mu=mu) if mu.ndim == 2 else CptvParams(mu, self.xi1, self.xi0)


def check_mu_length(mu, n_values: int) -> None:
    """ConfigurationError unless ``mu`` has one entry per rating value."""
    if np.shape(mu) != (n_values,):
        raise ConfigurationError(f"mu must have one entry per rating value"
                                 f" ({n_values}), got shape {np.shape(mu)}")


def e_step_nmar(params: MixtureParams, cptv: CptvParams,
                dataset: RatingDataset) -> np.ndarray:
    """Posterior component responsibilities, shape (N, K); rows sum to 1."""
    return _e_step(params, dataset, cptv)[0]


def log_evidence_nmar(params: MixtureParams, cptv: CptvParams,
                      dataset: RatingDataset) -> np.ndarray:
    """Per-user log probability of observed values and response pattern,
    shape (N,)."""
    return _logsumexp(_log_weights(params, dataset, cptv))


def m_step_nmar(params: MixtureParams, cptv: CptvParams, dataset: RatingDataset,
                q: np.ndarray, learn_mu: bool = False):
    """Maximise the smoothed expected complete-data objective.

    Returns (params, cptv) with theta and beta always updated; mu is
    re-estimated exactly when cptv carries its Beta prior, which
    ``learn_mu`` must state.
    """
    if learn_mu != (cptv.xi1 is not None):
        raise ConfigurationError("learn_mu must be True exactly when cptv carries mu's prior")
    return _m_step(params, dataset, q, cptv)


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
    by_value = _expected_counts(params, dataset, q, cptv)[1].sum(axis=(1, 2))
    return by_value / by_value.sum()


def log_posterior_nmar(params: MixtureParams, cptv: CptvParams,
                       dataset: RatingDataset) -> float:
    """Log of (evidence x priors); includes the Beta term for mu only
    when cptv carries a prior."""
    return float(_objective(params, log_evidence_nmar(params, cptv, dataset), cptv))


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
        With cptv, holding the prior's xi1/xi0 when mu was learned.
    """
    check_mu_length(mu, dataset.n_values)
    return _only(_fit(dataset, config, [config.seed], start_cptv(mu, strength, [config.seed])))


def start_cptv(mu, strength: float | None, seeds) -> _MuStack:
    """The mu stack a stack of fits of ``seeds`` starts from: the checked ``mu`` held
    fixed for each seed or, with a ``strength``, learned from a draw of its prior per seed."""
    if strength is None:
        return _MuStack(mu=[CptvParams(mu=mu).mu] * len(seeds))
    xi1, xi0 = build_mu_prior(mu, strength)
    return _MuStack(mu=[np.random.default_rng([seed, 1]).beta(xi1, xi0) for seed in seeds],
                    xi1=xi1, xi0=xi0)


def estimate_mu_heldout(train: RatingDataset, heldout: RatingDataset,
                        exposure) -> np.ndarray:
    """Estimate per-value observation probabilities from a random probe.

    The probe (``heldout``) samples cells without regard to their
    values, so its value frequencies estimate the underlying rating
    distribution; the self-selected ``train`` counts, divided by the
    number of cells each user could have contributed (``exposure``, the
    same for every user), estimate the joint rate of holding-and-showing
    each value. Their ratio estimates mu. Frequencies from the probe are
    add-one smoothed, and the result is clamped inside (0, 1); a
    per-value rate exceeding its probe frequency triggers a warning
    since the ratio is then no longer a probability.
    """
    if heldout.n_values != train.n_values:
        raise ConfigurationError("train and heldout disagree on n_values")
    if heldout.n_obs == 0:
        raise EstimationError("heldout probe is empty")
    if train.n_obs == 0:
        raise EstimationError("self-selected training data is empty")
    if not 0 < float(exposure) < np.inf:
        raise ConfigurationError(f"exposure must be finite and > 0, got {exposure}")
    total_exposure = float(exposure) * train.n_users
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

"""Multinomial mixture over discrete ratings, fit by MAP EM.

Each user draws a latent component z with probability theta[z]; given z,
the rating of item m is drawn from the multinomial beta[:, m, z] over the
values 1..V. Without an observation model, missing entries are ignored,
which is the correct treatment only when missingness does not depend on
the rating values themselves. The private E/M/objective/EM path below
also takes an optional observation model (`cptv.CptvParams`, read by its
mu/xi1/xi0 attributes), which adds one factor per cell to each user's
evidence. Dirichlet smoothing on theta and beta keeps every estimate
strictly interior, and the objective maximised is the log of
(likelihood x priors).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import RatingDataset, _scipy
from .errors import ConfigurationError, EstimationError

# Relative convergence test uses max(|L|, _TINY) to survive L == 0.
_TINY = 1e-300


@dataclass
class MixtureParams:
    """Mixture parameters plus the smoothing they were fit under.

    Attributes
    ----------
    theta : ndarray, shape (K,)
        Component weights, a simplex.
    beta : ndarray, shape (V, M, K)
        Per item and component rating distributions; each beta[:, m, z]
        is a simplex over values 1..V.
    alpha : float, optional
        Symmetric Dirichlet smoothing on theta, > 1. None on parameters
        that were not produced by a smoothed fit (e.g. ground truth).
    phi : float, optional
        Symmetric Dirichlet smoothing on each rating distribution, > 1.
    """

    theta: np.ndarray
    beta: np.ndarray
    alpha: float | None = None
    phi: float | None = None

    @property
    def n_components(self) -> int:
        return self.theta.shape[0]

    @property
    def n_items(self) -> int:
        return self.beta.shape[1]

    @property
    def n_values(self) -> int:
        return self.beta.shape[0]


@dataclass
class FitConfig:
    """Settings for one EM run."""

    n_components: int
    alpha: float = 2.0
    phi: float = 2.0
    max_iters: int = 1000
    rel_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if not self.n_components >= 1:
            raise ConfigurationError(f"n_components must be >= 1, got {self.n_components}")
        if not (1.0 < self.alpha < np.inf and 1.0 < self.phi < np.inf):
            raise ConfigurationError(
                "alpha and phi must be finite and > 1 so maximum-posterior"
                f" updates stay interior, got alpha={self.alpha}, phi={self.phi}")
        if not self.max_iters >= 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 <= self.rel_tol < np.inf:
            raise ConfigurationError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if not self.seed >= 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FitResult:
    """Outcome of an EM run.

    log_posterior_trace[t] is the objective after M-step t+1, so the
    trace is non-decreasing up to round-off; q holds the (N, K) component
    responsibilities under the final parameters. With a missingness
    component, `cptv` is set (with xi1/xi0 when mu was learned), and
    the module function `cptv.missing_value_attribution(params, cptv,
    dataset, q)` gives the share of the hidden entries it puts on each value.
    """

    params: MixtureParams
    log_posterior_trace: np.ndarray
    converged: bool
    iterations: int
    q: np.ndarray
    cptv: object = None


def init_params(n_items: int, n_values: int, config: FitConfig) -> MixtureParams:
    """Draw starting parameters from their smoothing Dirichlets."""
    if n_items < 1 or n_values < 1:
        raise ConfigurationError(
            f"need n_items >= 1 and n_values >= 1, got {n_items}, {n_values}")
    rng = np.random.default_rng(config.seed)
    K = config.n_components
    theta = rng.dirichlet(np.full(K, config.alpha))
    beta = rng.dirichlet(np.full(n_values, config.phi), size=(n_items, K))
    beta = np.ascontiguousarray(beta.transpose(2, 0, 1))
    return MixtureParams(theta=theta, beta=beta, alpha=float(config.alpha),
                         phi=float(config.phi))


def _hidden_cell_table(params: MixtureParams, cptv):
    """gamma0[m, z] = sum_v (1 - mu[v]) * beta[v, m, z], shape (M, K), and its new terms."""
    terms = (1.0 - cptv.mu)[:, None, None] * params.beta
    return terms.sum(axis=0), terms


def _log_weights(params: MixtureParams, dataset: RatingDataset,
                 cptv=None) -> np.ndarray:
    """Unnormalised per-user log component weights, shape (N, K).

    Row i holds log theta_z + sum over observed items of
    log beta[x, m, z]. With an observation model ``cptv``, every user
    starts from the all-hidden row sum of log gamma0 instead, and each
    observed entry swaps its hidden-cell term for
    log mu[x] + log beta[x, m, z].
    """
    with np.errstate(divide="ignore"):
        base = np.log(params.theta)
        if cptv is None:
            return base + dataset.gather(np.log(params.beta))
        # the hidden-cell table first, so its terms are gone before log beta exists
        log_gamma0 = np.log(_hidden_cell_table(params, cptv)[0])
        log_beta = np.log(params.beta)
        log_beta += np.log(cptv.mu)[:, None, None]  # in place: log mu[x] + log beta - log gamma0
        log_beta -= log_gamma0
    return base + log_gamma0.sum(axis=0) + dataset.gather(log_beta)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(a, axis=1) for real ``a``, bit for bit: each
    row's maxima leave the sum of exponentials and return as log(count)."""
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(a - a_max)
        # Zeroing the maxima also clears the NaN an infinite maximum leaves
        # (inf - inf), where scipy sums exp(a) directly to the same -inf or inf.
        np.putmask(e, is_max, 0.0)
        s = e.sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        return (np.log1p(s) + np.log(m) + a_max).ravel()


def _e_step(params: MixtureParams, dataset: RatingDataset, cptv=None):
    """Responsibilities q, shape (N, K) with rows summing to 1, and the
    per-user log normalisers log_z, shape (N,)."""
    log_w = _log_weights(params, dataset, cptv)
    log_z = _logsumexp(log_w)
    return np.exp(log_w - log_z[:, None]), log_z


def _expected_counts(params: MixtureParams, dataset: RatingDataset,
                     q: np.ndarray, cptv=None):
    """Expected (V, M, K) rating counts: (observed,) or, with ``cptv``,
    (observed, hidden).

    observed is the responsibility scatter of the observed entries; hidden
    spreads the responsibility mass of users whose (i, m) cell is hidden
    over the values as a hidden rating at (m, z) is.
    """
    observed = dataset.scatter(q)
    if cptv is None:
        return (observed,)
    gamma0, hidden = _hidden_cell_table(params, cptv)
    hidden /= gamma0  # in place: each value's share of a hidden cell
    hidden *= np.maximum(q.sum(axis=0) - observed.sum(axis=0), 0.0)
    return observed, hidden


def _m_step(params: MixtureParams, dataset: RatingDataset, q: np.ndarray, cptv=None):
    """Maximise the smoothed expected complete-data objective.

    Returns (params, cptv). theta and beta are always updated, each
    denominator the sum of its own numerators so both simplex constraints
    hold exactly; mu is re-estimated exactly when cptv carries its prior.
    """
    if params.alpha is None or params.phi is None:
        raise ConfigurationError("maximum-posterior updates need smoothing")
    counts = _expected_counts(params, dataset, q, cptv)
    theta_num = params.alpha - 1.0 + q.sum(axis=0)
    beta = counts[0]  # the scatter's own output, smoothed, summed and normalised in place
    for addend in (params.phi - 1.0, *counts[1:]):
        beta += addend
    beta /= beta.sum(axis=0, keepdims=True)
    new = MixtureParams(theta=theta_num / theta_num.sum(), beta=beta,
                        alpha=params.alpha, phi=params.phi)
    if cptv is None or cptv.xi1 is None:
        return new, cptv
    observed_v = dataset.value_counts()
    mu_num = cptv.xi1 - 1.0 + observed_v
    mu = mu_num / (cptv.xi1 + cptv.xi0 - 2.0 + observed_v + counts[1].sum(axis=(1, 2)))
    return new, replace(cptv, mu=mu)


def _objective(params: MixtureParams, log_z: np.ndarray, cptv=None) -> float:
    """The per-user log normalisers ``log_z`` summed, plus the log density
    of theta and every beta[:, m, z] under their smoothing and, when
    ``cptv`` carries a prior, of mu under its Beta(xi1, xi0)."""
    if params.alpha is None or params.phi is None:
        raise ConfigurationError("log posterior needs smoothing")
    gammaln = _scipy("special", "_special_ufuncs").gammaln
    K, V = params.n_components, params.n_values
    with np.errstate(divide="ignore"):
        log_theta = np.log(params.theta)
        log_beta = np.log(params.beta)
    log_beta *= params.phi - 1.0  # in place, the same product
    lp = (gammaln(K * params.alpha) - K * gammaln(params.alpha)
          + ((params.alpha - 1.0) * log_theta).sum())
    lp += (gammaln(V * params.phi) - V * gammaln(params.phi)
           + log_beta.sum(axis=0)).sum()
    total = float(log_z.sum()) + float(lp)
    if cptv is not None and cptv.xi1 is not None:
        xi1, xi0 = cptv.xi1, cptv.xi0
        total += float((gammaln(xi1 + xi0) - gammaln(xi1) - gammaln(xi0)
                        + (xi1 - 1.0) * np.log(cptv.mu)
                        + (xi0 - 1.0) * np.log1p(-cptv.mu)).sum())
    return total


@np.errstate(over="ignore", invalid="ignore")
def _fit(dataset: RatingDataset, config: FitConfig, cptv=None) -> FitResult:
    """MAP EM from `init_params`, for both families.

    With an observation model ``cptv`` its mu is held fixed, or learned
    when cptv carries its Beta prior (xi1/xi0). Iterates M then E until
    the relative objective change falls below ``config.rel_tol`` or
    ``config.max_iters`` runs out. A non-finite objective raises
    EstimationError in place of the overflow warnings behind it.
    """
    params = init_params(dataset.n_items, dataset.n_values, config)
    q, _ = _e_step(params, dataset, cptv)
    trace = []
    converged = False
    for _ in range(config.max_iters):
        params, cptv = _m_step(params, dataset, q, cptv)
        q, log_z = _e_step(params, dataset, cptv)
        trace.append(_objective(params, log_z, cptv))
        if not np.isfinite(trace[-1]):
            raise EstimationError(f"log posterior is {trace[-1]} after EM iteration"
                                  f" {len(trace)}; a smoothing or prior count is too large")
        if len(trace) >= 2 and (abs(trace[-1] - trace[-2]) / max(abs(trace[-1]), _TINY)
                                < config.rel_tol):
            converged = True
            break
    return FitResult(params=params, log_posterior_trace=np.array(trace),
                     converged=converged, iterations=len(trace), q=q, cptv=cptv)


def e_step_mar(params: MixtureParams, dataset: RatingDataset) -> np.ndarray:
    """Posterior component responsibilities, shape (N, K); rows sum to 1."""
    return _e_step(params, dataset)[0]


def m_step_mar(params: MixtureParams, dataset: RatingDataset,
               q: np.ndarray) -> MixtureParams:
    """Maximise the smoothed expected complete-data objective."""
    return _m_step(params, dataset, q)[0]


def log_posterior_mar(params: MixtureParams, dataset: RatingDataset) -> float:
    """Log of (observed-data likelihood x smoothing priors), up to the
    normalising constant of the data."""
    return _objective(params, _logsumexp(_log_weights(params, dataset)))


def fit_mar(dataset: RatingDataset, config: FitConfig) -> FitResult:
    """Fit the mixture to the observed entries by MAP EM.

    Returns a FitResult with the objective evaluated after every update;
    the run stops once the relative change falls below ``config.rel_tol``.
    """
    return _fit(dataset, config)

"""Multinomial mixture over discrete ratings, fit by MAP EM.

Each user draws a latent component z with probability theta[z]; given z,
the rating of item m is drawn from the multinomial beta[:, m, z] over the
values 1..V. Missing entries are ignored by the fitting routines here,
which is the correct treatment only when missingness does not depend on
the rating values themselves. Dirichlet smoothing on theta and beta keeps
every estimate strictly interior, and the objective maximised is the log
of (likelihood x priors).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _log_weights_mar(params: MixtureParams,
                     dataset: RatingDataset) -> np.ndarray:
    """Unnormalised per-user log component weights, shape (N, K).

    Row i holds log theta_z + sum over observed items of
    log beta[x, m, z].
    """
    with np.errstate(divide="ignore"):
        log_theta = np.log(params.theta)
        log_beta = np.log(params.beta)
    return log_theta + dataset.gather(log_beta)


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


def _normalize_log_weights(log_w: np.ndarray):
    log_z = _logsumexp(log_w)
    q = np.exp(log_w - log_z[:, None])
    return q, log_z


def e_step_mar(params: MixtureParams, dataset: RatingDataset) -> np.ndarray:
    """Posterior component responsibilities, shape (N, K); rows sum to 1."""
    q, _ = _normalize_log_weights(_log_weights_mar(params, dataset))
    return q


def m_step_mar(params: MixtureParams, dataset: RatingDataset,
               q: np.ndarray) -> MixtureParams:
    """Maximise the smoothed expected complete-data objective.

    Both simplex constraints are met exactly because each denominator is
    computed as the sum of its own numerators.
    """
    return _map_update(params, q, dataset.scatter(q))


def _map_update(params: MixtureParams, q: np.ndarray,
                *beta_counts: np.ndarray) -> MixtureParams:
    """MAP theta and beta from responsibilities ``q`` and the expected
    (V, M, K) rating counts, added to phi - 1 in the order given."""
    if params.alpha is None or params.phi is None:
        raise ConfigurationError("maximum-posterior updates need smoothing")
    theta_num = params.alpha - 1.0 + q.sum(axis=0)
    theta = theta_num / theta_num.sum()
    beta_num = sum(beta_counts, params.phi - 1.0)
    beta = beta_num / beta_num.sum(axis=0, keepdims=True)
    return MixtureParams(theta=theta, beta=beta, alpha=params.alpha, phi=params.phi)


def _objective_mar(params: MixtureParams, log_z: np.ndarray) -> float:
    """The per-user log normalisers ``log_z`` summed, plus the log density
    of theta and every beta[:, m, z] under their smoothing."""
    if params.alpha is None or params.phi is None:
        raise ConfigurationError("log posterior needs smoothing")
    gammaln = _scipy("special", "_special_ufuncs").gammaln
    K, V = params.n_components, params.n_values
    with np.errstate(divide="ignore"):
        log_theta = np.log(params.theta)
        log_beta = np.log(params.beta)
    lp = (gammaln(K * params.alpha) - K * gammaln(params.alpha)
          + ((params.alpha - 1.0) * log_theta).sum())
    lp += (gammaln(V * params.phi) - V * gammaln(params.phi)
           + ((params.phi - 1.0) * log_beta).sum(axis=0)).sum()
    return float(log_z.sum()) + float(lp)


def log_posterior_mar(params: MixtureParams, dataset: RatingDataset) -> float:
    """Log of (observed-data likelihood x smoothing priors), up to the
    normalising constant of the data."""
    return _objective_mar(params, _logsumexp(_log_weights_mar(params, dataset)))


@np.errstate(over="ignore", invalid="ignore")
def _run_em(state, log_weights, m_step, objective, config: FitConfig):
    """The EM loop shared by every model family.

    ``state`` holds the current parameters; ``log_weights(state)`` gives
    unnormalised per-user log component weights, ``m_step(state, q)``
    the next state, and ``objective(state, log_z)`` the log posterior
    from the per-user log normalisers. Iterates M then E until the
    relative objective change falls below ``config.rel_tol`` or
    ``config.max_iters`` runs out. A non-finite objective raises
    EstimationError in place of the overflow warnings behind it.

    Returns (state, q, trace, converged) with q the responsibilities
    under the final state and trace[t] the objective after M-step t+1.
    """
    q, _ = _normalize_log_weights(log_weights(state))
    trace = []
    converged = False
    for _ in range(config.max_iters):
        state = m_step(state, q)
        q, log_z = _normalize_log_weights(log_weights(state))
        trace.append(objective(state, log_z))
        if not np.isfinite(trace[-1]):
            raise EstimationError(f"log posterior is {trace[-1]} after EM iteration"
                                  f" {len(trace)}; a smoothing or prior count is too large")
        if len(trace) >= 2 and (abs(trace[-1] - trace[-2]) / max(abs(trace[-1]), _TINY)
                                < config.rel_tol):
            converged = True
            break
    return state, q, np.array(trace), converged


def fit_mar(dataset: RatingDataset, config: FitConfig) -> FitResult:
    """Fit the mixture to the observed entries by MAP EM.

    Parameters
    ----------
    dataset : RatingDataset
    config : FitConfig

    Returns
    -------
    FitResult
        With the objective evaluated after every update; the run stops
        once the relative change falls below ``config.rel_tol``.
    """
    params, q, trace, converged = _run_em(
        init_params(dataset.n_items, dataset.n_values, config),
        lambda p: _log_weights_mar(p, dataset),
        lambda p, q: m_step_mar(p, dataset, q),
        _objective_mar,
        config)
    return FitResult(params=params, log_posterior_trace=trace,
                     converged=converged, iterations=len(trace), q=q)

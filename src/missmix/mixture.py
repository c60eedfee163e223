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
It also fits a stack of S seeds at once, with theta (S, K), beta (S, V, M,
K), q (S, N, K) and mu (S, V); every reduction runs over negative
axes, so each fit of a stack sees a single fit's memory layout and bits.
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
        return self.theta.shape[-1]

    @property
    def n_items(self) -> int:
        return self.beta.shape[-2]

    @property
    def n_values(self) -> int:
        return self.beta.shape[-3]


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
    terms = (1.0 - cptv.mu)[..., None, None] * params.beta
    return terms.sum(axis=-3), terms


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
            return base[..., None, :] + dataset.gather(np.log(params.beta))
        # the hidden-cell table first, so its terms are gone before log beta exists
        log_gamma0 = np.log(_hidden_cell_table(params, cptv)[0])
        log_beta = np.log(params.beta)
        log_beta += np.log(cptv.mu)[..., None, None]  # in place: log mu[x] + log beta - log gamma0
        log_beta -= log_gamma0[..., None, :, :]
    return (base + log_gamma0.sum(axis=-2))[..., None, :] + dataset.gather(log_beta)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(a, axis=-1) for real ``a``, bit for bit: each
    row's maxima leave the sum of exponentials and return as log(count).
    The max and the count, exact in any order, run down a contiguous (K, rows)
    copy. So does the float sum below K = 8, where numpy sums a row left to
    right; from K = 8 on it keeps numpy's pairwise order along each row."""
    cols = a.reshape(-1, a.shape[-1]).T.copy()
    a_max = cols.max(axis=0)
    is_max = cols == a_max
    m = is_max.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cols -= a_max
        e = np.exp(cols, out=cols)
        # Zeroing the maxima also clears the NaN an infinite maximum leaves
        # (inf - inf), where scipy sums exp(a) directly to the same -inf or inf.
        np.putmask(e, is_max, 0.0)
        s = e.sum(axis=0) if len(e) < 8 else np.ascontiguousarray(e.T).sum(axis=1)
        s = np.where(s == 0, s, s / m)
        return (np.log1p(s) + np.log(m) + a_max).reshape(a.shape[:-1])


def _e_step(params: MixtureParams, dataset: RatingDataset, cptv=None):
    """Responsibilities q, shape (N, K) with rows summing to 1, and the
    per-user log normalisers log_z, shape (N,); (S, N, K) and (S, N) for a stack."""
    log_w = _log_weights(params, dataset, cptv)
    log_z = _logsumexp(log_w)
    return np.exp(log_w - log_z[..., None]), log_z


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
    hidden /= gamma0[..., None, :, :]  # in place: each value's share of a hidden cell
    hidden *= np.maximum(q.sum(axis=-2)[..., None, :] - observed.sum(axis=-3),
                         0.0)[..., None, :, :]
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
    theta_num = params.alpha - 1.0 + q.sum(axis=-2)
    beta = counts[0]  # the scatter's own output, smoothed, summed and normalised in place
    for addend in (params.phi - 1.0, *counts[1:]):
        beta += addend
    beta /= beta.sum(axis=-3, keepdims=True)
    new = MixtureParams(theta=theta_num / theta_num.sum(axis=-1, keepdims=True), beta=beta,
                        alpha=params.alpha, phi=params.phi)
    if cptv is None or cptv.xi1 is None:
        return new, cptv
    observed_v = dataset.value_counts()
    mu_num = cptv.xi1 - 1.0 + observed_v
    mu = mu_num / (cptv.xi1 + cptv.xi0 - 2.0 + observed_v + counts[1].sum(axis=(-2, -1)))
    return new, replace(cptv, mu=mu)


def _objective(params: MixtureParams, log_z: np.ndarray, cptv=None) -> np.ndarray:
    """The per-user log normalisers ``log_z`` summed, plus the log density
    of theta and every beta[:, m, z] under their smoothing and, when
    ``cptv`` carries a prior, of mu under its Beta(xi1, xi0): a float64, or
    one per fit of a stack, shape (S,)."""
    if params.alpha is None or params.phi is None:
        raise ConfigurationError("log posterior needs smoothing")
    gammaln = _scipy("special", "_special_ufuncs").gammaln
    K, V = params.n_components, params.n_values
    with np.errstate(divide="ignore"):
        log_theta = np.log(params.theta)
        log_beta = np.log(params.beta)
    log_beta *= params.phi - 1.0  # in place, the same product
    lp = (gammaln(K * params.alpha) - K * gammaln(params.alpha)
          + ((params.alpha - 1.0) * log_theta).sum(axis=-1))
    lp += (gammaln(V * params.phi) - V * gammaln(params.phi)
           + log_beta.sum(axis=-3)).sum(axis=(-2, -1))
    total = log_z.sum(axis=-1) + lp
    if cptv is not None and cptv.xi1 is not None:
        xi1, xi0 = cptv.xi1, cptv.xi0
        total += (gammaln(xi1 + xi0) - gammaln(xi1) - gammaln(xi0)
                  + (xi1 - 1.0) * np.log(cptv.mu)
                  + (xi0 - 1.0) * np.log1p(-cptv.mu)).sum(axis=-1)
    return total


def _take(rows, params: MixtureParams, q: np.ndarray, cptv):
    """Params, q and observation model of the fits at ``rows`` (an index, or a list) of a stack."""
    return (replace(params, theta=params.theta[rows], beta=params.beta[rows]), q[rows],
            None if cptv is None else cptv.take(rows))


@np.errstate(over="ignore", invalid="ignore")
def _fit(dataset: RatingDataset, config: FitConfig, seeds, cptv=None) -> list:
    """MAP EM from `init_params`, for both families, of ``config`` under each of
    ``seeds`` as one stack: each fit's FitResult, or the EstimationError that ended it.

    With a `cptv.start_cptv` mu stack ``cptv``, mu is held fixed, or learned when cptv
    carries its Beta prior (xi1/xi0). A fit leaves the stack once its relative objective
    change falls below ``rel_tol`` or ``max_iters`` runs out, or with an EstimationError,
    in place of the overflow warnings behind it, once its objective turns non-finite.
    """
    params = [init_params(dataset.n_items, dataset.n_values, replace(config, seed=seed))
              for seed in seeds]
    params = replace(params[0], theta=np.stack([p.theta for p in params]),
                     beta=np.stack([p.beta for p in params]))
    rel_tol, max_iters = config.rel_tol, config.max_iters
    q, _ = _e_step(params, dataset, cptv)
    fits, traces, results = list(range(len(seeds))), [[] for _ in seeds], {}
    while fits:
        params, cptv = _m_step(params, dataset, q, cptv)
        q, log_z = _e_step(params, dataset, cptv)
        for row, (fit, value) in enumerate(zip(fits, _objective(params, log_z, cptv).tolist())):
            trace = traces[fit]
            trace.append(value)
            converged = len(trace) >= 2 and (abs(value - trace[-2]) / max(abs(value), _TINY)
                                             < rel_tol)
            if not np.isfinite(value):
                results[fit] = EstimationError(f"log posterior is {value} after EM iteration"
                                               f" {len(trace)}; a smoothing or prior count"
                                               " is too large")
            elif converged or len(trace) == max_iters:
                fit_params, fit_q, fit_cptv = _take(row, params, q, cptv)
                results[fit] = FitResult(fit_params, np.array(trace), converged, len(trace),
                                         fit_q, fit_cptv)
        stay = [row for row, fit in enumerate(fits) if fit not in results]
        if len(stay) < len(fits):
            fits = [fits[row] for row in stay]
            params, q, cptv = _take(stay, params, q, cptv)
    return [results[fit] for fit in range(len(seeds))]


def _only(results):
    """The one result of a stack of one fit, or its EstimationError raised."""
    if isinstance(results[0], EstimationError):
        raise results[0]
    return results[0]


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
    return float(_objective(params, _logsumexp(_log_weights(params, dataset))))


def fit_mar(dataset: RatingDataset, config: FitConfig) -> FitResult:
    """Fit the mixture to the observed entries by MAP EM.

    Returns a FitResult with the objective evaluated after every update;
    the run stops once the relative change falls below ``config.rel_tol``.
    """
    return _only(_fit(dataset, config, [config.seed]))

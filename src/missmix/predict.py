"""Rating prediction from fitted mixtures and error measurement.

Predictions are made per (user, item) pair: the user's component
posterior (from their training row) mixes the item's per-component
rating distributions, and the reported rating is the median of that
mixture, which is the Bayes-optimal point prediction under absolute
error.
"""

from __future__ import annotations

import numpy as np

from .cptv import CptvParams
from .data import RatingDataset
from .errors import EstimationError, EvaluationError
from .mixture import MixtureParams, _e_step

# Pairs x V x K cells per einsum operand: 512 KB of float64, inside a core's L2 cache.
BLOCK_CELLS = 2**16


def _pair_blocks(params: MixtureParams, q: np.ndarray, users, items):
    """(rows, beta rows of shape (n, V, K), q rows) for each block of about
    BLOCK_CELLS / (V K) pairs, gathered from one (M, V, K) copy of beta."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    by_item = np.ascontiguousarray(params.beta.transpose(1, 0, 2))
    step = max(1, BLOCK_CELLS // (params.n_values * params.n_components))
    for start in range(0, len(users), step):
        rows = slice(start, start + step)
        yield rows, by_item.take(items[rows], axis=0), q.take(users[rows], axis=0)


def posterior_z(params: MixtureParams, dataset: RatingDataset,
                cptv: CptvParams | None = None) -> np.ndarray:
    """Per-user component posteriors, shape (N, K).

    With ``cptv`` the posterior conditions on the full response pattern
    (which cells are hidden carries information); without it, only on
    the observed values. A user of zero probability raises EstimationError,
    a model that does not cover the data's items and values ConfigurationError.
    """
    with np.errstate(invalid="ignore"):
        q, _ = _e_step(params, dataset, cptv)
    lost = np.flatnonzero(np.isnan(q).any(axis=1))
    if len(lost):
        raise EstimationError(f"user {lost[0]} has probability zero under every"
                              " model component")
    return q


def predictive_distribution(params: MixtureParams, q: np.ndarray,
                            users, items) -> np.ndarray:
    """Predicted rating distribution for each (user, item) pair.

    Returns shape (n_pairs, V); row j is sum_z q[users[j], z] *
    beta[:, items[j], z].
    """
    out = np.empty((len(users), params.n_values))
    for rows, beta_rows, q_rows in _pair_blocks(params, q, users, items):
        np.einsum("nvk,nk->nv", beta_rows, q_rows, out=out[rows])
    return out


def predicted_medians(params: MixtureParams, q: np.ndarray, users, items) -> np.ndarray:
    """`predict_median` of each pair's `predictive_distribution`, one block
    of pairs at a time, so no (pairs, V) table exists."""
    out = np.empty(len(users), dtype=np.int64)
    for rows, beta_rows, q_rows in _pair_blocks(params, q, users, items):
        out[rows] = predict_median(np.einsum("nvk,nk->nv", beta_rows, q_rows))
    return out


def predict_median(dist: np.ndarray) -> np.ndarray:
    """Smallest value whose cumulative probability reaches one half.

    ``dist`` has one distribution over values 1..V per row; returns an
    int array of predictions, 1 for a row that never reaches one half. The
    running sum takes one column at a time, with ``np.cumsum``'s bits; the
    median is V less the number of earlier columns at or past the crossing.
    """
    dist = np.atleast_2d(dist)
    cdf = dist[:, 0].astype(np.cumsum(dist[:0]).dtype)  # cumsum's accumulator
    reached = cdf >= 0.5
    past = np.zeros(len(dist), dtype=np.int64)
    for value in range(1, dist.shape[1]):
        past += reached
        cdf += dist[:, value]
        reached |= cdf >= 0.5
    return np.where(reached, dist.shape[1] - past, 1)


def mae(predicted, actual) -> float:
    """Mean absolute error between two rating vectors."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise EvaluationError(
            f"shape mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise EvaluationError("cannot average over zero predictions")
    return float(np.abs(predicted - actual).mean())


def empirical_median_value(dataset: RatingDataset) -> int:
    """Smallest rating value at which the observed CDF reaches one half."""
    counts = dataset.value_counts()
    if counts.sum() == 0:
        raise EvaluationError("dataset has no observations")
    cdf = np.cumsum(counts) / counts.sum()
    return int(np.argmax(cdf >= 0.5)) + 1

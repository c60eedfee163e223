"""Rating prediction from fitted mixtures and error measurement.

Predictions are made per (user, item) pair: the user's component
posterior (from their training row) mixes the item's per-component
rating distributions, and the reported rating is the median of that
mixture, which is the Bayes-optimal point prediction under absolute
error.
"""

from __future__ import annotations

import numpy as np

from .cptv import CptvParams, e_step_nmar
from .data import RatingDataset
from .errors import EstimationError, EvaluationError
from .mixture import MixtureParams, e_step_mar

# Pairs per einsum call, so its V x pairs x K operand stays a few MB.
PAIR_BLOCK = 2**14


def posterior_z(params: MixtureParams, dataset: RatingDataset,
                cptv: CptvParams | None = None) -> np.ndarray:
    """Per-user component posteriors, shape (N, K).

    With ``cptv`` the posterior conditions on the full response pattern
    (which cells are hidden carries information); without it, only on
    the observed values. A user of zero probability raises EstimationError.
    """
    with np.errstate(invalid="ignore"):
        q = e_step_mar(params, dataset) if cptv is None else e_step_nmar(params, cptv, dataset)
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
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    out = np.empty((len(users), params.beta.shape[0]))
    for start in range(0, len(users), PAIR_BLOCK):
        rows = slice(start, start + PAIR_BLOCK)
        np.einsum("vnk,nk->nv", params.beta[:, items[rows], :], q[users[rows]],
                  out=out[rows])
    return out


def predict_median(dist: np.ndarray) -> np.ndarray:
    """Smallest value whose cumulative probability reaches one half.

    ``dist`` has one distribution over values 1..V per row; returns an
    int array of predictions.
    """
    dist = np.atleast_2d(dist)
    cdf = np.cumsum(dist, axis=1)
    return np.argmax(cdf >= 0.5, axis=1).astype(np.int64) + 1


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

"""Synthetic rating studies with value-dependent missingness.

The generator draws a complete N x M rating table from a multinomial
mixture, then hides entries according to per-value observation
probabilities mu: the rating v is kept with probability mu[v-1],
independently per cell. A uniformly sampled held-out set (chosen without
looking at the values) plays the role of an unbiased probe of the same
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cptv import CptvParams, check_mu_length
from .data import RatingDataset, SplitPair, blocks
from .errors import ConfigurationError, GenerationError
from .mixture import MixtureParams


@dataclass
class GroundTruth:
    """A fully known synthetic population.

    Attributes
    ----------
    params : MixtureParams
        Generating mixture (no smoothing attached).
    mu : ndarray, shape (V,)
        Observation probability of each rating value, in [0, 1].
    z : ndarray, shape (N,)
        Component assignment of each user.
    complete : ndarray, shape (N, M)
        The full rating table, values 1..V.
    """

    params: MixtureParams
    mu: np.ndarray
    z: np.ndarray
    complete: np.ndarray

    @property
    def n_items(self) -> int:
        return self.complete.shape[1]

    @property
    def n_values(self) -> int:
        return self.params.n_values


def sample_ground_truth(n_users: int, n_items: int, n_values: int,
                        n_components: int, mu, seed,
                        concentration: float = 1.0) -> GroundTruth:
    """Draw mixture parameters, assignments, and a complete rating table.

    Component weights and every per-item rating distribution are drawn
    from symmetric Dirichlets with the given concentration. ``mu`` may
    touch 0 or 1; those values make a rating always hidden or always
    kept.
    """
    if min(n_users, n_items, n_values, n_components) < 1:
        raise ConfigurationError("all dimensions must be >= 1")
    if not 0 < concentration <= 1e300:  # larger ones overflow the Dirichlet draws
        raise ConfigurationError(f"need 0 < concentration <= 1e300, got {concentration}")
    mu = np.asarray(mu, dtype=float)
    check_mu_length(mu, n_values)
    CptvParams(mu)  # the same range check as a model's mu

    rng = np.random.default_rng(seed)
    theta = rng.dirichlet(np.full(n_components, concentration))
    beta = rng.dirichlet(np.full(n_values, concentration), size=(n_items, n_components))
    beta = np.ascontiguousarray(beta.transpose(2, 0, 1))
    z = rng.choice(n_components, size=n_users, p=theta)

    # Invert each per-cell CDF at one uniform draw: a rating is 1 plus the
    # number of the first V-1 thresholds that u passes, so it stays in 1..V
    # even where rounding leaves the last CDF value below u.
    thresholds = np.ascontiguousarray(np.cumsum(beta, axis=0)[:-1].transpose(2, 0, 1))
    complete = np.empty((n_users, n_items), np.int16)
    for rows in blocks(n_users, n_items):
        u = rng.random(complete[rows].shape)
        complete[rows] = 1 + (thresholds[z[rows]] < u[:, None]).sum(axis=1, dtype=np.int16)

    params = MixtureParams(theta=theta, beta=beta, alpha=None, phi=None)
    return GroundTruth(params=params, mu=mu, z=z, complete=complete)


def check_split_sizes(n_items: int, per_user_test: int, min_train: int = 0) -> None:
    """ConfigurationError unless ``min_train`` >= 0 and ``per_user_test`` is in
    1..n_items; an n_items below 1 is left to sample_ground_truth's rule."""
    if min_train < 0:
        raise ConfigurationError(f"min_train must be >= 0, got {min_train}")
    if per_user_test < 1 or per_user_test > n_items >= 1:
        raise ConfigurationError(f"per_user_test must be in 1..{n_items}, got {per_user_test}")


def _keep_mask(truth: GroundTruth, seed) -> np.ndarray:
    """Cell (i, m) with rating v is kept with probability truth.mu[v-1]."""
    rng = np.random.default_rng(seed)
    rate = np.concatenate(([0.0], truth.mu))
    keep = np.empty(truth.complete.shape, dtype=bool)
    for rows in blocks(*keep.shape):
        keep[rows] = rng.random(keep[rows].shape) < rate[truth.complete[rows]]
    return keep


def _probe_mask(truth: GroundTruth, per_user: int, seed) -> np.ndarray:
    """The ``per_user`` cells of each row with the smallest uniform keys."""
    rng = np.random.default_rng(seed)
    probe = np.zeros(truth.complete.shape, dtype=bool)
    for rows in blocks(*probe.shape):
        keys = rng.random(probe[rows].shape)
        smallest = np.argpartition(keys, per_user - 1, axis=1)[:, :per_user]
        np.put_along_axis(probe[rows], smallest, True, axis=1)
    return probe


def _observed(complete: np.ndarray, mask: np.ndarray, n_values: int) -> RatingDataset:
    """The cells of ``complete`` under ``mask``, on the table's N x M."""
    users, items = np.divmod(np.flatnonzero(mask), complete.shape[1])
    return RatingDataset.from_arrays(*complete.shape, n_values, users, items,
                                     complete[users, items])


def apply_cptv_missingness(truth: GroundTruth, seed) -> RatingDataset:
    """Hide table entries value-dependently, returning the observed part.

    Cell (i, m) with rating v stays observed with probability truth.mu[v-1].
    """
    return _observed(truth.complete, _keep_mask(truth, seed), truth.n_values)


def sample_mcar_test(truth: GroundTruth, per_user: int, seed) -> RatingDataset:
    """Pick ``per_user`` cells per user uniformly, ignoring their values.

    Items are drawn without replacement within each user, so the
    selection frequency of every item is identical by symmetry.
    """
    check_split_sizes(truth.n_items, per_user)
    return _observed(truth.complete, _probe_mask(truth, per_user, seed), truth.n_values)


def build_study_dataset(truth: GroundTruth, seed, per_user_test: int = 10,
                        min_train: int = 10):
    """Assemble a train/test pair from one ground truth.

    The test set is a uniform probe of ``per_user_test`` cells per user;
    training data is the value-dependently observed remainder, with any
    probed cells removed so the two sets never share a pair. Users left
    with fewer than ``min_train`` training entries are dropped from both
    sides and the survivors re-indexed densely. Both sides are N x M masks,
    drawn as in ``apply_cptv_missingness`` and ``sample_mcar_test``.

    Returns
    -------
    split : SplitPair
    kept_users : ndarray
        Original user index of each retained user.
    """
    check_split_sizes(truth.n_items, per_user_test, min_train)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    seed_missing, seed_test = seed.spawn(2)
    probe = _probe_mask(truth, per_user_test, seed_test)
    train = _keep_mask(truth, seed_missing) & ~probe
    kept = np.flatnonzero(train.sum(axis=1) >= min_train)
    if len(kept) == 0:
        raise GenerationError(f"no users kept at least {min_train} training entries")
    complete = truth.complete
    if len(kept) < len(complete):  # copy the rows only when some user is dropped
        complete, train, probe = complete[kept], train[kept], probe[kept]
    return SplitPair(train=_observed(complete, train, truth.n_values),
                     test=_observed(complete, probe, truth.n_values)), kept

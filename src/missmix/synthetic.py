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
from .data import RatingDataset, SplitPair, min_ratings_filter, remap_users
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
    def n_users(self) -> int:
        return self.complete.shape[0]

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

    # Invert each per-cell CDF at one uniform draw, one value at a time;
    # u < 1 keeps the count of passed thresholds in 0..V-1.
    u = rng.random((n_users, n_items))
    complete = np.ones((n_users, n_items), np.int16)
    for cdf in np.cumsum(beta, axis=0):
        complete += cdf.T[z] < u

    params = MixtureParams(theta=theta, beta=beta, alpha=None, phi=None)
    return GroundTruth(params=params, mu=mu, z=z, complete=complete)


def apply_cptv_missingness(truth: GroundTruth, seed) -> RatingDataset:
    """Hide table entries value-dependently, returning the observed part.

    Cell (i, m) with rating v stays observed with probability truth.mu[v-1].
    """
    rng = np.random.default_rng(seed)
    keep = rng.random(truth.complete.shape) < truth.mu[truth.complete - 1]
    users, items = np.nonzero(keep)
    return RatingDataset.from_arrays(
        truth.n_users, truth.n_items, truth.n_values,
        users, items, truth.complete[keep])


def sample_mcar_test(truth: GroundTruth, per_user: int, seed) -> RatingDataset:
    """Pick ``per_user`` cells per user uniformly, ignoring their values.

    Items are drawn without replacement within each user, so the
    selection frequency of every item is identical by symmetry.
    """
    if not 0 < per_user <= truth.n_items:
        raise ConfigurationError(
            f"per_user must be in 1..{truth.n_items}, got {per_user}")
    rng = np.random.default_rng(seed)
    keys = rng.random((truth.n_users, truth.n_items))
    idx = np.argsort(keys, axis=1)[:, :per_user]
    users = np.repeat(np.arange(truth.n_users), per_user)
    items = idx.ravel()
    values = truth.complete[users, items]
    return RatingDataset.from_arrays(
        truth.n_users, truth.n_items, truth.n_values, users, items, values)


def build_study_dataset(truth: GroundTruth, seed, per_user_test: int = 10,
                        min_train: int = 10):
    """Assemble a train/test pair from one ground truth.

    The test set is a uniform probe of ``per_user_test`` cells per user;
    training data is the value-dependently observed remainder, with any
    probed cells removed so the two sets never share a pair. Users left
    with fewer than ``min_train`` training entries are dropped from both
    sides and the survivors re-indexed densely.

    Returns
    -------
    split : SplitPair
    kept_users : ndarray
        Original user index of each retained user.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    seed_missing, seed_test = seed.spawn(2)
    observed = apply_cptv_missingness(truth, seed_missing)
    test = sample_mcar_test(truth, per_user_test, seed_test)

    in_test = test.find(observed) >= 0
    train = RatingDataset.from_arrays(
        truth.n_users, truth.n_items, truth.n_values,
        observed.users[~in_test], observed.items[~in_test],
        observed.values[~in_test])

    train, kept = min_ratings_filter(train, min_train)
    if len(kept) == 0:
        raise GenerationError(
            f"no users kept at least {min_train} training entries")
    test = remap_users(test, kept)
    return SplitPair(train=train, test=test), kept


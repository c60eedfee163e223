"""Distribution diagnostics for rating datasets.

These helpers quantify how differently ratings are distributed in two
collections over the same items, e.g. self-selected versus randomly
probed entries. Divergences are reported in bits and all empirical
distributions are add-one smoothed so the logs stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RatingDataset
from .errors import EvaluationError


def smoothed_distribution(counts) -> np.ndarray:
    """Add-one smoothed distribution from nonnegative counts."""
    counts = np.asarray(counts, dtype=float)
    return (counts + 1.0) / (counts.sum() + counts.shape[-1])


def skl(p, q) -> float:
    """Symmetrised Kullback-Leibler divergence in bits.

    Both arguments must be strictly positive distributions; smooth
    counts first (`smoothed_distribution`).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise EvaluationError(f"shape mismatch: {p.shape} vs {q.shape}")
    if (p <= 0).any() or (q <= 0).any():
        raise EvaluationError(
            "distributions must be strictly positive; smooth counts first")
    ratio = np.log2(p / q)
    return float((p * ratio).sum() - (q * ratio).sum())


def item_value_counts(dataset: RatingDataset) -> np.ndarray:
    """Per-item value counts, shape (M, V)."""
    counts = np.zeros((dataset.n_items, dataset.n_values), dtype=np.int64)
    np.add.at(counts, (dataset.items, dataset.values - 1), 1)
    return counts


def item_marginals(dataset: RatingDataset) -> np.ndarray:
    """Smoothed per-item rating distributions, shape (M, V).

    Items with no observations come out uniform.
    """
    counts = item_value_counts(dataset).astype(float)
    return (counts + 1.0) / (counts.sum(axis=1, keepdims=True) + dataset.n_values)


@dataclass
class SklReport:
    """Per-item divergence between two rating collections.

    per_item[m] is the symmetrised divergence in bits between the
    smoothed value distributions of item m in the two datasets.
    """

    per_item: np.ndarray
    median: float
    mean: float


def skl_report(a: RatingDataset, b: RatingDataset) -> SklReport:
    """Itemwise symmetrised divergence between two datasets."""
    if a.n_items != b.n_items or a.n_values != b.n_values:
        raise EvaluationError("datasets disagree on items or value range")
    pa = item_marginals(a)
    pb = item_marginals(b)
    ratio = np.log2(pa / pb)
    per_item = (pa * ratio).sum(axis=1) - (pb * ratio).sum(axis=1)
    return SklReport(per_item=per_item, median=float(np.median(per_item)),
                     mean=float(per_item.mean()))


def paired_difference_histogram(a: RatingDataset, b: RatingDataset):
    """Histogram of rating differences on the pairs both datasets share.

    Returns (offsets, counts): offsets runs -(V-1)..(V-1) and counts[j]
    is how many shared (user, item) pairs have value_a - value_b equal
    to offsets[j].
    """
    if (a.n_users != b.n_users or a.n_items != b.n_items
            or a.n_values != b.n_values):
        raise EvaluationError("datasets must share dimensions")
    keys_a = a.pair_keys()
    keys_b = b.pair_keys()
    common, ia, ib = np.intersect1d(keys_a, keys_b, return_indices=True)
    V = a.n_values
    offsets = np.arange(-(V - 1), V)
    diffs = a.values[ia] - b.values[ib]
    counts = np.bincount(diffs + V - 1, minlength=2 * V - 1)
    return offsets, counts

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
    """Add-one smoothed distributions from nonnegative counts along the last axis."""
    counts = np.asarray(counts, dtype=float)
    return (counts + 1.0) / (counts.sum(axis=-1, keepdims=True) + counts.shape[-1])


def skl(p, q):
    """Symmetrised Kullback-Leibler divergence in bits along the last axis.

    Both arguments must be finite, strictly positive distributions;
    smooth counts first (`smoothed_distribution`). Returns a float for
    1-d inputs and one divergence per row otherwise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise EvaluationError(f"shape mismatch: {p.shape} vs {q.shape}")
    if not ((0 < p) & (p < np.inf) & (0 < q) & (q < np.inf)).all():
        raise EvaluationError("distributions must be finite and > 0; smooth counts first")
    ratio = np.log2(p / q)
    return (p * ratio).sum(axis=-1) - (q * ratio).sum(axis=-1)


def item_value_counts(dataset: RatingDataset) -> np.ndarray:
    """Per-item value counts, shape (M, V)."""
    M, V = dataset.n_items, dataset.n_values
    cells = dataset.items.astype(np.int64) * V + dataset.values - 1
    return np.bincount(cells, minlength=M * V).reshape(M, V)


def item_marginals(dataset: RatingDataset) -> np.ndarray:
    """Smoothed per-item rating distributions, shape (M, V).

    Items with no observations come out uniform.
    """
    return smoothed_distribution(item_value_counts(dataset))


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
    """Itemwise symmetrised divergence between two datasets over the same
    items and values, at least one of each; EvaluationError otherwise."""
    if 0 in (a.n_items, a.n_values, b.n_items, b.n_values):
        raise EvaluationError("no items or no rating values to compare")
    per_item = skl(item_marginals(a), item_marginals(b))
    return SklReport(per_item=per_item, median=float(np.median(per_item)),
                     mean=float(per_item.mean()))


def paired_difference_histogram(a: RatingDataset, b: RatingDataset):
    """Histogram of rating differences on the pairs both datasets share.

    Returns (offsets, counts): offsets runs -(V-1)..(V-1) and counts[j]
    is how many shared (user, item) pairs have value_a - value_b equal
    to offsets[j].
    """
    if a.n_values != b.n_values:
        raise EvaluationError("datasets must share the value range")
    rows = a.find(b)
    shared = rows >= 0
    V = a.n_values
    offsets = np.arange(-(V - 1), V)
    diffs = a.values[rows[shared]].astype(np.int64) - b.values[shared]
    counts = np.bincount(diffs + V - 1, minlength=2 * V - 1)
    return offsets, counts

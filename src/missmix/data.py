"""Sparse rating data: construction, validation, CSV I/O, and filtering.

A dataset holds (user, item, value) triples with integer rating values in
1..V. The response indicator structure is implicit: an entry is observed
iff its pair is present. Triples are kept sorted by (user, item) so that
per-user rows come back in item order, and the arrays are frozen after
construction so datasets can be shared freely.

Model code reaches the triples through one sparse operator: the N x V*M
incidence matrix of `RatingDataset.incidence`. Multiplying it with a
(value, item)-indexed table gathers per-user sums; its transpose scatters
per-user rows back into (value, item) cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .errors import ConfigurationError, DataValidationError, ParseError

CSV_HEADER = "user,item,rating"


@dataclass
class RatingDataset:
    """Sparse collection of integer ratings for N users x M items.

    Attributes
    ----------
    n_users, n_items, n_values : int
        Dimensions (N, M, V). Rating values live in 1..V.
    users, items, values : ndarray
        Parallel int arrays sorted by (user, item).
    """

    n_users: int
    n_items: int
    n_values: int
    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    _row_ptr: np.ndarray = field(repr=False, default=None)
    _incidence: csr_array | None = field(repr=False, default=None)

    @classmethod
    def from_arrays(cls, n_users, n_items, n_values, users, items, values,
                    require_unique=True) -> "RatingDataset":
        """Build a dataset from unsorted triple arrays.

        Sorts by (user, item) and freezes the arrays. With
        ``require_unique`` (the default) a repeated (user, item) pair
        raises; pass False to defer duplicate detection to `validate`.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if not (users.shape == items.shape == values.shape):
            raise DataValidationError("users/items/values arrays differ in length")
        order = np.lexsort((items, users))
        users, items, values = users[order], items[order], values[order]
        if require_unique and len(users) > 1:
            same = (np.diff(users) == 0) & (np.diff(items) == 0)
            if same.any():
                i = int(np.flatnonzero(same)[0])
                raise DataValidationError(
                    f"duplicate rating for (user={users[i]}, item={items[i]})")
        return cls(int(n_users), int(n_items), int(n_values), users, items, values)

    def __post_init__(self):
        for arr in (self.users, self.items, self.values):
            arr.flags.writeable = False
        # searchsorted-based row index tolerates even out-of-range user ids,
        # which validate() must be able to report rather than crash on.
        self._row_ptr = np.searchsorted(self.users, np.arange(self.n_users + 1))

    @property
    def n_obs(self) -> int:
        return len(self.values)

    def row(self, user: int):
        """Observed (items, values) of one user, sorted by item index."""
        a, b = self._row_ptr[user], self._row_ptr[user + 1]
        return self.items[a:b], self.values[a:b]

    def row_counts(self) -> np.ndarray:
        """Number of observations per user, shape (N,)."""
        return np.diff(self._row_ptr)

    def incidence(self) -> csr_array:
        """CSR one-hot operator A of shape (N, V*M), built once and cached.

        A[i, (x-1)*M + m] = 1 for each observed (i, m, x), with each row's
        entries in item order. ``A @ table.reshape(V*M, K)`` sums table
        rows over every user's observations, and ``A.T @ q`` sums
        per-user rows into (value, item) cells.

        Raises DataValidationError if any triple lies outside the
        dimensions, since the sparse kernels do not bounds-check.
        """
        if self._incidence is None:
            _require_in_range(self)
            cols = (self.values - 1) * self.n_items + self.items
            self._incidence = csr_array(
                (np.ones(self.n_obs), cols, self._row_ptr),
                shape=(self.n_users, self.n_values * self.n_items))
        return self._incidence

    def value_counts(self) -> np.ndarray:
        """Count of each rating value 1..V, shape (V,)."""
        in_range = (self.values >= 1) & (self.values <= self.n_values)
        return np.bincount(self.values[in_range], minlength=self.n_values + 1)[1:]

    def pair_keys(self) -> np.ndarray:
        """Unique int64 key per (user, item) pair; used for set operations."""
        return self.users * np.int64(self.n_items) + self.items


@dataclass
class SplitPair:
    """A train/test dataset pair over the same (N, M, V) dimensions."""

    train: RatingDataset
    test: RatingDataset

    def violations(self) -> list[str]:
        out = []
        for dim in ("n_users", "n_items", "n_values"):
            if getattr(self.train, dim) != getattr(self.test, dim):
                out.append(f"train/test disagree on {dim}")
        if not out:
            overlap = np.intersect1d(self.train.pair_keys(), self.test.pair_keys())
            if len(overlap):
                key = int(overlap[0])
                out.append("train and test overlap on %d pairs, e.g. (user=%d, item=%d)"
                           % (len(overlap), key // self.train.n_items,
                              key % self.train.n_items))
        return out


def _range_violations(dataset: RatingDataset) -> list[str]:
    """One message per user, item or rating outside the dimensions."""
    out = []
    bad_u = (dataset.users < 0) | (dataset.users >= dataset.n_users)
    bad_m = (dataset.items < 0) | (dataset.items >= dataset.n_items)
    bad_v = (dataset.values < 1) | (dataset.values > dataset.n_values)
    for i in np.flatnonzero(bad_u):
        out.append(f"user index {dataset.users[i]} out of range [0, {dataset.n_users})")
    for i in np.flatnonzero(bad_m):
        out.append(f"item index {dataset.items[i]} out of range [0, {dataset.n_items})")
    for i in np.flatnonzero(bad_v):
        out.append(f"rating {dataset.values[i]} out of range [1, {dataset.n_values}]"
                   f" at (user={dataset.users[i]}, item={dataset.items[i]})")
    return out


def _require_in_range(dataset: RatingDataset) -> None:
    """Raise DataValidationError for the first triple outside the dimensions."""
    problems = _range_violations(dataset)
    if problems:
        raise DataValidationError(problems[0])


def validate(dataset: RatingDataset) -> list[str]:
    """Check dataset invariants, returning one message per violation.

    Violations are returned rather than raised so callers can report all
    of them at once. An empty list means the dataset is well-formed.
    """
    out = _range_violations(dataset)
    if dataset.n_obs > 1:
        same = (np.diff(dataset.users) == 0) & (np.diff(dataset.items) == 0)
        for i in np.flatnonzero(same):
            out.append(f"duplicate rating for (user={dataset.users[i]},"
                       f" item={dataset.items[i]})")
    return out


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; ParseError if it is not UTF-8."""
    with open(path, "rb") as fh:
        try:
            return fh.read().decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_csv(path, dims: tuple[int, int, int] | None = None) -> RatingDataset:
    """Load `user,item,rating` rows (one header line) into a dataset.

    Dimensions are inferred as (max id + 1, max id + 1, max rating) unless
    ``dims`` supplies explicit (N, M, V); explicit dims let a file omit
    trailing users/items ratings never mention.
    """
    users, items, values = [], [], []
    lines = read_lines(path)
    if not lines:
        raise ParseError("missing header line", line=1)
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 3 comma-separated fields, got {len(parts)}", line=ln)
        try:
            u, m, v = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", line=ln) from None
        if u < 0 or m < 0:
            raise ParseError(f"negative id in {line!r}", line=ln)
        users.append(u)
        items.append(m)
        values.append(v)

    if dims is not None:
        n_users, n_items, n_values = dims
    elif users:
        n_users, n_items, n_values = max(users) + 1, max(items) + 1, max(values)
    else:
        n_users = n_items = n_values = 0

    ds = RatingDataset.from_arrays(n_users, n_items, n_values, users, items, values)
    problems = validate(ds)
    if problems:
        raise DataValidationError("; ".join(problems))
    return ds


def save_csv(path, dataset: RatingDataset) -> None:
    """Write the dataset as CSV, rows sorted by (user, item), LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for u, m, v in zip(dataset.users, dataset.items, dataset.values):
            fh.write(f"{u},{m},{v}\n")


def min_ratings_filter(dataset: RatingDataset, k: int):
    """Keep only users with at least ``k`` observations.

    Retained users are re-indexed densely in their original order.

    Returns
    -------
    filtered : RatingDataset
    kept_users : ndarray
        Original index of each retained user; ``kept_users[new] == old``.
    """
    if k < 0:
        raise ConfigurationError(f"min rating count must be >= 0, got {k}")
    kept = np.flatnonzero(dataset.row_counts() >= k)
    return remap_users(dataset, kept), kept


def remap_users(dataset: RatingDataset, kept_users: np.ndarray) -> RatingDataset:
    """Restrict a dataset to ``kept_users`` and apply the same dense re-map."""
    remap = np.full(dataset.n_users, -1, dtype=np.int64)
    remap[kept_users] = np.arange(len(kept_users))
    keep_mask = remap[dataset.users] >= 0
    return RatingDataset.from_arrays(
        len(kept_users), dataset.n_items, dataset.n_values,
        remap[dataset.users[keep_mask]], dataset.items[keep_mask],
        dataset.values[keep_mask])

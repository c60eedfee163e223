"""Sparse rating data: construction, validation and CSV I/O.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataValidationError, ParseError


@dataclass(frozen=True)
class RatingDataset:
    """Sparse collection of integer ratings for N users x M items.

    Attributes
    ----------
    n_users, n_items, n_values : int
        Dimensions (N, M, V). Rating values live in 1..V.
    users, items, values : ndarray
        Parallel int arrays sorted by (user, item), one entry per pair.

    Construction raises DataValidationError for negative dimensions, a
    triple outside them, or a repeated or out-of-order pair. Datasets are
    frozen, so the checks hold for the object's lifetime.
    """

    n_users: int
    n_items: int
    n_values: int
    users: np.ndarray
    items: np.ndarray
    values: np.ndarray

    @classmethod
    def from_arrays(cls, n_users, n_items, n_values, users, items,
                    values) -> "RatingDataset":
        """Build a dataset from triple arrays in any order."""
        users = np.array(users, dtype=np.int64)
        items = np.array(items, dtype=np.int64)
        values = np.array(values, dtype=np.int64)
        if not (users.shape == items.shape == values.shape):
            raise DataValidationError("users/items/values arrays differ in length")
        # The stable lexsort is the identity exactly on pairs already in order.
        step = np.diff(users)
        if ((step < 0) | (step == 0) & (np.diff(items) < 0)).any():
            order = np.lexsort((items, users))
            users, items, values = users[order], items[order], values[order]
        return cls(int(n_users), int(n_items), int(n_values), users, items, values)

    def __post_init__(self):
        dims = (self.n_users, self.n_items, self.n_values)
        if min(dims) < 0:
            raise DataValidationError(f"dimensions must be >= 0, got {dims}")
        if self.n_users * self.n_items >= 2**63:
            raise DataValidationError(f"dimensions {dims} overflow the int64 pair"
                                      " keys (N * M >= 2**63); pass smaller --dims")
        problems = _range_violations(self)
        if problems:
            raise DataValidationError("; ".join(problems))
        # Keys of in-range pairs increase strictly iff pairs are sorted and unique.
        steps = np.diff(self.pair_keys())
        if (steps <= 0).any():
            i = int(np.argmax(steps <= 0))
            raise DataValidationError(
                f"duplicate rating for (user={self.users[i]}, item={self.items[i]})"
                if steps[i] == 0 else "triples must be sorted by (user, item)")
        for arr in (self.users, self.items, self.values):
            arr.flags.writeable = False

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

    @cached_property
    def _row_ptr(self) -> np.ndarray:
        return np.searchsorted(self.users, np.arange(self.n_users + 1))

    @cached_property
    def incidence(self) -> csr_array:
        """CSR one-hot operator A of shape (N, V*M), built once and cached.

        A[i, (x-1)*M + m] = 1 for each observed (i, m, x), with each row's
        entries in item order. ``A @ table.reshape(V*M, K)`` sums table
        rows over every user's observations, and ``A.T @ q`` sums
        per-user rows into (value, item) cells.
        """
        from scipy.sparse import csr_array
        cols = (self.values - 1) * self.n_items + self.items
        return csr_array((np.ones(self.n_obs), cols, self._row_ptr),
                         shape=(self.n_users, self.n_values * self.n_items))

    def value_counts(self) -> np.ndarray:
        """Count of each rating value 1..V, shape (V,)."""
        return np.bincount(self.values, minlength=self.n_values + 1)[1:]

    def pair_keys(self) -> np.ndarray:
        """Unique int64 key per (user, item) pair, increasing along the rows."""
        return self.users * np.int64(self.n_items) + self.items

    def find(self, other: "RatingDataset") -> np.ndarray:
        """The row of each of ``other``'s (user, item) pairs here, or -1."""
        # The appended -1 matches no key of a pair inside these dims.
        keys = np.append(self.pair_keys(), -1)
        other_keys = other.users * np.int64(self.n_items) + other.items
        rows = np.searchsorted(keys[:-1], other_keys)
        inside = (other.users < self.n_users) & (other.items < self.n_items)
        return np.where(inside & (keys[rows] == other_keys), rows, -1)


@dataclass(frozen=True)
class SplitPair:
    """A train/test dataset pair over the same (N, M, V) dimensions that
    share no (user, item) pair; construction raises DataValidationError
    otherwise."""

    train: RatingDataset
    test: RatingDataset

    def __post_init__(self):
        mismatched = [f"train/test disagree on {dim}"
                      for dim in ("n_users", "n_items", "n_values")
                      if getattr(self.train, dim) != getattr(self.test, dim)]
        if mismatched:
            raise DataValidationError("; ".join(mismatched))
        overlap = np.flatnonzero(self.train.find(self.test) >= 0)
        if len(overlap):
            i = overlap[0]
            raise DataValidationError(
                "train and test overlap on %d pairs, e.g. (user=%d, item=%d)"
                % (len(overlap), self.test.users[i], self.test.items[i]))


# Out-of-range entries a range error names before it counts the rest.
_RANGE_EXAMPLES = 3


def _range_violations(dataset: RatingDataset) -> list[str]:
    """One message for each of the first _RANGE_EXAMPLES users, items or
    ratings outside the dimensions, then the count of the rest."""
    out = []
    bad_u = (dataset.users < 0) | (dataset.users >= dataset.n_users)
    bad_m = (dataset.items < 0) | (dataset.items >= dataset.n_items)
    bad_v = (dataset.values < 1) | (dataset.values > dataset.n_values)
    for i in np.flatnonzero(bad_u)[:_RANGE_EXAMPLES]:
        out.append(f"user index {dataset.users[i]} out of range [0, {dataset.n_users})")
    for i in np.flatnonzero(bad_m)[:_RANGE_EXAMPLES]:
        out.append(f"item index {dataset.items[i]} out of range [0, {dataset.n_items})")
    for i in np.flatnonzero(bad_v)[:_RANGE_EXAMPLES]:
        out.append(f"rating {dataset.values[i]} out of range [1, {dataset.n_values}]"
                   f" at (user={dataset.users[i]}, item={dataset.items[i]})")
    rest = int(bad_u.sum() + bad_m.sum() + bad_v.sum()) - _RANGE_EXAMPLES
    return out[:_RANGE_EXAMPLES] + ([f"and {rest} more"] if rest > 0 else [])


def read_text(path) -> str:
    """The text of a UTF-8 file; ParseError if it is not UTF-8."""
    with open(path, "rb") as fh:
        try:
            return fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def _plain_width(text: str) -> int:
    """The row width of ``text`` if it is a plain ratings file, else 0."""
    head = text.find("\n") + 1
    if not (head < len(text) and text.endswith("\n") and text.isascii()
            and text[:head - 1].isprintable()):
        return 0
    body = np.frombuffer(text.encode(), np.uint8, offset=head)
    ends = np.flatnonzero((body < ord("0")) | (body > ord("9")))
    seps = body[ends]
    width = int(np.argmax(seps == ord("\n"))) + 1
    if not 2 <= width <= 3 or len(seps) % width or (
            seps.reshape(-1, width) != list(b",,"[:width - 1] + b"\n")).any():
        return 0
    lengths = np.diff(ends, prepend=-1) - 1
    return width if 1 <= lengths.min() and lengths.max() <= 18 else 0


def read_int_columns(path, n: int) -> tuple[np.ndarray, ...]:
    """The first ``n`` (2 or 3) fields of each rating CSV row, as int64 arrays.

    A header line, then ``user,item[,rating]`` rows of ``n`` to 3 integer
    fields; blank lines are skipped and fields past the n-th are not read.
    ParseError names the line of a row of the wrong width, a non-integer
    field, a negative user or item, or an integer outside int64. A plain file
    (a printable ASCII header, then LF-ended rows of the same n to 3 fields
    of 1 to 18 ASCII digits, so inside int64) is parsed in one numpy pass;
    any other goes through the line loop, the one source of errors.
    """
    text = read_text(path)
    width = _plain_width(text)
    if width >= n:
        # A blank separator matches any run of whitespace, LF included.
        body = text[text.index("\n") + 1:].replace(",", " ")
        flat = np.fromstring(body, dtype=np.int64, sep=" ")
        return tuple(flat.reshape(-1, width)[:, :n].T)
    lines = text.splitlines()
    if not lines:
        raise ParseError("missing header line", line=1)
    flat = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if not n <= len(parts) <= 3:
            if not line.strip():
                continue
            raise ParseError(f"expected {'' if n == 3 else f'{n} to '}3"
                             f" comma-separated fields, got {len(parts)}", line=ln)
        try:
            flat.extend(map(int, parts[:n]))
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", line=ln) from None
        if "-" in line and min(flat[-n], flat[1 - n]) < 0:
            raise ParseError(f"negative id in {line!r}", line=ln)
    try:
        return tuple(np.array(flat, dtype=np.int64).reshape(-1, n).T)
    except OverflowError:
        ln, line = next((ln, line) for ln, line in enumerate(lines[1:], start=2)
                        if line.strip() and not all(-2**63 <= int(p) < 2**63
                                                    for p in line.split(",")[:n]))
        raise ParseError(f"integer out of int64 range in {line!r}", line=ln) from None


def write_text(path, *parts: str) -> None:
    """Write ``parts`` to ``path`` as UTF-8 with LF line ends, replacing it."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(parts)


def write_int_csv(path, header: str, *columns) -> None:
    """Write a header line, then one comma-joined row per index of ``columns``."""
    flat = np.column_stack(columns).ravel().tolist()
    row = ",".join(["%d"] * len(columns)) + "\n"
    write_text(path, header + "\n", row * (len(flat) // len(columns)) % tuple(flat))


def format_floats(values) -> str:
    """Space-joined values to 17 significant digits: every float64 reads back exactly."""
    flat = np.asarray(values, dtype=float).ravel()
    return " ".join(["%.17g"] * len(flat)) % tuple(flat.tolist())


def load_csv(path, dims: tuple[int, int, int] | None = None) -> RatingDataset:
    """Load `user,item,rating` rows (one header line) into a dataset.

    Dimensions are inferred as (max id + 1, max id + 1, max rating) unless
    ``dims`` supplies explicit (N, M, V); explicit dims let a file omit
    trailing users/items ratings never mention. Inferred dims with more
    than 64 dense cells (N + V*M) per row, plus 2**20, raise
    DataValidationError, so a stray large id cannot size an allocation.
    """
    users, items, values = read_int_columns(path, 3)
    if dims is None:
        dims = ((int(users.max()) + 1, int(items.max()) + 1, int(values.max()))
                if len(users) else (0, 0, 0))
        if dims[0] + dims[2] * dims[1] > 64 * len(users) + 2**20:
            raise DataValidationError(
                f"inferred dimensions {dims} are too sparse for {len(users)}"
                " rows; pass --dims N,M,V if the ids are meant to be this large")
    return RatingDataset.from_arrays(*dims, users, items, values)


def save_csv(path, dataset: RatingDataset) -> None:
    """Write the dataset as CSV, rows sorted by (user, item), LF endings."""
    write_int_csv(path, "user,item,rating", dataset.users, dataset.items, dataset.values)


"""Sparse rating data: construction, validation and CSV I/O.

A dataset holds (user, item, value) triples with integer rating values in
1..V. The response indicator structure is implicit: an entry is observed
iff its pair is present. Triples are kept sorted by (user, item) so that
each user's entries come in item order, and the arrays are frozen after
construction so datasets can be shared freely.

Model code reaches the triples through one sparse operator A, the N x V*M
incidence matrix of users and (value, item) cells, held by the dataset:
`RatingDataset.gather` multiplies a (value, item)-indexed table by it to sum
each user's observed cells, and `RatingDataset.scatter` sums per-user rows
back into those cells. scipy's compiled kernels, loaded by `_scipy`, do both.

Ratings files are parsed by numpy's ``loadtxt`` where it reads them as
``int()`` does, and by a line loop that names the line of any error.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import PathFinder

import numpy as np

from .errors import ConfigurationError, DataValidationError, ParseError


@cache
def _scipy(package: str, name: str):
    """Compiled module scipy.<package>.<name>, loaded by file: importing scipy.sparse
    and scipy.special after numpy runs 0.2-0.3 s of Python layers (scipy 1.17,
    2-core VM) that missmix never calls."""
    try:
        top = PathFinder.find_spec("scipy").submodule_search_locations[0]
        spec = PathFinder.find_spec(f"scipy.{package}.{name}", [f"{top}/{package}"])
        module = spec.loader.create_module(spec)
        spec.loader.exec_module(module)
        return module
    except (AttributeError, ImportError, TypeError):  # no spec, file or loader: import
        try:
            return importlib.import_module(f"scipy.{package}.{name}")
        except ImportError:  # a scipy without the module: gammaln from scipy.special
            return importlib.import_module(f"scipy.{package}")


# Cells per block of every piecewise loop: 512 KB of float64, inside a core's L2 cache.
BLOCK_CELLS = 2**16


def blocks(n: int, width: int = 1):
    """Slices that cover range(n) in order, each max(1, BLOCK_CELLS // width) long
    but the last: the rows of an n x width table, about BLOCK_CELLS cells at a time."""
    step = max(1, BLOCK_CELLS // width)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _index_dtype(*sizes):
    """int32 when every size is below 2**31, else int64."""
    return np.int32 if max(sizes) < 2**31 else np.int64


def _steps_back(users, items, ties: bool) -> np.ndarray:
    """Whether each (user, item) pair after the first comes before its predecessor,
    or with ``ties`` equals it; comparisons, unlike differences, cannot wrap."""
    late = np.less_equal if ties else np.less
    return (users[1:] < users[:-1]) | (users[1:] == users[:-1]) & late(items[1:], items[:-1])


@dataclass(frozen=True)
class RatingDataset:
    """Sparse collection of integer ratings for N users x M items.

    Attributes
    ----------
    n_users, n_items, n_values : int
        Dimensions (N, M, V). Rating values live in 1..V.
    users, items, values : ndarray
        Parallel int arrays sorted by (user, item), one entry per pair:
        users and items int32 while N and M are below 2**31, values int8
        while V is below 128, and int64 otherwise.

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
        """Build a dataset from triple arrays in any order (non-integer ones as int64)."""
        users, items, values = (a if isinstance(a, np.ndarray) and a.dtype.kind in "iu"
                                else np.asarray(a, dtype=np.int64)
                                for a in (users, items, values))
        if not (users.shape == items.shape == values.shape):
            raise DataValidationError("users/items/values arrays differ in length")
        # The stable lexsort is the identity exactly on pairs already in order.
        if _steps_back(users, items, ties=False).any():
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
        check_ranges(dims, self.users, self.items, self.values)
        # Every entry is inside the dims, so narrowing wraps none. Writable arrays are
        # copied, so no caller can change the checked triples; frozen ones are kept.
        for name, dtype in (("users", _index_dtype(self.n_users)),
                            ("items", _index_dtype(self.n_items)),
                            ("values", np.int8 if self.n_values < 128 else np.int64)):
            arr = getattr(self, name)
            object.__setattr__(self, name, np.array(
                arr, dtype, order="C", copy=True if arr.flags.writeable else None))
        stalls = _steps_back(self.users, self.items, ties=True)
        if stalls.any():
            i = int(np.argmax(stalls))
            raise DataValidationError(
                f"duplicate rating for (user={self.users[i]}, item={self.items[i]})"
                if (self.users[i], self.items[i]) == (self.users[i + 1], self.items[i + 1])
                else "triples must be sorted by (user, item)")
        for arr in (self.users, self.items, self.values):
            arr.flags.writeable = False

    @property
    def n_obs(self) -> int:
        return len(self.values)

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only CSR arrays (indptr, indices, data) of the operator A, built
        once: A[i, (x-1)*M + m] = 1 for each observed (i, m, x), in item order
        within each row. Indices are int32 when every index and size fits."""
        index = _index_dtype(self.n_users + 1, self.n_values * self.n_items, self.n_obs)
        cols = (self.values.astype(index) - 1) * self.n_items + self.items
        row_ptr = np.searchsorted(self.users, np.arange(self.n_users + 1)).astype(index)
        csr = row_ptr, cols, np.ones(self.n_obs)
        for arr in csr:
            arr.flags.writeable = False
        return csr

    def gather(self, table: np.ndarray) -> np.ndarray:
        """A @ table: per-user sums of table[x-1, m, :] over observed (m, x), shape
        (N, K), or (S, N, K) for a stack of S tables. ``table`` is (V, M', K) or
        (S, V, M', K) with M' >= M, else ConfigurationError; items past M are never
        observed and drop out."""
        V, M = self.n_values, self.n_items
        if table.shape[-3] != V or table.shape[-2] < M:
            raise ConfigurationError(
                f"model covers {table.shape[-2]} items and {table.shape[-3]} values;"
                f" data has {M} and {V}")
        # a stack's tables side by side, as the S*K columns of one (V*M, S*K) table
        x = table[:, :M] if table.ndim == 3 else table[:, :, :M].transpose(1, 2, 0, 3)
        x = x.reshape(V * M, -1)
        y = np.zeros((self.n_users, x.shape[1]))
        _scipy("sparse", "_sparsetools").csr_matvecs(len(y), *x.shape, *self._csr, x, y)
        return y if table.ndim == 3 else np.ascontiguousarray(
            y.reshape(len(y), len(table), table.shape[-1]).transpose(1, 0, 2))

    def scatter(self, q: np.ndarray) -> np.ndarray:
        """A.T @ q: per-user rows summed into (value, item) cells, shape (V, M, K) for
        ``q`` (N, K), or (S, V, M, K) for a stack (S, N, K)."""
        V, M, N, K = self.n_values, self.n_items, self.n_users, q.shape[-1]
        x = q.reshape(N, K) if q.ndim == 2 else q.transpose(1, 0, 2).reshape(N, len(q) * K)
        y = np.zeros((V * M, x.shape[1]))
        _scipy("sparse", "_sparsetools").csc_matvecs(V * M, *x.shape, *self._csr, x, y)
        return y.reshape(V, M, K) if q.ndim == 2 else np.ascontiguousarray(
            y.reshape(V, M, len(q), K).transpose(2, 0, 1, 3))

    def value_counts(self) -> np.ndarray:
        """Count of each rating value 1..V, shape (V,), read-only."""
        return self._value_counts

    @cached_property
    def _value_counts(self) -> np.ndarray:
        counts = np.bincount(self.values, minlength=self.n_values + 1)[1:]
        counts.flags.writeable = False
        return counts

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


def check_ranges(dims, users, items, values=None, prefix: str = "") -> None:
    """DataValidationError if a user or item, or a rating when ``values`` is
    given, lies outside ``dims`` (N, M, V). The message names the first
    _RANGE_EXAMPLES such entries, each led by ``prefix``, then counts the rest."""
    n_users, n_items, n_values = dims
    bad = [((users < 0) | (users >= n_users),
            lambda i: f"{prefix}user index {users[i]} out of range [0, {n_users})"),
           ((items < 0) | (items >= n_items),
            lambda i: f"{prefix}item index {items[i]} out of range [0, {n_items})")]
    if values is not None:
        bad.append(((values < 1) | (values > n_values),
                    lambda i: f"rating {values[i]} out of range [1, {n_values}]"
                              f" at (user={users[i]}, item={items[i]})"))
    out = [name(i) for mask, name in bad for i in np.flatnonzero(mask)[:_RANGE_EXAMPLES]]
    rest = sum(int(mask.sum()) for mask, _ in bad) - _RANGE_EXAMPLES
    if out:
        raise DataValidationError("; ".join(
            out[:_RANGE_EXAMPLES] + ([f"and {rest} more"] if rest > 0 else [])))


def read_text(path) -> str:
    """The text of a UTF-8 file; ParseError if it is not UTF-8."""
    with open(path, "rb") as fh:
        try:
            return fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def read_int_columns(path, n: int) -> tuple[np.ndarray, ...]:
    """The first ``n`` (2 or 3) fields of each rating CSV row, as int arrays:
    int32 when every value read fits in it, else int64.

    A header line, then ``user,item[,rating]`` rows of ``n`` to 3 integer
    fields; blank lines are skipped and fields past the n-th are not read.
    ParseError names the line of a row of the wrong width, a non-integer
    field, a negative user or item, or an integer outside int64. A file the
    guard below admits is read by np.loadtxt into int32, whose result stands
    if it has n to 3 columns and no negative id; any other file or result (a
    value outside int32 too) goes through the line loop, the one source of errors.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # loadtxt reads a non-ASCII letter as a digit, strips \x1c-\x1f (which
    # int() refuses), reads \x0b \x0c \x1c-\x1e as blanks where splitlines
    # breaks the line, and warns on a file with no data line. It reads the file
    # itself once the guard has dropped the bytes.
    header_end = data.find(b"\n")
    if (data.isascii() and header_end >= 0 and re.compile(rb"\S").search(data, header_end + 1)
            and not any(c in data for c in b"\x0b\x0c\x1c\x1d\x1e\x1f")):
        del data
        try:
            rows = np.loadtxt(path, np.int32, delimiter=",", comments=None,
                              skiprows=1, ndmin=2, encoding="utf-8")
            if n <= rows.shape[1] <= 3 and (rows[:, :2] >= 0).all():
                return tuple(rows[:, :n].T)
        except ValueError:
            pass
    lines = read_text(path).splitlines()
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
        columns = np.array(flat, dtype=np.int64).reshape(-1, n).T
    except OverflowError:
        ln, line = next((ln, line) for ln, line in enumerate(lines[1:], start=2)
                        if line.strip() and not all(-2**63 <= int(p) < 2**63
                                                    for p in line.split(",")[:n]))
        raise ParseError(f"integer out of int64 range in {line!r}", line=ln) from None
    fits = columns.size == 0 or -2**31 <= columns.min() and columns.max() < 2**31
    return tuple(columns.astype(np.int32) if fits else columns)


def write_text(path, head: str, lines=()) -> None:
    """Write ``head``, then each string of the iterable ``lines`` as it comes, to
    ``path`` as UTF-8 with LF line ends, replacing it."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        fh.writelines(lines)


def write_int_csv(path, header: str, *columns) -> None:
    """Write a header line, then one comma-joined row per index of ``columns``."""
    # a block of rows at a time: no whole-file text exists, and each digit pass's
    # temporaries are small enough to be reused, not mapped afresh
    write_text(path, header + "\n", (_int_rows(np.column_stack([c[rows] for c in columns]))
                                     for rows in blocks(len(columns[0]), len(columns))))


def _int_rows(block) -> str:
    """The rows of a 2-D integer array as decimal text, comma-joined, one per line."""
    values = np.asarray(block, dtype=np.int64).ravel()
    negative = values < 0
    magnitude = values.astype(np.uint64)  # two's complement: -INT64_MIN is 2**63
    np.negative(magnitude, out=magnitude, where=negative)
    width = len(str(magnitude.max()))
    # One row per cell: sign, digits right-aligned, separator; 0 bytes pad it.
    table = np.zeros((len(values), width + 2), np.uint8)
    table[negative, 0] = ord("-")
    table[:, -1] = ord(",")
    table.reshape(len(block), -1)[:, -1] = ord("\n")
    for column in range(width, 0, -1):
        quotient = magnitude // 10  # numpy's % 10 is about 4x slower than this //
        # the digit's byte, or 0 left of the leading digit
        table[:, column] = magnitude - 10 * quotient + (magnitude > 0).view(np.uint8) * ord("0")
        magnitude = quotient
    table[:, width] |= ord("0")  # the one digit of a zero
    return table[table != 0].tobytes().decode("ascii")


def format_floats(values) -> str:
    """Space-joined values to 17 significant digits: every float64 reads back exactly."""
    return " ".join("%.17g" % value for value in np.asarray(values, dtype=float).ravel().tolist())


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


import dataclasses
import functools
import inspect
import itertools
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from missmix import analysis, cli, data, mixture, modelio, predict, protocol, synthetic
from missmix.cli import build_parser
from missmix.cptv import CptvParams, m_step_nmar
from missmix.data import (RatingDataset, SplitPair, format_floats, load_csv,
                          read_int_columns, save_csv, write_int_csv)
from missmix.errors import DataValidationError, MissmixError, ParseError
from missmix.mixture import FitConfig
from oracles import parse_ratings_rows, user_rows


def _write(tmp_path, text, name="r.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "user,item,rating\n0,0,5\n0,1,3\n1,0,1\n")
    ds = load_csv(path)
    assert (ds.n_users, ds.n_items, ds.n_values) == (2, 2, 5)
    assert ds.n_obs == 3
    items, values = user_rows(ds)[0]
    assert items.tolist() == [0, 1]
    assert values.tolist() == [5, 3]


def test_load_csv_explicit_dims(tmp_path):
    path = _write(tmp_path, "user,item,rating\n")
    ds = load_csv(path, dims=(4, 7, 5))
    assert (ds.n_users, ds.n_items, ds.n_values) == (4, 7, 5)
    assert ds.n_obs == 0
    assert [len(items) for items, _ in user_rows(ds)] == [0, 0, 0, 0]


def test_load_csv_unsorted_rows_are_sorted(tmp_path):
    path = _write(tmp_path, "user,item,rating\n1,1,2\n0,1,3\n1,0,4\n0,0,1\n")
    ds = load_csv(path)
    assert ds.users.tolist() == [0, 0, 1, 1]
    assert ds.items.tolist() == [0, 1, 0, 1]
    assert ds.values.tolist() == [1, 3, 4, 2]


def test_load_csv_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        load_csv(_write(tmp_path, "user,item,rating\n0,0\n"))
    with pytest.raises(ParseError, match="line 3"):
        load_csv(_write(tmp_path, "user,item,rating\n0,0,1\n0,1,x\n"))
    with pytest.raises(ParseError, match="line 1"):
        load_csv(_write(tmp_path, ""))
    with pytest.raises(ParseError, match="negative"):
        load_csv(_write(tmp_path, "user,item,rating\n-1,0,1\n"))
    # an id past int64, after a blank line
    with pytest.raises(ParseError, match="line 4: integer out of int64 range"):
        load_csv(_write(tmp_path, "user,item,rating\n0,0,1\n\n99999999999999999999,1,2\n"))


def test_read_int_columns_reads_pairs_and_ratings_files(tmp_path):
    users, items = read_int_columns(_write(tmp_path, "user,item\n3,1\n\n0,2\n"), 2)
    assert (users.tolist(), items.tolist()) == ([3, 0], [1, 2])
    assert users.dtype == items.dtype == np.int32
    # int64 once a value leaves int32, on loadtxt's path and the line loop's alike
    for text in ("user,item\n2147483648,1\n", "user,item\n+2147483648,1\n"):
        users, items = read_int_columns(_write(tmp_path, text), 2)
        assert users.dtype == items.dtype == np.int64 and users.tolist() == [2**31]
    for text in ("user,item\n2147483647,1\n", "user,item\n+2147483647,1\n"):
        assert read_int_columns(_write(tmp_path, text), 2)[0].dtype == np.int32
    # a ratings file gives its first two columns
    users, items = read_int_columns(_write(tmp_path, "user,item,rating\n3,1,5\n"), 2)
    assert (users.tolist(), items.tolist()) == ([3], [1])
    assert [c.tolist() for c in read_int_columns(_write(tmp_path, "h\n"), 3)] == [[]] * 3
    for text, match in [
            ("user,item\n0\n", "^line 2: expected 2 to 3 comma-separated fields, got 1$"),
            ("user,item\n0,1,2,3\n", "^line 2: expected 2 to 3 .* got 4$"),
            ("user,item\n0,1\n0,-1\n", "^line 3: negative id in '0,-1'$"),
            ("user,item\n0,x\n", "^line 2: non-integer field"),
            ("user,item\n0,-99999999999999999999\n", "^line 2: negative id"),
            ("user,item\n1,99999999999999999999\n", "^line 2: integer out of int64"),
            ("", "^line 1: missing header line$")]:
        with pytest.raises(ParseError, match=match):
            read_int_columns(_write(tmp_path, text), 2)


def test_load_csv_duplicate_pair(tmp_path):
    path = _write(tmp_path, "user,item,rating\n0,0,1\n0,0,2\n")
    with pytest.raises(DataValidationError, match="duplicate"):
        load_csv(path)


def test_load_csv_value_out_of_range(tmp_path):
    path = _write(tmp_path, "user,item,rating\n0,0,3\n", name="a.csv")
    with pytest.raises(DataValidationError, match="out of range"):
        load_csv(path, dims=(1, 1, 2))


def test_validate_reports_all_violations():
    # construction names every out-of-range triple in one error
    with pytest.raises(DataValidationError) as err:
        RatingDataset.from_arrays(2, 2, 3, [0, 1, 5], [0, 3, 0], [1, 2, 9])
    for text in ("user index 5", "item index 3", "rating 9"):
        assert text in str(err.value)


def test_validate_clean():
    ds = RatingDataset.from_arrays(2, 2, 5, [0, 1], [1, 0], [5, 2])
    assert (np.diff(ds.pair_keys()) > 0).all()


def test_dataset_invariants_checked_at_construction():
    with pytest.raises(DataValidationError, match="dimensions must be >= 0"):
        RatingDataset.from_arrays(-1, 5, 5, [], [], [])
    with pytest.raises(DataValidationError, match="differ in length"):
        RatingDataset.from_arrays(2, 2, 5, [0, 1], [0], [1, 2])
    # pair keys are user * n_items + item, so N * M must fit in int64
    with pytest.raises(DataValidationError, match=r"overflow the int64 pair keys"):
        RatingDataset.from_arrays(2**32, 2**31, 5, [], [], [])
    assert RatingDataset.from_arrays(2**32, 2**31 - 1, 5, [], [], []).n_obs == 0
    with pytest.raises(DataValidationError,
                       match=r"duplicate rating for \(user=1, item=0\)"):
        RatingDataset.from_arrays(2, 2, 5, [1, 0, 1], [0, 1, 0], [1, 2, 3])
    # the constructor itself, given triples out of (user, item) order
    arrays = [np.array(a) for a in ([1, 0], [0, 0], [1, 2])]
    with pytest.raises(DataValidationError, match="sorted"):
        RatingDataset(2, 1, 5, *arrays)


def test_a_range_error_names_a_few_entries_and_counts_the_rest():
    n = 10_000
    with pytest.raises(DataValidationError) as info:
        RatingDataset.from_arrays(1, 1, 5, np.arange(n), np.zeros(n, int),
                                  np.full(n, 9))
    message = str(info.value)
    assert message.startswith("user index 1 out of range [0, 1); user index 2")
    # 9999 bad users and 10000 bad ratings, three of them named
    assert message.endswith("; and 19996 more") and len(message) < 300
    with pytest.raises(DataValidationError) as info:
        RatingDataset.from_arrays(1, 1, 5, [0], [0], [6])
    assert str(info.value) == "rating 6 out of range [1, 5] at (user=0, item=0)"


def test_from_arrays_orders_pairs_not_keys():
    # (1, 2) then (0, 5) at M = 2: the keys 4, 5 increase, but the pairs do
    # not, and the range error names the bad items in (user, item) order
    with pytest.raises(DataValidationError) as info:
        RatingDataset.from_arrays(2, 2, 5, [1, 0], [0, 3], [1, 1])
    assert str(info.value) == "item index 3 out of range [0, 2)"
    with pytest.raises(DataValidationError) as info:
        RatingDataset.from_arrays(2, 2, 5, [1, 0], [2, 5], [1, 1])
    assert str(info.value) == ("item index 5 out of range [0, 2);"
                               " item index 2 out of range [0, 2)")
    # sorted input is not re-sorted, yet the dataset still owns its arrays
    users = np.array([0, 1])
    ds = RatingDataset.from_arrays(2, 2, 5, users, [0, 1], [1, 2])
    users[0] = 1
    assert ds.users.tolist() == [0, 1]


def _from_triples(dims, triples):
    users, items, values = [list(col) for col in zip(*triples)] or [[], [], []]
    return RatingDataset.from_arrays(*dims, users, items, values)


@st.composite
def _dataset_args(draw):
    """Small dims, some negative, and triples inside them with up to two
    fields overwritten by any small int or a value at the edge of the
    dims; ids stay small, since a large one would size the row index."""
    dims = draw(st.tuples(*[st.integers(-1, 6)] * 3))
    n_u, n_m, n_v = (max(d, 1) for d in dims)
    cells = draw(st.lists(st.tuples(st.integers(0, n_u - 1), st.integers(0, n_m - 1),
                                    st.integers(1, n_v)).map(list), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if cells else 0):
        i, k = draw(st.integers(0, len(cells) - 1)), draw(st.integers(0, 2))
        cells[i][k] = draw(st.integers(-2, 8)
                           | st.sampled_from([-1, 0, dims[k], dims[k] + 1]))
    return dims, [tuple(c) for c in cells]


def _is_valid(dims, triples):
    pairs = [(u, m) for u, m, _ in triples]
    return (min(dims) >= 0 and len(set(pairs)) == len(pairs)
            and all(0 <= u < dims[0] and 0 <= m < dims[1] and 1 <= v <= dims[2]
                    for u, m, v in triples))


@given(_dataset_args())
# one value just past each edge of dims (1, 2, 2), then a repeated pair
@example(((1, 2, 2), [(-1, 0, 1)]))
@example(((1, 2, 2), [(1, 0, 1)]))
@example(((1, 2, 2), [(0, -1, 1)]))
@example(((1, 2, 2), [(0, 1, 1), (0, 2, 1)]))
@example(((1, 2, 2), [(0, 1, 0)]))
@example(((1, 2, 2), [(0, 1, 3)]))
@example(((1, 2, 2), [(0, 1, 1), (0, 1, 2)]))
def test_from_arrays_gives_a_valid_dataset_or_a_data_error(args):
    dims, triples = args
    try:
        ds = _from_triples(dims, triples)
    except DataValidationError:
        assert not _is_valid(dims, triples)
        return
    assert _is_valid(dims, triples)
    assert (ds.n_users, ds.n_items, ds.n_values) == dims
    assert (np.diff(ds.pair_keys()) > 0).all()
    assert sorted(triples) == list(zip(ds.users.tolist(), ds.items.tolist(),
                                       ds.values.tolist()))


# Ids and dims at the int32 and uint32 edges: narrowing must never wrap one.
_EDGES = (-1, 0, 1, 2**31 - 2, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1)


@st.composite
def _edge_args(draw):
    """Dims on both sides of the int32 limit, or small enough for dense tables
    (``small``), and up to five triples of ids near the edges of int32 and of
    the dims, or inside small dims."""
    small = draw(st.booleans())
    if small:
        dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    else:
        dims = (draw(st.sampled_from([3, 2**31 - 1, 2**31, 2**32 + 1])),
                draw(st.sampled_from([3, 2**29, 2**31 - 1, 2**31, 2**32 + 1])),
                draw(st.sampled_from([1, 5, 127, 128])))

    def near(limit, low):
        return st.integers(low, limit) | st.sampled_from(
            sorted({*_EDGES, low - 1, low, limit - 1, limit, limit + 1}))
    triples = draw(st.lists(st.tuples(near(dims[0] - 1, 0), near(dims[1] - 1, 0),
                                      near(dims[2], 1)), max_size=5))
    return small, dims, triples


@given(_edge_args(), st.booleans(), st.integers(1, 3))
@example((False, (2**31, 2**32 + 1, 5), [(2**31 - 1, 2**32, 5), (2**31 - 1, 2**31 - 1, 1)]),
         False, 1)
@example((False, (3, 2**31, 1), [(0, 2**31 - 1, 1), (2, 0, 1)]), False, 1)
@example((True, (2, 3, 2), [(1, 2, 2), (0, 0, 1), (1, 0, 1)]), True, 2)
def test_narrowing_never_wraps_an_id(args, wide_index, k):
    # ``wide_index`` makes small dims take int64 indices, so both index dtypes
    # meet scipy; no dense table is built unless the dims are small
    small, (N, M, V), triples = args
    pairs = [(u, m) for u, m, _ in triples]
    valid = (N * M < 2**63 and len(set(pairs)) == len(pairs)
             and all(0 <= u < N and 0 <= m < M and 1 <= v <= V for u, m, v in triples))
    columns = [np.array(col, dtype=np.int64) for col in zip(*triples)] or [
        np.zeros(0, np.int64)] * 3
    index_dtype = (lambda *sizes: np.int64) if wide_index else data._index_dtype
    with mock.patch.object(data, "_index_dtype", index_dtype):
        try:
            ds = RatingDataset.from_arrays(N, M, V, *columns)
        except DataValidationError:
            assert not valid
            return
        assert valid
        indptr, indices, ones = ds._csr if N < 2**16 else (None,) * 3
    # the int64 triples, in (user, item) order, and their keys without a wrap
    assert list(zip(ds.users.tolist(), ds.items.tolist(), ds.values.tolist())) == sorted(triples)
    assert [ds.users.dtype, ds.items.dtype, ds.values.dtype] == [
        index_dtype(N), index_dtype(M), np.int8 if V < 128 else np.int64]
    keys = ds.pair_keys()
    assert keys.dtype == np.int64 and keys.tolist() == [u * M + m for u, m in sorted(pairs)]
    if indptr is None:
        return
    cols = [(v - 1) * M + m for _, m, v in sorted(triples)]
    wide = wide_index or max(N + 1, V * M, len(triples)) >= 2**31
    assert indptr.dtype == indices.dtype == (np.int64 if wide else np.int32)
    assert indices.tolist() == cols
    assert indptr.tolist() == [sum(u < row for u, _ in pairs) for row in range(N + 1)]
    if small:
        # the kernels on these arrays give the bits of a csr_array built from int64 ones
        from scipy.sparse import csr_array

        A = csr_array((np.ones(len(cols)), np.array(cols, dtype=np.int64),
                       indptr.astype(np.int64)), shape=(N, V * M))
        rng = np.random.default_rng(len(triples))
        table, q = rng.normal(size=(V, M, k)), rng.normal(size=(N, k))
        assert ds.gather(table).tobytes() == (A @ table.reshape(V * M, k)).tobytes()
        assert ds.scatter(q).tobytes() == (A.T @ q).tobytes()


def test_load_csv_peaks_near_its_int32_table(tmp_path):
    # 200k rows: the int32 table loadtxt returns, the dataset's own narrow
    # arrays and the order check's masks; no file text, int64 column or pair
    # key lives beside them (the int64 reader peaked at 6x the table)
    rng = np.random.default_rng(0)
    n = 200_000
    users = np.repeat(np.arange(n // 100), 100)
    items = np.tile(np.arange(100), n // 100) * 7
    path = tmp_path / "r.csv"
    write_int_csv(path, "user,item,rating", users, items, rng.integers(1, 6, n))
    table_bytes = n * 3 * 4
    tracemalloc.start()
    try:
        ds = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n_obs == n and ds.items.dtype == np.int32 and ds.values.dtype == np.int8
    assert peak < 2.5 * table_bytes, peak / table_bytes


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    for trial in range(20):
        N, M, V = rng.integers(1, 20), rng.integers(1, 15), rng.integers(2, 6)
        n = int(rng.integers(0, N * M + 1))
        flat = rng.choice(N * M, size=n, replace=False)
        users, items = flat // M, flat % M
        values = rng.integers(1, V + 1, size=n)
        ds = RatingDataset.from_arrays(N, M, V, users, items, values)
        path = tmp_path / f"t{trial}.csv"
        save_csv(path, ds)
        back = load_csv(path, dims=(int(N), int(M), int(V)))
        assert back.users.tolist() == ds.users.tolist()
        assert back.items.tolist() == ds.items.tolist()
        assert back.values.tolist() == ds.values.tolist()


def test_save_csv_bytes_are_canonical(tmp_path):
    ds = RatingDataset.from_arrays(2, 2, 5, [1, 0], [0, 1], [4, 2])
    path = tmp_path / "c.csv"
    save_csv(path, ds)
    assert path.read_bytes() == b"user,item,rating\n0,1,2\n1,0,4\n"


def test_split_pair_overlap_detection():
    a = RatingDataset.from_arrays(2, 2, 5, [0, 1], [0, 1], [1, 2])
    b = RatingDataset.from_arrays(2, 2, 5, [0], [0], [3])
    with pytest.raises(DataValidationError, match="overlap"):
        SplitPair(train=a, test=b)
    clean = SplitPair(train=a, test=RatingDataset.from_arrays(2, 2, 5, [1], [0], [3]))
    assert clean.test.n_obs == 1
    # the messages name the count and the first shared pair, or each
    # disagreeing dimension
    a = RatingDataset.from_arrays(3, 2, 5, [0, 1, 2], [0, 1, 0], [1, 2, 3])
    b = RatingDataset.from_arrays(3, 2, 5, [2, 1, 0], [1, 1, 0], [3, 4, 5])
    with pytest.raises(DataValidationError, match=r"^train and test overlap on"
                       r" 2 pairs, e\.g\. \(user=0, item=0\)$"):
        SplitPair(train=a, test=b)
    wide = RatingDataset.from_arrays(3, 4, 6, [], [], [])
    with pytest.raises(DataValidationError, match="^train/test disagree on"
                       " n_items; train/test disagree on n_values$"):
        SplitPair(train=a, test=wide)


@given(st.data())
def test_split_pair_gives_a_valid_split_or_a_data_error(data):
    # cells go to train or test, the first `shared` of them to both, and
    # the test side may be one wider on one axis
    dims = data.draw(st.tuples(*[st.integers(1, 4)] * 3))
    cells = data.draw(st.lists(
        st.tuples(*[st.integers(0, n - 1) for n in dims[:2]], st.integers(1, dims[2]),
                  st.booleans()),
        max_size=8, unique_by=lambda c: c[:2]))
    shared = data.draw(st.integers(0, 2))
    test_dims = list(dims)
    if data.draw(st.booleans()):
        test_dims[data.draw(st.integers(0, 2))] += 1
    a = _from_triples(dims, [c[:3] for i, c in enumerate(cells) if i < shared or c[3]])
    b = _from_triples(test_dims, [c[:3] for i, c in enumerate(cells)
                                  if i < shared or not c[3]])
    valid = tuple(test_dims) == dims and not cells[:shared]
    try:
        split = SplitPair(train=a, test=b)
    except DataValidationError:
        assert not valid
        return
    assert valid and split.train is a and split.test is b


@given(st.data())
def test_find_gives_the_row_of_each_pair_or_minus_one(data):
    # the two datasets may differ in every dimension
    dims = [data.draw(st.tuples(*[st.integers(1, 4)] * 3)) for _ in range(2)]
    a, b = (_from_triples(d, data.draw(st.lists(
        st.tuples(st.integers(0, d[0] - 1), st.integers(0, d[1] - 1),
                  st.integers(1, d[2])), max_size=10, unique_by=lambda c: c[:2])))
        for d in dims)
    rows = {pair: i for i, pair in enumerate(zip(a.users.tolist(), a.items.tolist()))}
    expected = [rows.get(pair, -1) for pair in zip(b.users.tolist(), b.items.tolist())]
    assert a.find(b).tolist() == expected


def test_datasets_cannot_change_after_their_checks():
    a = RatingDataset.from_arrays(2, 2, 5, [0, 1], [0, 1], [1, 2])
    b = RatingDataset.from_arrays(2, 2, 5, [1], [0], [3])
    split = SplitPair(train=a, test=b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        split.test = a
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.n_values = 1
    # a replaced dataset builds its own operator, not the cached one of `a`
    a._csr
    c = dataclasses.replace(a, values=np.array([4, 2]))
    fresh = RatingDataset.from_arrays(2, 2, 5, [0, 1], [0, 1], [4, 2])
    assert c._csr[1].tolist() == fresh._csr[1].tolist() == [6, 3]
    # the caches are not constructor arguments
    with pytest.raises(TypeError):
        RatingDataset(2, 2, 5, a.users, a.items, a.values, _csr=b._csr)


def test_arrays_are_frozen():
    ds = RatingDataset.from_arrays(1, 1, 5, [0], [0], [1])
    with pytest.raises(ValueError):
        ds.values[0] = 2


def test_cached_operator_arrays_are_frozen():
    # a write into the column indices made gather read past its table
    ds = RatingDataset.from_arrays(2, 3, 2, [0, 1, 1], [2, 0, 1], [1, 2, 2])
    for arr in ds._csr:
        with pytest.raises(ValueError):
            arr[0] = 99
    assert [a.tolist() for a in ds._csr] == [[0, 1, 3], [2, 3, 4], [1.0] * 3]


# Pieces of ratings files, biased toward the grammar's edges: signs,
# spaces, underscores, blank lines, ids just inside and past int64, and a
# byte that is not UTF-8.
_CSV_PIECES = [b"0", b"1", b"7", b"12", b",", b",", b"-", b"+", b" ", b"_", b"x",
               b"\n", b"\n\n", b"\r\n", b"\xff", b"0,1,2\n", b"3,0,5\n", b"4,2\n",
               b"99999999999999999999", b"9223372036854775807",
               b"-9223372036854775808", b"9223372036854775808"]
_ANY_CSV = st.binary(max_size=48) | st.builds(
    bytes.__add__, st.sampled_from([b"", b"user,item,rating\n", b"user,item\n"]),
    st.lists(st.sampled_from(_CSV_PIECES), max_size=40).map(b"".join))


_EXAMPLES = itertools.count()


def _example_path(tmp_path_factory, test):
    """A new file name in the one directory named ``test``. A directory per
    example would slow each later one: pytest numbers a new directory by
    scanning the base temp dir."""
    folder = tmp_path_factory.getbasetemp() / test
    folder.mkdir(exist_ok=True)
    return folder / f"{next(_EXAMPLES)}.csv"


def _write_bytes(tmp_path_factory, test, raw):
    path = _example_path(tmp_path_factory, test)
    path.write_bytes(raw)
    return path


@given(_ANY_CSV)
def test_readers_give_a_value_or_a_missmix_error(tmp_path_factory, raw):
    path = _write_bytes(tmp_path_factory, "readers", raw)
    # explicit dims keep every allocation small
    for read in (lambda: load_csv(path, dims=(8, 8, 5)),
                 lambda: read_int_columns(path, 2)):
        try:
            read()
        except MissmixError:
            pass


@given(_ANY_CSV)
@example(b"h\n0,0,1\n-1,x\n")
@example(b"h\n99999999999999999999,0,1\n0,x,1\n")
@example(b"h\n0,0,1\n\n1,2,-99999999999999999999\n")
@example(b"h\n0,0,1\n9223372036854775808,1,2\n")
def test_ratings_reader_matches_the_line_by_line_oracle(tmp_path_factory, raw):
    path = _write_bytes(tmp_path_factory, "oracle", raw)
    try:
        rows = parse_ratings_rows(raw)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            read_int_columns(path, 3)
        assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        return
    wide = [row[0] for row in rows if not all(-2**63 <= f < 2**63 for f in row[1:])]
    if wide:
        with pytest.raises(ParseError, match=f"^line {wide[0]}: integer out of int64"):
            read_int_columns(path, 3)
        return
    columns = [[row[k] for row in rows] for k in (1, 2, 3)]
    assert [c.tolist() for c in read_int_columns(path, 3)] == columns
    assert [c.tolist() for c in read_int_columns(path, 2)] == columns[:2]


def _expect_oracle_reading(path, raw, n):
    """``read_int_columns(path, n)`` gives the oracle's rows or its error."""
    try:
        rows = parse_ratings_rows(raw, n)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            read_int_columns(path, n)
        assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        return
    wide = [row[0] for row in rows if not all(-2**63 <= f < 2**63 for f in row[1:])]
    if wide:
        with pytest.raises(ParseError, match=f"^line {wide[0]}: integer out of int64"):
            read_int_columns(path, n)
        return
    columns = [[row[k] for row in rows] for k in range(1, n + 1)]
    assert [c.tolist() for c in read_int_columns(path, n)] == columns


# Single bytes a mutation writes into a plain file: each separator, a sign,
# a space, a digit, a letter, a byte that is not UTF-8, two that split
# lines for str.splitlines but not for loadtxt, and one that loadtxt strips
# but int() refuses.
_MUTANT_BYTES = [b"", b"\n", b"\r", b",", b"-", b"+", b" ", b"0", b"x", b"\xff",
                 b"\x0b", b"\x1e", b"\x1f"]


@st.composite
def _plain_files(draw):
    """A plain ratings file (a printable ASCII header, then LF-ended rows of
    2 or 3 fields of 1 to 18 digits, leading zeros allowed) and its row
    width, or the file after one byte was replaced, inserted or deleted,
    and 0."""
    header = draw(st.text(st.characters(min_codepoint=32, max_codepoint=126),
                          max_size=12))
    width = draw(st.integers(2, 3))
    fields = st.lists(st.text("0123456789", min_size=1, max_size=18),
                      min_size=width, max_size=width)
    rows = draw(st.lists(fields, min_size=1, max_size=6))
    raw = (header + "\n" + "".join(",".join(row) + "\n" for row in rows)).encode()
    if not draw(st.booleans()):
        return raw, width
    at = draw(st.integers(0, len(raw) - 1))
    byte = draw(st.sampled_from(_MUTANT_BYTES)
                | st.integers(0, 255).map(lambda b: bytes([b])))
    return raw[:at] + byte + raw[at + draw(st.integers(0, 1)):], 0


@given(_plain_files())
@example((b"h\n1,2,3\n\n4,5,6\n", 0))           # a blank line
@example((b"h\r\n1,2,3\r\n", 0))                # CRLF
@example((b"h\n+1,2,3\n", 0))                   # a sign
@example((b"h\n1,-2,3\n", 0))
@example((b"h\n1, 2,3\n", 0))                   # a space
@example(("h\n1,\u0662,3\n".encode(), 0))       # a non-ASCII digit
@example((b"h\n1234567890123456789,2,3\n", 0))  # 19 digits inside int64
@example((b"h\n0000000000000000001,2,3\n", 0))
@example((b"h\n9999999999999999999,2,3\n", 0))  # 19 digits past it
@example((b"h\n1,2,3", 0))                       # no final LF
@example((b"h\n", 0))                            # a header only
@example((b"h\n1,2\n3,4,5\n", 0))               # mixed widths
@example((b"h\n1,,3\n", 0))                     # an empty field
@example((b"h\x0bx\n1,2,3\n", 0))                # a header str.splitlines splits
@example(("h\n\u01fe1,2,3\n".encode(), 0))       # a letter loadtxt reads as a digit
@example((b"h\n\x1f1,2,3\n", 0))                # a byte loadtxt strips, int() refuses
@example((b"h\n1,2\x0c,3\n", 0))                # a line break loadtxt reads as a blank
def test_plain_files_take_the_fast_path_and_read_as_the_oracle(tmp_path_factory, case):
    raw, width = case
    path = _write_bytes(tmp_path_factory, "plain", raw)
    for n in (2, 3):
        # a plain file reaches the one np.loadtxt call
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as fast:
            _expect_oracle_reading(path, raw, n)
        if width >= n:
            assert fast.called


@given(st.integers(2, 3).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=k, max_size=k), max_size=8))))
@example((3, []))
@example((2, [[9, -9], [10, -10], [99, -99], [100, -100]]))  # a digit more per row
@example((2, [[10**18 - 1, 10**18], [1 - 10**18, -10**18]]))
@example((3, [[-2**63, 2**63 - 1, 0], [2**63 - 1, -2**63, -1]]))
@example((3, [[7, 123456, 0], [0, -5, 9], [9, 4294967296, -3]]))  # one-digit first column
@example((2, [[1, 2], [3, 0]]))  # one digit everywhere
def test_write_int_csv_writes_what_the_per_row_format_wrote(tmp_path_factory, case):
    k, rows = case
    columns = np.array(rows, dtype=np.int64).reshape(-1, k).T
    path = _example_path(tmp_path_factory, "write")
    write_int_csv(path, "a,b,c", *columns)
    row = ",".join(["{}"] * k) + "\n"
    expected = "a,b,c\n" + "".join(map(row.format, *(c.tolist() for c in columns)))
    assert path.read_bytes() == expected.encode()


def test_write_int_csv_crosses_its_row_blocks_as_the_per_row_format(tmp_path):
    # 2**13 rows are formatted at a time; 2**17 + 3 rows make seventeen blocks
    rows = np.random.default_rng(3).integers(-2**63, 2**63 - 1, size=(2**17 + 3, 2),
                                             dtype=np.int64, endpoint=True)
    path = tmp_path / "w.csv"
    write_int_csv(path, "a,b", *rows.T)
    expected = "a,b\n" + "".join("{},{}\n".format(*row) for row in rows.tolist())
    assert path.read_bytes() == expected.encode()


@given(st.data())
def test_save_csv_then_load_csv_round_trips(tmp_path_factory, data):
    dims = data.draw(st.tuples(*[st.integers(0, 6)] * 3))
    cells = data.draw(st.lists(
        st.tuples(*[st.integers(0, n - 1) for n in dims[:2]], st.integers(1, dims[2])),
        max_size=10, unique_by=lambda c: c[:2])) if min(dims) > 0 else []
    ds = _from_triples(dims, cells)
    path = _example_path(tmp_path_factory, "round_trip")
    save_csv(path, ds)
    back = load_csv(path, dims=dims)
    assert (back.n_users, back.n_items, back.n_values) == dims
    for name in ("users", "items", "values"):
        assert getattr(back, name).tolist() == getattr(ds, name).tolist()


# far more values than the scalars and V-length vectors format_floats is given
_LONG = np.random.default_rng(5).standard_normal(2**15 + 3).tolist()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
@example([5e-324, -0.0, 0.1, 1.7976931348623157e308, -2.2250738585072014e-308])
@example(_LONG)
def test_format_floats_reads_back_bit_for_bit(values):
    arr = np.array(values, dtype=np.float64)
    back = np.array([float(t) for t in format_floats(arr).split()], dtype=np.float64)
    assert back.view(np.int64).tolist() == arr.view(np.int64).tolist()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
@example([5e-324, -0.0, 0.1, 1.7976931348623157e308, -2.2250738585072014e-308])
@example([0.0, 1 / 3])
@example([])
@example(_LONG)
def test_format_floats_is_the_per_value_17_digit_format(values):
    arr = np.array(values, dtype=np.float64)
    assert format_floats(arr) == " ".join("%.17g" % x for x in arr)
    assert format_floats(arr.reshape(1, -1)) == format_floats(arr)


def _holders(pattern):
    src = Path(__file__).resolve().parents[1] / "src" / "missmix"
    return [p.name for p in sorted(src.glob("*.py"))
            if re.search(pattern, p.read_text(encoding="utf-8"))]


def test_float_format_lives_in_data_only():
    # one module owns the 17-digit format every float output uses
    assert _holders("%.17g") == ["data.py"]


def test_shared_formulas_and_policies_have_one_home_each(tmp_path):
    # the pair-key encoding and the file writer live in data, the
    # divergence in analysis.skl, and exit codes on the error classes
    assert _holders(r"pair_keys\(") == ["data.py"]
    assert _holders(r"open\([^)]*, *['\"][wax]") == ["data.py"]
    assert _holders(r"\breturn [1-9]|exit\([1-9]|EXIT_CODE = |exit_code = ") == ["errors.py"]
    assert _holders(r"np\.log2") == ["analysis.py"]
    # one codec for the model file's float arrays: hex of their float64 bytes
    assert _holders(r"\.fromhex\(") == _holders(r"\.hex\(\)") == ["modelio.py"]
    # one bound on the dense tables a command allocates from its sizes
    assert _holders(r"DENSE_CELL_BUDGET") == ["cli.py"]
    assert _holders(r"def _check_dense_cells") == ["cli.py"]
    # one input path in cli: a single loader reads every ratings file and runs
    # the dense-table check, and one builder makes the FitConfig of the fit flags
    cli_source = inspect.getsource(cli)
    assert re.findall(r"\bload_csv\(", cli_source) == ["load_csv("]
    assert "load_csv(" in inspect.getsource(cli._load)
    # given dims are checked before the first read
    load_source = inspect.getsource(cli._load)
    assert load_source.index("_check_dense_cells(") < load_source.index("load_csv(")
    assert re.findall(r"\bFitConfig\(", cli_source) == ["FitConfig("]
    assert "FitConfig(" in inspect.getsource(cli._fit_config)
    assert [name for name, f in vars(cli).items() if inspect.isfunction(f)
            and re.search(r"(?<!def )_check_dense_cells\(", inspect.getsource(f))
            ] == ["_load", "_cmd_generate"]
    # one step turns the train/evaluate flags into checked ModelSpecs, and
    # both commands take it before they read a ratings file
    assert _holders(r"_check_mu_flags|_model_spec\b") == []
    assert [name for name, f in vars(cli).items() if inspect.isfunction(f)
            and f.__module__ == cli.__name__ and "ModelSpec(" in inspect.getsource(f)
            ] == ["_model_specs"]
    for command in (cli._cmd_train, cli._cmd_evaluate):
        source = inspect.getsource(command)
        assert source.index("_model_specs(") < source.index("_load(")
    assert list(inspect.signature(cli._parse_mu).parameters) == ["text"]
    # one rule and one message each for mu's length and distinct grid entries
    assert _holders(r"one entry per rating value") == ["cptv.py"]
    assert _holders(r"check_mu_length\(") == [
        "cptv.py", "modelio.py", "protocol.py", "synthetic.py"]
    assert _holders(r"mu must hold|--seed must be >= 0") == []
    # one MAP objective: the evidence sum meets the Dirichlet priors, and
    # mu's Beta prior when there is one, in mixture._objective
    assert _holders(r"log_z\.sum\(") == ["mixture.py"]
    assert inspect.getsource(mixture).count("log_z.sum(axis=-1)") == 1
    assert "log_z.sum(axis=-1)" in inspect.getsource(mixture._objective)
    assert _holders(r"_log_dirichlet_prior") == []
    # one E/M/objective/EM path for both families, in mixture: mm-cptv is
    # the mm-none fit with an observation model, and only mixture calls gammaln
    mixture_source = inspect.getsource(mixture)
    for name in ("_log_weights", "_m_step", "_objective", "_fit", "_hidden_cell_table"):
        assert _holders(rf"def {name}\b") == ["mixture.py"], name
        assert len(re.findall(rf"def {name}\b", mixture_source)) == 1, name
    assert _holders(r"gammaln\(") == ["mixture.py"]
    assert _holders(r"\b(_run_em|_log_weights_mar|_log_weights_nmar|_map_update"
                    r"|_objective_mar|_objective_nmar|_log_beta_prior)\b") == []
    assert _holders(r"\b_scipy\b") == ["data.py", "mixture.py"]
    posterior_source = inspect.getsource(predict.posterior_z)
    assert "_e_step(params, dataset, cptv)" in posterior_source
    assert not re.search(r"cptv is (not )?None|\belse\b|_mar\b|_nmar\b", posterior_source)
    # one sparse operator, owned by the dataset: its cached CSR arrays, the
    # scipy kernels that multiply them, their loader and the rule that a
    # table covers the data all live in data, behind gather and scatter
    assert isinstance(vars(RatingDataset)["_csr"], functools.cached_property)
    assert not hasattr(RatingDataset, "incidence")
    assert _holders(r"\.incidence\b|\b_gather\b|\b_scatter\b") == []
    assert _holders(r"csr_matvecs|csc_matvecs") == ["data.py"]
    assert _holders(r"def _scipy\b") == ["data.py"]
    assert _holders(r"model covers") == ["data.py"]
    # one log-sum-exp, and scipy is imported only inside the functions that
    # use it, so commands that never fit or predict do not load it
    assert _holders(r"\blogsumexp\b|def _logsumexp") == ["mixture.py"]
    assert _holders(r"(?m)^(from|import) scipy") == []
    # the study split is drawn as N x M masks: one dataset build, in
    # synthetic._observed, and no pair-key join, user filter or user re-map
    assert _holders(r"min_ratings_filter|remap_users") == []
    synthetic_source = inspect.getsource(synthetic)
    assert re.findall(r"\bfrom_arrays\(", synthetic_source) == ["from_arrays("]
    assert "from_arrays(" in inspect.getsource(synthetic._observed)
    assert not re.search(r"\bfind\(", synthetic_source)
    assert _holders(r"\} entries|must have \{") == []
    assert _holders(r"must be distinct") == ["protocol.py"]
    assert re.findall(r"np\.log2", inspect.getsource(analysis)) == ["np.log2"]
    assert "np.log2" in inspect.getsource(analysis.skl)
    # fit settings and their defaults live in mixture.FitConfig alone; the
    # fit flags of train and evaluate default to its fields
    assert _holders(r"class \w*Config\b") == ["mixture.py"]
    assert _holders(r"ProtocolConfig") == []
    assert _holders(r"default=(2\.0|1000|1e-0?5)\b") == []
    assert [f.name for f in dataclasses.fields(protocol.ModelSpec)] == [
        "family", "config", "mu", "strength"]
    defaults = {f.name: f.default for f in dataclasses.fields(FitConfig)}
    for argv in (["train", "r.csv", "--model", "mm-none", "-K", "1", "--out", "m"],
                 ["evaluate", "r.csv", "t.csv", "--out", "r"]):
        parsed = vars(build_parser().parse_args(argv))
        for dest, field in (("alpha", "alpha"), ("phi", "phi"),
                            ("tol", "rel_tol"), ("max_iters", "max_iters")):
            assert parsed[dest] == defaults[field], (argv[0], dest)
    # one table per output format: the model file's keys and their token
    # types in modelio._KEYS, the report's score cells in protocol._SCORES;
    # and one range-error rule, for ratings and pairs files alike
    assert _holders(r"_parse_floats|_parse_ints|_label_cells|def row\(|row_counts") == []
    params = mixture.MixtureParams(theta=np.ones(1), beta=np.full((2, 1, 1), 0.5),
                                   alpha=2.0, phi=2.0)
    cptv = CptvParams(mu=np.full(2, 0.5), xi1=np.full(2, 2.0), xi0=np.full(2, 2.0))
    modelio.save_model(tmp_path / "m.model", params, cptv=cptv, mu_mode="learn", z=[0])
    assert [line.split()[0] for line in (tmp_path / "m.model").read_text().splitlines()
            if not line.startswith("#")] == list(modelio._KEYS)
    assert [line.split(" = ")[0] for line in inspect.getsource(protocol).splitlines()
            if '"train_mae"' in line] == ["REPORT_COLUMNS", "_SCORES"]
    assert _holders(r"out of range") == ["data.py"]
    # one model-file format: load_model accepts FORMAT_VERSION alone, and the
    # smoothing lines are checked by FitConfig's rule
    assert _holders(r"\b_smoothing\b|v1_size|format 1") == []
    assert _holders(r"must be one finite value") == []
    text = (tmp_path / "m.model").read_text(encoding="utf-8")
    for version in range(modelio.FORMAT_VERSION + 2):
        (tmp_path / "v.model").write_text(text.replace(
            f"format_version {modelio.FORMAT_VERSION}\n", f"format_version {version}\n"),
            encoding="utf-8")
        if version == modelio.FORMAT_VERSION:
            modelio.load_model(tmp_path / "v.model")
        else:
            with pytest.raises(ParseError, match=f"unsupported format_version {version}"):
                modelio.load_model(tmp_path / "v.model")
    # one line shape on stderr: cli.main alone turns warnings into lines
    assert _holders(r"showwarning|catch_warnings") == ["cli.py"]
    assert "showwarning" in inspect.getsource(cli.main)
    # one home for generate's split sizes, which the CLI checks before a draw
    assert _holders(r"min_train must|must be in 1\.\.") == ["synthetic.py"]
    generate = inspect.getsource(cli._cmd_generate)
    assert generate.index("check_split_sizes(") < generate.index("sample_ground_truth(")
    # one CSV parser in front of the line loop: numpy's loadtxt, in data
    assert _holders(r"_plain_width|fromstring") == []
    assert _holders(r"loadtxt\(") == ["data.py"]
    # learning mu is one fact, that cptv carries its prior: _m_step takes no
    # switch, m_step_nmar's pinned learn_mu only has to agree with cptv, the
    # model file's mode names live in modelio._check_mu_mode, which its writer
    # and reader both run, and _model_specs has two mu-flag rules
    assert _holders(r"\blearn_mu\b") == ["cptv.py"]
    assert (inspect.getsource(inspect.getmodule(m_step_nmar)).count("learn_mu")
            == inspect.getsource(m_step_nmar).count("learn_mu"))
    assert "learn_mu" in inspect.signature(m_step_nmar).parameters
    assert list(inspect.signature(mixture._m_step).parameters) == [
        "params", "dataset", "q", "cptv"]
    assert _holders(r"cannot learn mu without|learn mode needs a prior strength"
                    r"|unknown mu_mode") == []
    assert re.findall(r'"learn"', inspect.getsource(modelio)) == ['"learn"']
    assert '"learn"' in inspect.getsource(modelio._check_mu_mode)
    for function in (modelio.save_model, modelio.load_model):
        assert "_check_mu_mode(" in inspect.getsource(function)
    assert inspect.getsource(cli._model_specs).count("raise ConfigurationError") == 2
    # one process pool, the evaluate grid's executor in protocol, and one scorer of
    # the constant model, run_protocol itself
    assert _holders(r"multiprocessing\.pool|\.Pool\(") == []
    assert _holders(r"ProcessPoolExecutor") == ["protocol.py"]
    assert inspect.getsource(protocol).count("empirical_median_value(") == 1
    assert "empirical_median_value(" in inspect.getsource(protocol.run_protocol)
    # a stack is one FitConfig, its seeds and one (S, V) mu stack: only mixture._fit
    # replaces a config's seed, and _take asks no observation model for its shape
    assert list(inspect.signature(mixture._fit).parameters) == [
        "dataset", "config", "seeds", "cptv"]
    assert _holders(r"replace\([^)]*\bseed=") == ["mixture.py"]
    assert "ndim" not in inspect.getsource(mixture._take)

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from missmix.data import (RatingDataset, SplitPair, format_floats, load_csv,
                          min_ratings_filter, read_int_columns, remap_users,
                          save_csv)
from missmix.errors import (ConfigurationError, DataValidationError,
                            MissmixError, ParseError)
from oracles import parse_ratings_rows


def _write(tmp_path, text, name="r.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "user,item,rating\n0,0,5\n0,1,3\n1,0,1\n")
    ds = load_csv(path)
    assert (ds.n_users, ds.n_items, ds.n_values) == (2, 2, 5)
    assert ds.n_obs == 3
    items, values = ds.row(0)
    assert items.tolist() == [0, 1]
    assert values.tolist() == [5, 3]


def test_load_csv_explicit_dims(tmp_path):
    path = _write(tmp_path, "user,item,rating\n")
    ds = load_csv(path, dims=(4, 7, 5))
    assert (ds.n_users, ds.n_items, ds.n_values) == (4, 7, 5)
    assert ds.n_obs == 0
    assert ds.row_counts().tolist() == [0, 0, 0, 0]


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
    assert users.dtype == items.dtype == np.int64
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
    with pytest.raises(DataValidationError,
                       match=r"duplicate rating for \(user=1, item=0\)"):
        RatingDataset.from_arrays(2, 2, 5, [1, 0, 1], [0, 1, 0], [1, 2, 3])
    # the constructor itself, given triples out of (user, item) order
    arrays = [np.array(a) for a in ([1, 0], [0, 0], [1, 2])]
    with pytest.raises(DataValidationError, match="sorted"):
        RatingDataset(2, 1, 5, *arrays)


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


def test_min_ratings_filter_counts():
    users = np.concatenate([np.zeros(12, int), np.full(3, 1), np.full(10, 2)])
    items = np.concatenate([np.arange(12), np.arange(3), np.arange(10)])
    values = np.ones(25, int)
    ds = RatingDataset.from_arrays(3, 12, 5, users, items, values)
    filtered, kept = min_ratings_filter(ds, 10)
    assert kept.tolist() == [0, 2]
    assert filtered.n_users == 2
    assert filtered.row_counts().tolist() == [12, 10]
    # user 2 re-indexed to 1, item ids untouched
    items1, _ = filtered.row(1)
    assert items1.tolist() == list(range(10))


def test_min_ratings_filter_rejects_negative():
    ds = RatingDataset.from_arrays(1, 1, 5, [0], [0], [1])
    with pytest.raises(ConfigurationError):
        min_ratings_filter(ds, -1)


def test_remap_users_keeps_selected_rows():
    ds = RatingDataset.from_arrays(3, 2, 5, [0, 1, 2], [0, 0, 1], [1, 2, 3])
    out = remap_users(ds, np.array([2, 0]))
    assert out.n_users == 2
    # kept order defines the new indices
    assert out.users.tolist() == [0, 1]
    assert out.values.tolist() == [3, 1]


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


def test_datasets_cannot_change_after_their_checks():
    a = RatingDataset.from_arrays(2, 2, 5, [0, 1], [0, 1], [1, 2])
    b = RatingDataset.from_arrays(2, 2, 5, [1], [0], [3])
    split = SplitPair(train=a, test=b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        split.test = a
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.n_values = 1
    # a replaced dataset builds its own operator, not the cached one of `a`
    a.incidence()
    c = dataclasses.replace(a, values=np.array([4, 2]))
    fresh = RatingDataset.from_arrays(2, 2, 5, [0, 1], [0, 1], [4, 2])
    assert c.incidence().indices.tolist() == fresh.incidence().indices.tolist() == [6, 3]
    # the caches are not constructor arguments
    with pytest.raises(TypeError):
        RatingDataset(2, 2, 5, a.users, a.items, a.values, _incidence=b.incidence())


def test_arrays_are_frozen():
    ds = RatingDataset.from_arrays(1, 1, 5, [0], [0], [1])
    with pytest.raises(ValueError):
        ds.values[0] = 2


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


def _write_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    path.write_bytes(raw)
    return path


@given(_ANY_CSV)
def test_readers_give_a_value_or_a_missmix_error(tmp_path_factory, raw):
    path = _write_bytes(tmp_path_factory, raw)
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
    path = _write_bytes(tmp_path_factory, raw)
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


@given(st.data())
def test_save_csv_then_load_csv_round_trips(tmp_path_factory, data):
    dims = data.draw(st.tuples(*[st.integers(0, 6)] * 3))
    cells = data.draw(st.lists(
        st.tuples(*[st.integers(0, n - 1) for n in dims[:2]], st.integers(1, dims[2])),
        max_size=10, unique_by=lambda c: c[:2])) if min(dims) > 0 else []
    ds = _from_triples(dims, cells)
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    save_csv(path, ds)
    back = load_csv(path, dims=dims)
    assert (back.n_users, back.n_items, back.n_values) == dims
    for name in ("users", "items", "values"):
        assert getattr(back, name).tolist() == getattr(ds, name).tolist()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
@example([5e-324, -0.0, 0.1, 1.7976931348623157e308, -2.2250738585072014e-308])
def test_format_floats_reads_back_bit_for_bit(values):
    arr = np.array(values, dtype=np.float64)
    back = np.array([float(t) for t in format_floats(arr).split()], dtype=np.float64)
    assert back.view(np.int64).tolist() == arr.view(np.int64).tolist()


def test_float_format_lives_in_data_only():
    # one module owns the 17-digit format every float output uses
    src = Path(__file__).resolve().parents[1] / "src" / "missmix"
    holders = [p.name for p in sorted(src.glob("*.py"))
               if "%.17g" in p.read_text(encoding="utf-8")]
    assert holders == ["data.py"]

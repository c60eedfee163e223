import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from missmix.data import (RatingDataset, SplitPair, load_csv,
                          min_ratings_filter, remap_users, save_csv)
from missmix.errors import ConfigurationError, DataValidationError, ParseError


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


def test_arrays_are_frozen():
    ds = RatingDataset.from_arrays(1, 1, 5, [0], [0], [1])
    with pytest.raises(ValueError):
        ds.values[0] = 2

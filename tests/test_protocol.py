
import concurrent.futures.process
import multiprocessing
import os
import signal
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missmix import mixture, protocol
from missmix.cptv import YAHOO_MU, fit_nmar, start_cptv
from missmix.cli import main
from missmix.data import RatingDataset, SplitPair, save_csv
from missmix.errors import (ConfigurationError, DataValidationError,
                            EstimationError, EvaluationError)
from missmix.mixture import FitConfig, fit_mar
from missmix.protocol import (ModelSpec, REPORT_COLUMNS, fit_spec, format_cell,
                              run_protocol, write_report)
from missmix.synthetic import build_study_dataset, sample_ground_truth


@pytest.fixture(scope="module")
def small_split():
    truth = sample_ground_truth(250, 20, 5, 3, YAHOO_MU * 4, seed=21)
    split, _ = build_study_dataset(truth, seed=22, per_user_test=4, min_train=4)
    return split, truth


def test_model_spec_validation():
    with pytest.raises(ConfigurationError):
        ModelSpec(family="nonsense")
    with pytest.raises(ConfigurationError):
        ModelSpec(family="mm-cptv", config=FitConfig(2))
    # mu and its prior are checked before any fit runs
    for bad in (dict(mu=[0.5, np.nan]),
                dict(mu=[0.5, 2.0]),
                dict(mu=[0.5, 0.5], strength=np.nan),
                dict(mu=[0.5, 0.5], strength=1.5)):
        with pytest.raises(ConfigurationError):
            ModelSpec(family="mm-cptv", config=FitConfig(2), **bad)
    ModelSpec(family="mm-cptv", config=FitConfig(2), mu=np.full(5, 0.2))
    ModelSpec(family="mm-cptv", config=FitConfig(2), mu=np.full(5, 0.2),
              strength=100.0)
    # no other family takes a mu or a strength, which it would ignore
    for family, config in (("mm-none", FitConfig(2)), ("constant", None)):
        for extra in (dict(mu=np.full(3, 0.2)), dict(strength=100.0),
                      dict(mu=np.full(5, 0.2), strength=100.0)):
            with pytest.raises(ConfigurationError, match=f"{family} takes no mu"):
                ModelSpec(family=family, config=config, **extra)


def test_model_spec_has_a_config_exactly_when_it_is_fitted():
    for family in ("mm-none", "mm-cptv"):
        with pytest.raises(ConfigurationError, match="need a FitConfig"):
            ModelSpec(family=family, mu=np.full(5, 0.2))
    with pytest.raises(ConfigurationError, match="constant takes none"):
        ModelSpec(family="constant", config=FitConfig(2))
    constant = ModelSpec(family="constant")
    train = RatingDataset.from_arrays(1, 1, 2, [0], [0], [1])
    with pytest.raises(ConfigurationError, match="constant model is not fitted"):
        fit_spec(train, constant)


def test_run_protocol_report_structure(small_split):
    split, truth = small_split
    config = FitConfig(2, max_iters=40, rel_tol=1e-5)
    specs = [ModelSpec(family="constant"),
             ModelSpec(family="mm-none", config=config),
             ModelSpec(family="mm-cptv", config=config, mu=truth.mu)]
    rows = run_protocol(split, specs, (0, 1))
    assert len(rows) == 3 * (2 + 1)
    per_seed = [r for r in rows if r["agg"] == 0]
    aggs = [r for r in rows if r["agg"] == 1]
    assert len(per_seed) == 6 and len(aggs) == 3

    for model in ("constant", "mm-none", "mm-cptv"):
        mine = [r for r in per_seed if r["model"] == model]
        agg = next(r for r in aggs if r["model"] == model)
        te = np.array([r["test_mae"] for r in mine])
        assert agg["test_mae"] == pytest.approx(te.mean(), abs=1e-15)
        assert agg["test_mae_se"] == pytest.approx(
            te.std(ddof=1) / np.sqrt(len(te)), abs=1e-15)

    cptv_agg = next(r for r in aggs if r["model"] == "mm-cptv")
    blind_agg = next(r for r in aggs if r["model"] == "mm-none")
    assert cptv_agg["mu_mode"] == "fixed"
    assert blind_agg["mu_mode"] == ""
    # the aware model should do clearly better on the uniform probe
    assert cptv_agg["test_mae"] < blind_agg["test_mae"]


def test_constant_family_uses_train_median(small_split):
    split, _ = small_split
    rows = run_protocol(split, [ModelSpec(family="constant")], (0,))
    counts = np.bincount(split.train.values, minlength=6)[1:]
    median = int(np.argmax(np.cumsum(counts) / counts.sum() >= 0.5)) + 1
    expect = np.abs(split.test.values - median).mean()
    row = rows[0]
    assert row["test_mae"] == pytest.approx(expect, abs=1e-15)
    assert row["K"] == "" and row["iterations"] == 0


def test_run_protocol_rejects_overlapping_split():
    # such a split cannot be built, so run_protocol never sees one
    ds = RatingDataset.from_arrays(2, 2, 5, [0, 1], [0, 1], [1, 2])
    with pytest.raises(DataValidationError, match="overlap"):
        SplitPair(train=ds, test=ds)


def test_run_protocol_rejects_bad_settings_before_fitting(small_split):
    split, truth = small_split
    # the stopping settings are checked as the spec's config is built ...
    for bad in (dict(rel_tol=np.nan), dict(max_iters=0)):
        with pytest.raises(ConfigurationError):
            ModelSpec(family="mm-none", config=FitConfig(2, **bad))
    # ... and the seeds, each mu against the data's values and both sides of
    # the split before the first fit, constant grids included
    none = ModelSpec(family="mm-none", config=FitConfig(2))
    constant = ModelSpec(family="constant")
    cptv = ModelSpec(family="mm-cptv", config=FitConfig(2), mu=truth.mu[:4])
    empty = RatingDataset.from_arrays(split.train.n_users, split.train.n_items,
                                      split.train.n_values, [], [], [])
    for case_split, spec, seeds, error, message in (
            (split, none, (0, -1), ConfigurationError, "seed must be >= 0"),
            (split, constant, (0, -1), ConfigurationError, "seed must be >= 0"),
            (split, none, (0, 1, 0), ConfigurationError,
             "seeds must be distinct, got 0,1,0"),
            (split, cptv, (0,), ConfigurationError,
             r"mu must have one entry per rating value \(5\), got shape \(4,\)"),
            (SplitPair(empty, split.test), constant, (0,), EvaluationError,
             "the training data has no ratings"),
            (SplitPair(split.train, empty), none, (0,), EvaluationError,
             "the test data has no ratings")):
        with mock.patch("missmix.protocol._fit_and_score") as fit:
            with pytest.raises(error, match=message):
                run_protocol(case_split, [constant, spec], seeds)
        fit.assert_not_called()


def test_run_protocol_replaces_the_seed_of_each_config(small_split):
    split, truth = small_split
    rows = [run_protocol(split, [ModelSpec(family=family, config=config, mu=mu)], (0,))
            for family, mu in (("mm-none", None), ("mm-cptv", truth.mu))
            for config in (FitConfig(2, seed=7, max_iters=30),
                           FitConfig(2, max_iters=30))]
    assert rows[0] == rows[1] and rows[2] == rows[3]
    assert rows[0][0]["seed"] == 0


def test_run_protocol_deterministic(small_split):
    split, truth = small_split
    specs = [ModelSpec(family="mm-cptv", config=FitConfig(2, max_iters=30),
                       mu=truth.mu)]
    a = run_protocol(split, specs, (0, 1))
    b = run_protocol(split, specs, (0, 1))
    assert a == b


def test_a_pooled_grid_gives_the_rows_and_warnings_of_one_fit_at_a_time(small_split):
    split, truth = small_split
    config = FitConfig(2, max_iters=20)
    specs = [ModelSpec(family="constant"),
             ModelSpec(family="mm-none", config=config),
             ModelSpec(family="mm-none", config=FitConfig(2, alpha=1e308)),
             ModelSpec(family="mm-cptv", config=config, mu=truth.mu)]
    seeds = (0, 1)
    two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    pool = mock.Mock(wraps=concurrent.futures.process.ProcessPoolExecutor)
    with mock.patch("concurrent.futures.process.ProcessPoolExecutor", pool), \
            pytest.warns(UserWarning) as pooled:
        rows = run_protocol(split, specs, seeds)
    # the grid ran on a pool wherever two CPUs are available
    assert pool.call_count == int(two_cpus)
    assert multiprocessing.active_children() == [] and protocol._split is None

    # one (spec, seed) at a time runs in this process
    with mock.patch("concurrent.futures.process.ProcessPoolExecutor", pool), \
            pytest.warns(UserWarning) as serial:
        singles = [run_protocol(split, [spec], (seed,))[0] for spec in specs for seed in seeds]
    assert pool.call_count == int(two_cpus)
    assert [row for row in rows if row["agg"] == 0] == singles
    assert [str(w.message) for w in pooled] == [str(w.message) for w in serial] == [
        f"mm-none K=2 seed {seed} failed: log posterior is nan after EM iteration 1;"
        " a smoothing or prior count is too large" for seed in seeds]
    # and so does the whole grid on one CPU, aggregates included
    with mock.patch("os.sched_getaffinity", return_value={0}, create=True), \
            pytest.warns(UserWarning):
        assert run_protocol(split, specs, seeds) == rows
    assert pool.call_count == int(two_cpus)


def test_a_foreign_error_in_a_worker_is_raised_in_the_caller(small_split, monkeypatch):
    split, _ = small_split
    fit_stack = protocol._fit

    def fit_or_refuse(train, config, seeds, cptv=None):
        if 1 in seeds:
            raise ConfigurationError("no fit for seed 1")
        return fit_stack(train, config, seeds, cptv)

    # the forked workers inherit the patched module
    monkeypatch.setattr(protocol, "_fit", fit_or_refuse)
    spec = ModelSpec(family="mm-none", config=FitConfig(2, max_iters=5))
    with pytest.raises(ConfigurationError, match="^no fit for seed 1$"):
        run_protocol(split, [spec], (0, 1, 2))
    assert multiprocessing.active_children() == [] and protocol._split is None


def test_a_grid_worker_killed_by_a_signal_is_an_evaluation_error(small_split, monkeypatch,
                                                                  tmp_path, capsys):
    split, _ = small_split
    for name, side in (("train", split.train), ("test", split.test)):
        save_csv(tmp_path / f"{name}.csv", side)
    fit_stack = protocol._fit

    def fit_or_die(train, config, seeds, cptv=None):
        if 1 in seeds:
            os.kill(os.getpid(), signal.SIGKILL)
        return fit_stack(train, config, seeds, cptv)

    def hung(signum, frame):
        raise AssertionError("the grid still waits for its killed worker")

    # two CPUs, so the grid forks: in this process the kill would end the run
    monkeypatch.setattr(protocol, "_fit", fit_or_die)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    spec = ModelSpec(family="mm-none", config=FitConfig(2, max_iters=5))
    alarm, start = signal.signal(signal.SIGALRM, hung), time.monotonic()
    signal.alarm(30)
    try:
        with pytest.raises(EvaluationError,
                           match="^an evaluate grid worker ended without its result$"):
            run_protocol(split, [spec], (0, 1, 2))
        # evaluate exits with code 5 and one error line
        assert main(["evaluate", str(tmp_path / "train.csv"), str(tmp_path / "test.csv"),
                     "--families", "mm-none", "-K", "2", "--seeds", "0,1,2", "--max-iters",
                     "5", "--out", str(tmp_path / "r.csv")]) == 5
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, alarm)
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == (
        "error: an evaluate grid worker ended without its result\n")
    assert multiprocessing.active_children() == [] and protocol._split is None
    assert not (tmp_path / "r.csv").exists()


def test_a_one_spec_grid_of_five_seeds_runs_on_two_workers(small_split):
    split, _ = small_split
    spec = ModelSpec(family="mm-none", config=FitConfig(2, max_iters=5))
    pool = mock.Mock(wraps=concurrent.futures.process.ProcessPoolExecutor)
    with mock.patch("concurrent.futures.process.ProcessPoolExecutor", pool), \
            mock.patch("os.sched_getaffinity", return_value={0, 1}, create=True):
        rows = run_protocol(split, [spec], (0, 1, 2, 3, 4))
        # in run order: the larger stack first
        assert protocol._stacks([spec], [0, 1, 2, 3, 4], 100) == [
            (spec, [2, 3, 4]), (spec, [0, 1])]
    assert pool.call_args.args[0] == 2
    with mock.patch("os.sched_getaffinity", return_value={0}, create=True):
        assert run_protocol(split, [spec], (0, 1, 2, 3, 4)) == rows


def test_stacks_stay_within_their_cells_and_start_largest_first(small_split, monkeypatch):
    split, truth = small_split
    specs = [ModelSpec(family="constant"),
             ModelSpec(family="mm-none", config=FitConfig(1)),
             ModelSpec(family="mm-none", config=FitConfig(4)),
             ModelSpec(family="mm-cptv", config=FitConfig(4), mu=truth.mu)]
    cells = split.train.n_values * split.train.n_items + split.train.n_users
    # two fits of K = 4 fill a stack
    monkeypatch.setattr(protocol, "STACK_CELLS", 8 * cells)
    with mock.patch("os.sched_getaffinity", return_value={0, 1}, create=True):
        tasks = protocol._stacks(specs, [0, 1, 2], cells)
        # and one fit larger than a stack runs alone
        assert [seeds for _, seeds in protocol._stacks(specs[2:3], [0, 1], 2 * cells)] == [
            [0], [1]]
    # the fitted stacks alone, in run order: the constant model is scored by run_protocol
    assert [(spec.family, spec.config.n_components, seeds) for spec, seeds in tasks] == [
        ("mm-cptv", 4, [1, 2]), ("mm-none", 4, [1, 2]), ("mm-cptv", 4, [0]),
        ("mm-none", 4, [0]), ("mm-none", 1, [0, 1, 2])]

    started = []

    def record(spec, seeds):
        started.append((spec.family, len(seeds)))
        return [(0.5, float(len(started)), 0, 1)] * len(seeds)

    monkeypatch.setattr(protocol, "_fit_and_score", record)
    with mock.patch("os.sched_getaffinity", return_value={0}, create=True):
        rows = run_protocol(split, specs, (0, 1, 2))
    # the most components first, then mm-cptv; the rows keep spec and seed order
    assert started == [("mm-cptv", 2), ("mm-none", 2), ("mm-cptv", 1), ("mm-none", 1),
                       ("mm-none", 3)]
    constant = run_protocol(split, specs[:1], (0, 1, 2))[0]["test_mae"]
    assert [row["test_mae"] for row in rows if row["agg"] == 0] == [
        constant] * 3 + [5.0] * 3 + [4.0, 2.0, 2.0] + [3.0, 1.0, 1.0]


def test_a_stack_counts_the_per_user_tables_of_a_tall_split(monkeypatch):
    # 30000 users beside a 5 x 10 rating table: each fit's (N, K) responsibilities
    # outweigh its (V, M, K) table, so they count towards a stack's cells too
    n, m, v = 30000, 10, 5
    users = np.arange(n)
    split = SplitPair(*(RatingDataset.from_arrays(n, m, v, users, (users + side) % m,
                                                  users % v + 1) for side in (0, 1)))
    specs = [ModelSpec("mm-none", FitConfig(K)) for K in (1, 2, 5, 10, 40)] + [
        ModelSpec("mm-cptv", FitConfig(10), mu=np.full(v, 0.5))]
    started = []

    def record(split, tasks):
        started.extend((spec.config.n_components, len(seeds)) for spec, seeds in tasks)
        return [[(0.5, 0.5, 0, 1)] * len(seeds) for _, seeds in tasks]

    monkeypatch.setattr(protocol, "_map_tasks", record)
    for cpus in ({0}, {0, 1}):
        started.clear()
        with mock.patch("os.sched_getaffinity", return_value=cpus, create=True):
            run_protocol(split, specs, (0, 1, 2, 3, 4))
        assert sum(S for _, S in started) == 5 * len(specs)
        assert all(S * K * (v * m + n) <= protocol.STACK_CELLS or S == 1 for K, S in started)
        # V*M cells alone would stack all five seeds of K = 10 on one CPU
        assert max(S for K, S in started if K == 10) == 3


_random = np.random.default_rng(5)
_mask = _random.random((40, 8)) < 0.5
_STACK_DATA = RatingDataset.from_arrays(40, 8, 3, *np.nonzero(_mask),
                                        _random.integers(1, 4, size=int(_mask.sum())))


def _fit_stack(dataset, spec, seeds):
    """The stacked fit of ``spec`` under each of ``seeds``, as `run_protocol` runs it."""
    cptv = None if spec.mu is None else start_cptv(spec.mu, spec.strength, seeds)
    return mixture._fit(dataset, spec.config, seeds, cptv)


def _fit_fields(result):
    """Every byte of a FitResult, or the type and text of the error that ended it."""
    if isinstance(result, Exception):
        return type(result), str(result)
    cptv = result.cptv and [None if a is None else (a.shape, a.tobytes())
                            for a in (result.cptv.mu, result.cptv.xi1, result.cptv.xi0)]
    return ([(a.dtype, a.shape, a.tobytes()) for a in (
        result.params.theta, result.params.beta, result.q, result.log_posterior_trace)],
        result.params.alpha, result.params.phi, result.iterations, result.converged, cptv)


@settings(max_examples=60)
@given(K=st.sampled_from([1, 2, 3, 8, 9]),
       seeds=st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True),
       mu_mode=st.sampled_from([None, "fixed", "learn"]),
       failing=st.sampled_from([None, "seed", "alpha"]))
def test_a_stacked_fit_gives_each_seed_the_bytes_of_its_own_fit(K, seeds, mu_mode, failing):
    # at this rel_tol the seeds of a stack converge at different iterations, and
    # a fit that fails (a NaN start for the first seed, or alpha = 1e308 for all,
    # which a learned mu carries to the objective) leaves the stack with the error
    # its own fit raises
    config = FitConfig(K, alpha=1e308 if failing == "alpha" else 2.0, max_iters=20,
                       rel_tol=1e-4)
    mu = None if mu_mode is None else np.array([0.2, 0.4, 0.6])
    strength = 50.0 if mu_mode == "learn" else None
    spec = ModelSpec("mm-none" if mu is None else "mm-cptv", config, mu, strength)
    init_params = mixture.init_params

    def init_or_poison(n_items, n_values, config):
        params = init_params(n_items, n_values, config)
        if failing == "seed" and config.seed == seeds[0]:
            params.theta[0] = np.nan
        return params

    def own_fit(seed):
        try:
            if mu is None:
                return fit_mar(_STACK_DATA, replace(config, seed=seed))
            return fit_nmar(_STACK_DATA, replace(config, seed=seed), mu, strength)
        except EstimationError as exc:
            return exc

    with mock.patch.object(mixture, "init_params", init_or_poison):
        stacked = _fit_stack(_STACK_DATA, spec, seeds)
        singles = [own_fit(seed) for seed in seeds]
    assert [_fit_fields(r) for r in stacked] == [_fit_fields(r) for r in singles]
    assert [isinstance(r, EstimationError) for r in stacked] == [
        failing == "alpha" or failing == "seed" and i == 0 for i in range(len(seeds))]


def test_a_stack_fits_a_dataset_without_users():
    empty = RatingDataset.from_arrays(0, 3, 2, [], [], [])
    config = FitConfig(2, max_iters=3)
    stacked = _fit_stack(empty, ModelSpec("mm-none", config), [0, 1])
    assert [_fit_fields(r) for r in stacked] == [
        _fit_fields(fit_mar(empty, replace(config, seed=seed))) for seed in (0, 1)]
    stacked = _fit_stack(empty, ModelSpec("mm-cptv", config, np.full(2, 0.5), 10.0), [0, 1])
    assert [_fit_fields(r) for r in stacked] == [_fit_fields(
        fit_nmar(empty, replace(config, seed=seed), np.full(2, 0.5), 10.0)) for seed in (0, 1)]


def test_an_empty_grid_starts_no_process(small_split, monkeypatch):
    split, _ = small_split
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    assert run_protocol(split, [], (0, 1)) == []
    os.fork.assert_not_called()


def test_write_report_formatting(tmp_path):
    rows = [{c: "" for c in REPORT_COLUMNS}]
    rows[0].update(model="constant", seed=0, train_mae=0.5, test_mae=1.25,
                   iterations=3, converged=1, agg=0)
    write_report(tmp_path / "r.csv", rows)
    lines = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[1] == "constant,,,,0,0.5,1.25,,,3,1,0"
    assert format_cell(np.float64(1) / 3) == "0.33333333333333331"
    assert format_cell(None) == ""
    assert format_cell(True) == "1"

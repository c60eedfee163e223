
import multiprocessing
import multiprocessing.pool
import os
from unittest import mock

import numpy as np
import pytest

from missmix import protocol
from missmix.cptv import YAHOO_MU
from missmix.data import RatingDataset, SplitPair
from missmix.errors import (ConfigurationError, DataValidationError,
                            EvaluationError)
from missmix.mixture import FitConfig
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
    pool = mock.Mock(wraps=multiprocessing.pool.Pool)
    with mock.patch("multiprocessing.pool.Pool", pool), pytest.warns(UserWarning) as pooled:
        rows = run_protocol(split, specs, seeds)
    # the grid ran on a pool wherever two CPUs are available
    assert pool.call_count == int(two_cpus)
    assert multiprocessing.active_children() == [] and protocol._split is None

    # one (spec, seed) at a time runs in this process
    with mock.patch("multiprocessing.pool.Pool", pool), pytest.warns(UserWarning) as serial:
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
    fit_spec = protocol.fit_spec

    def fit_or_refuse(train, spec):
        if spec.config.seed == 1:
            raise ConfigurationError("no fit for seed 1")
        return fit_spec(train, spec)

    # the forked workers inherit the patched module
    monkeypatch.setattr(protocol, "fit_spec", fit_or_refuse)
    spec = ModelSpec(family="mm-none", config=FitConfig(2, max_iters=5))
    with pytest.raises(ConfigurationError, match="^no fit for seed 1$"):
        run_protocol(split, [spec], (0, 1, 2))
    assert multiprocessing.active_children() == [] and protocol._split is None


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

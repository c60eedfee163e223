
import numpy as np
import pytest

from missmix.cptv import YAHOO_MU
from missmix.data import RatingDataset, SplitPair
from missmix.errors import ConfigurationError, DataValidationError
from missmix.protocol import (ModelSpec, ProtocolConfig, REPORT_COLUMNS,
                              format_cell, run_protocol, write_report)
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
        ModelSpec(family="mm-cptv", n_components=2)
    # mu, its prior and the smoothing are checked before any fit runs
    for bad in (dict(mu=[0.5, np.nan]),
                dict(mu=[0.5, 2.0]),
                dict(mu=[0.5, 0.5], strength=np.nan),
                dict(mu=[0.5, 0.5], strength=1.5),
                dict(mu=[0.5, 0.5], alpha=np.nan),
                dict(mu=[0.5, 0.5], n_components=0)):
        with pytest.raises(ConfigurationError):
            ModelSpec(family="mm-cptv", **bad)
    ModelSpec(family="mm-cptv", n_components=2, mu=np.full(5, 0.2))
    ModelSpec(family="mm-cptv", n_components=2, mu=np.full(5, 0.2),
              strength=100.0)


def test_run_protocol_report_structure(small_split):
    split, truth = small_split
    specs = [ModelSpec(family="constant"),
             ModelSpec(family="mm-none", n_components=2),
             ModelSpec(family="mm-cptv", n_components=2, mu=truth.mu)]
    config = ProtocolConfig(max_iters=40, rel_tol=1e-5, seeds=(0, 1))
    rows = run_protocol(split, specs, config)
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
    rows = run_protocol(split, [ModelSpec(family="constant")],
                        ProtocolConfig(seeds=(0,)))
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
    split, _ = small_split
    spec = ModelSpec(family="mm-none", n_components=2)
    for bad in (dict(rel_tol=np.nan), dict(max_iters=0), dict(seeds=(0, -1))):
        with pytest.raises(ConfigurationError):
            run_protocol(split, [spec], ProtocolConfig(**{"seeds": (0,), **bad}))


def test_run_protocol_deterministic(small_split):
    split, truth = small_split
    specs = [ModelSpec(family="mm-cptv", n_components=2, mu=truth.mu)]
    config = ProtocolConfig(max_iters=30, seeds=(0, 1))
    a = run_protocol(split, specs, config)
    b = run_protocol(split, specs, config)
    assert a == b


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

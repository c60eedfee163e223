import numpy as np
import pytest

from missmix.cptv import CptvParams, MuMode, fit_nmar
from missmix.errors import ParseError
from missmix.mixture import FitConfig, fit_mar
from missmix.modelio import load_model, save_model
from missmix.synthetic import apply_cptv_missingness, sample_ground_truth


@pytest.fixture(scope="module")
def fitted():
    truth = sample_ground_truth(60, 8, 4, 2,
                                np.array([0.2, 0.4, 0.6, 0.9]), seed=30)
    ds = apply_cptv_missingness(truth, seed=31)
    cfg = FitConfig(n_components=2, seed=3, max_iters=40)
    plain = fit_mar(ds, cfg)
    aware = fit_nmar(ds, cfg, MuMode.learn(np.full(4, 5.0), np.full(4, 5.0)))
    return truth, plain, aware


def test_round_trip_plain_model(tmp_path, fitted):
    _, plain, _ = fitted
    path = tmp_path / "plain.model"
    save_model(path, plain.params)
    back = load_model(path)
    assert np.array_equal(back.params.theta, plain.params.theta)
    assert np.array_equal(back.params.beta, plain.params.beta)
    assert np.array_equal(back.params.alpha, plain.params.alpha)
    assert np.array_equal(back.params.phi, plain.params.phi)
    assert back.cptv is None and back.mu_mode is None and back.z is None


def test_round_trip_cptv_model(tmp_path, fitted):
    _, _, aware = fitted
    path = tmp_path / "aware.model"
    save_model(path, aware.params, cptv=aware.cptv, mu_mode=aware.mu_mode)
    back = load_model(path)
    assert np.array_equal(back.params.beta, aware.params.beta)
    assert np.array_equal(back.cptv.mu, aware.cptv.mu)
    assert np.array_equal(back.cptv.xi1, aware.cptv.xi1)
    assert np.array_equal(back.cptv.xi0, aware.cptv.xi0)
    assert back.mu_mode == "learn"


def test_round_trip_truth_with_assignments(tmp_path, fitted):
    truth, _, _ = fitted
    path = tmp_path / "truth.model"
    save_model(path, truth.params, cptv=CptvParams(mu=truth.mu), z=truth.z)
    back = load_model(path)
    assert back.params.alpha is None and back.params.phi is None
    assert np.array_equal(back.z, truth.z)
    assert np.array_equal(back.cptv.mu, np.clip(truth.mu, 1e-12, 1 - 1e-12))


def test_save_is_byte_stable(tmp_path, fitted):
    _, plain, _ = fitted
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(p1, plain.params)
    save_model(p2, plain.params)
    assert p1.read_bytes() == p2.read_bytes()


def _base_lines():
    return ["format_version 1", "kind mixture", "K 1", "M 1", "V 2",
            "theta 1", "beta 0.25 0.75"]


def _write(tmp_path, lines, name="m.model"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_rejects_malformed_files(tmp_path):
    ok = load_model(_write(tmp_path, _base_lines()))
    assert ok.params.beta.shape == (2, 1, 1)

    cases = [
        (_base_lines()[1:], "missing required key"),            # no version
        (_base_lines() + ["kind mixture"], "duplicate"),
        (["format_version 2"] + _base_lines()[1:], "format_version"),
        (_base_lines()[:6] + ["beta 0.25"], "must hold 2"),
        (_base_lines() + ["what 1"], "unknown key"),
        (_base_lines()[:6] + ["beta 0.25 zebra"], "malformed float"),
        (_base_lines() + ["z 0 x"], "malformed integer"),
        (_base_lines() + ["mu 0.5 0.5"], "kind is plain"),
        (["format_version 1", "kind mixture+cptv"] + _base_lines()[2:],
         "requires a mu"),
    ]
    for i, (lines, match) in enumerate(cases):
        with pytest.raises(ParseError, match=match):
            load_model(_write(tmp_path, lines, name=f"bad{i}.model"))


def test_comments_and_blanks_ignored(tmp_path):
    lines = ["# header", ""] + _base_lines() + ["", "# trailing"]
    model = load_model(_write(tmp_path, lines))
    assert model.params.theta.tolist() == [1.0]

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missmix import cli
from missmix.cli import main
from missmix.cptv import CptvParams
from missmix.data import load_csv, write_int_csv
from missmix.errors import MEMORY_EXIT_CODE
from missmix.mixture import MixtureParams
from missmix.modelio import FORMAT_VERSION, load_model, save_model
from missmix.predict import (mae, posterior_z, predict_median,
                             predictive_distribution)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    prefix = str(root / "s")
    rc = main(["generate", "--out", prefix, "-N", "250", "-M", "25", "-K", "3",
               "--per-user-test", "4", "--min-train", "4", "--seed", "4"])
    assert rc == 0
    return prefix


def test_generate_outputs(study):
    train = load_csv(study + ".train.csv")
    test = load_csv(study + ".test.csv")
    truth = load_model(study + ".truth.model")
    assert train.n_obs > 0 and test.n_obs > 0
    assert truth.cptv is not None
    np.testing.assert_allclose(truth.cptv.mu,
                               np.array([0.014, 0.011, 0.027, 0.063, 0.225]) * 4)
    assert truth.z is not None


def test_train_and_predict(study, tmp_path, capsys):
    model_path = str(tmp_path / "m.model")
    rc = main(["train", study + ".train.csv", "--model", "mm-cptv", "-K", "3",
               "--mu", "yahoo", "--mu-scale", "4.0", "--max-iters", "80",
               "--out", model_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged" in out and "missing_value_attribution" in out
    attr_line = [l for l in out.splitlines()
                 if l.startswith("missing_value_attribution")][0]
    attr = np.array([float(t) for t in attr_line.split()[1:]])
    assert attr.sum() == pytest.approx(1.0, abs=1e-6)

    trace = (tmp_path / "m.model.trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,log_posterior"
    lps = np.array([float(l.split(",")[1]) for l in trace[1:]])
    assert (np.diff(lps) >= -1e-9 * np.abs(lps[1:])).all()

    pairs = tmp_path / "pairs.csv"
    pairs.write_text("user,item\n0,0\n1,3\n2,7\n", encoding="utf-8")
    preds = str(tmp_path / "preds.csv")
    rc = main(["predict", study + ".train.csv", "--model", model_path,
               "--pairs", str(pairs), "--out", preds])
    assert rc == 0
    lines = (tmp_path / "preds.csv").read_text().splitlines()
    assert lines[0] == "user,item,prediction"
    assert len(lines) == 4
    for line in lines[1:]:
        assert 1 <= int(line.split(",")[2]) <= 5


def test_train_reruns_are_byte_identical(study, tmp_path):
    a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    args = ["train", study + ".train.csv", "--model", "mm-none", "-K", "2",
            "--max-iters", "40"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()
    assert (tmp_path / "a.model.trace.csv").read_bytes() == \
        (tmp_path / "b.model.trace.csv").read_bytes()


def test_evaluate_writes_report(study, tmp_path):
    report = str(tmp_path / "report.csv")
    rc = main(["evaluate", study + ".train.csv", study + ".test.csv",
               "--families", "mm-none,mm-cptv,constant", "-K", "1,2",
               "--seeds", "0,1", "--mu", "yahoo", "--mu-scale", "4",
               "--max-iters", "50", "--out", report])
    assert rc == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].startswith("model,K,mu_mode,S,seed,")
    # 2 families x 2 K x 2 seeds + constant x 2 seeds = 10 rows + 5 agg
    assert len(lines) == 1 + 15
    agg = [l for l in lines[1:] if l.endswith(",1")]
    assert len(agg) == 5


def test_evaluate_of_constant_models_alone_writes_its_report(study, tmp_path):
    # no fitted family, so no K sizes the dense-table check
    report = tmp_path / "report.csv"
    assert main(["evaluate", study + ".train.csv", study + ".test.csv",
                 "--families", "constant", "--seeds", "0,1",
                 "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["constant"] * 3
    # every fit flag and the seeds are still checked
    for flags in (["--tol", "nan"], ["--max-iters", "0"], ["--seeds", "0,-1"],
                  ["--alpha", "nan"], ["--phi", "0.5"], ["-K", "x"], ["-K", "0"]):
        assert main(["evaluate", study + ".train.csv", study + ".test.csv",
                     "--families", "constant", "--out", str(tmp_path / "r.csv"),
                     *flags]) == 3, flags
    assert not (tmp_path / "r.csv").exists()


def test_analyze_compare_without_items_or_values_is_an_evaluation_error(
        tmp_path, capsys):
    empty = tmp_path / "e.csv"
    empty.write_text("user,item,rating\n", encoding="utf-8")
    for dims in (["--dims", "0,0,5"], []):
        assert main(["analyze", str(empty), "--compare", str(empty), *dims]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: no items or no rating values to compare\n"


def test_analyze_report(study, tmp_path, capsys):
    out = str(tmp_path / "analysis.txt")
    rc = main(["analyze", study + ".train.csv", "--compare", study + ".test.csv",
               "--out", out])
    assert rc == 0
    text = (tmp_path / "analysis.txt").read_text()
    assert "# value_histogram" in text
    assert "# skl_bits" in text
    assert "median," in text
    assert "# paired_difference_histogram" in text
    # without --out the same report goes to stdout
    capsys.readouterr()
    assert main(["analyze", study + ".train.csv", "--compare", study + ".test.csv"]) == 0
    assert capsys.readouterr() == (text, "")


def test_estimate_mu_output(study, capsys):
    rc = main(["estimate-mu", study + ".train.csv", study + ".test.csv",
               "--exposure", "21"])
    assert rc == 0
    out = capsys.readouterr().out
    mu = np.array([float(t) for t in out.split()[1:]])
    assert mu.shape == (5,)
    assert ((mu > 0) & (mu < 1)).all()


def test_estimate_mu_without_dims_covers_a_probe_that_misses_a_value(tmp_path, capsys):
    # the self-selected ratings reach 5; the small random probe stops at 4
    train, probe = tmp_path / "train.csv", tmp_path / "probe.csv"
    train.write_text("user,item,rating\n" + "".join(
        f"{u},{m},{1 + (u + m) % 5}\n" for u in range(6) for m in range(5)),
        encoding="utf-8")
    probe.write_text("user,item,rating\n" + "".join(
        f"{u},{m},{1 + u * m % 4}\n" for u in range(6) for m in range(5, 8)),
        encoding="utf-8")
    lines = []
    for dims in ([], ["--dims", "6,8,5"]):
        assert main(["estimate-mu", str(train), str(probe), "--exposure", "100",
                     *dims]) == 0, dims
        out, err = capsys.readouterr()
        assert out.startswith("mu ") and len(out.split()) == 6 and err == ""
        lines.append(out)
    assert lines[0] == lines[1]


def test_predict_without_dims_covers_the_models_items_and_values(study, tmp_path):
    model = str(tmp_path / "m.model")
    assert main(["train", study + ".train.csv", "--model", "mm-cptv", "-K", "2",
                 "--mu", "yahoo", "--max-iters", "5", "--out", model]) == 0
    # conditioning ratings without the top value and the last items
    train = load_csv(study + ".train.csv")
    keep = (train.values < train.n_values) & (train.items < train.n_items - 3)
    cond = tmp_path / "cond.csv"
    write_int_csv(cond, "user,item,rating", train.users[keep], train.items[keep],
                  train.values[keep])
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("user,item\n0,0\n1,22\n2,24\n", encoding="utf-8")
    n_users = int(train.users[keep].max()) + 1
    dims = f"{n_users},{train.n_items},{train.n_values}"
    for name, flags in (("inferred.csv", []), ("explicit.csv", ["--dims", dims])):
        assert main(["predict", str(cond), "--model", model, "--pairs", str(pairs),
                     "--out", str(tmp_path / name), *flags]) == 0, flags
    assert (tmp_path / "inferred.csv").read_bytes() == \
        (tmp_path / "explicit.csv").read_bytes()


@pytest.fixture(scope="module")
def inputs(study, tmp_path_factory):
    """Uniform one-component models over the study's items and over three,
    header-only pairs and ratings files, a pairs file whose user is past
    the study's last, one with four items past the study's last, and a
    rating two models give probability zero."""
    root = tmp_path_factory.mktemp("inputs")
    train = load_csv(study + ".train.csv")
    V = train.n_values
    for name, m in (("full", train.n_items), ("small", 3)):
        save_model(root / f"{name}.model",
                   MixtureParams(theta=np.ones(1), beta=np.full((V, m, 1), 1.0 / V)))
    (root / "none.csv").write_text("user,item\n", encoding="utf-8")
    (root / "empty.csv").write_text("user,item,rating\n", encoding="utf-8")
    (root / "user.csv").write_text(f"user,item\n{train.n_users},0\n", encoding="utf-8")
    (root / "items.csv").write_text("user,item\n" + "".join(
        f"{u},{train.n_items + u}\n" for u in range(4)), encoding="utf-8")
    # item 0 never takes value 2 under the one component, so a user who rated
    # it 2 has no posterior
    zero = MixtureParams(theta=np.ones(1), beta=np.array([1, 0.5, 0, 0.5]).reshape(2, 2, 1))
    save_model(root / "zero.model", zero)
    save_model(root / "zero_cptv.model", zero, cptv=CptvParams(mu=np.array([0.5, 0.5])))
    (root / "zero.csv").write_text("user,item,rating\n0,0,2\n", encoding="utf-8")
    return str(root)


_PREDICT = ["predict", "{study}.train.csv", "--out", "{out}/p.csv"]


@pytest.mark.parametrize("argv, code, message", [
    (["train", "{study}.train.csv", "--model", "mm-cptv", "-K", "1", "--mu", "0.1,x",
      "--out", "{out}/m.model"], 3,
     "--mu must be a preset ['yahoo'] or comma-separated floats, got '0.1,x'"),
    (["evaluate", "{study}.train.csv", "{study}.test.csv", "-K", "1,x",
      "--out", "{out}/r.csv"], 3, "expected comma-separated integers, got '1,x'"),
    (["analyze", "{study}.train.csv", "--dims", "1,2"], 3,
     "--dims must be N,M,V, got '1,2'"),
    (_PREDICT + ["--model", "{inputs}/small.model", "--pairs", "{study}.test.csv"], 3,
     "model covers 3 items and 5 values; data has 25 and 5"),
    (_PREDICT + ["--model", "{inputs}/full.model", "--pairs", "{inputs}/none.csv"], 2,
     "no pairs to predict"),
    (_PREDICT + ["--model", "{inputs}/full.model", "--pairs", "{inputs}/user.csv"], 2,
     "pair user index 217 out of range [0, 217)"),
    # no ratings to fit: one error for both commands, whether the empty file
    # infers dims (0, 0, 0) or --dims gives it some; not --mu's length either
    *[(argv + dims, 5, "the training data has no ratings") for argv in (
        ["train", "{inputs}/empty.csv", "--model", "mm-cptv", "-K", "1", "--mu", "yahoo",
         "--out", "{out}/m.model"],
        ["train", "{inputs}/empty.csv", "--model", "mm-none", "-K", "1",
         "--out", "{out}/m.model"],
        ["evaluate", "{inputs}/empty.csv", "{inputs}/empty.csv", "--families", "mm-none",
         "-K", "1", "--out", "{out}/r.csv"],
    ) for dims in ([], ["--dims", "3,3,5"])],
    # a self-selected file with no ratings, which printed mu clamped to 1e-12
    (["estimate-mu", "{inputs}/empty.csv", "{study}.test.csv", "--exposure", "10"], 5,
     "self-selected training data is empty"),
    # a rating both models give probability zero, whose NaN posterior
    # predicted 1 with exit 0 and a RuntimeWarning
    *[(["predict", "{inputs}/zero.csv", "--model", f"{{inputs}}/{name}.model",
        "--pairs", "{inputs}/zero.csv", "--out", "{out}/p.csv"], 5,
       "user 0 has probability zero under every model component")
      for name in ("zero", "zero_cptv")],
    # pair ids follow the range-error rule of ratings files: the first three
    # entries, then the count of the rest
    (_PREDICT + ["--model", "{inputs}/full.model", "--pairs", "{inputs}/items.csv"], 2,
     "pair item index 25 out of range [0, 25); pair item index 26 out of range [0, 25);"
     " pair item index 27 out of range [0, 25); and 1 more"),
    # --dims is checked before any file is read, so a missing ratings file,
    # which exited 4, leaves the exit code to the dims
    (["analyze", "{out}/nope.csv", "--dims", "100000000,100000000,5"], 3,
     "analyze on (N, M, V, K) = (100000000, 100000000, 5, 1) needs a dense table"
     " of 500000000 cells, over the budget of 268435456"),
    (["analyze", "{out}/nope.csv", "--dims=-1,5,5"], 2,
     "dimensions must be >= 0, got (-1, 5, 5)"),
    (["train", "{out}/nope.csv", "--model", "mm-none", "-K", "1",
      "--dims", "1844674407370955163,11,4", "--out", "{out}/m.model"], 2,
     "dimensions (1844674407370955163, 11, 4) overflow the int64 pair keys"
     " (N * M >= 2**63); pass smaller --dims"),
    (["predict", "{out}/nope.csv", "--model", "{inputs}/full.model", "--pairs",
      "{out}/nope.csv", "--dims", "1000000000,25,5", "--out", "{out}/p.csv"], 3,
     "predict on (N, M, V, K) = (1000000000, 25, 5, 1) needs a dense table"
     " of 1000000001 cells, over the budget of 268435456"),
])
def test_bad_input_exits_with_its_code_and_one_error_line(
        study, inputs, tmp_path, capsys, argv, code, message):
    fill = dict(study=study, out=tmp_path, inputs=inputs)
    assert main([a.format(**fill) for a in argv]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_predict_on_an_empty_ratings_file_needs_dims(study, inputs, tmp_path, capsys):
    # the empty file gives no user count, which blamed the pairs file; with
    # --dims every pair is predicted from the prior, the uniform model's median 3
    empty, out = f"{inputs}/empty.csv", tmp_path / "p.csv"
    argv = ["predict", empty, "--model", f"{inputs}/full.model",
            "--pairs", study + ".test.csv", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {empty} has no ratings to give the"
                                   " number of users; pass --dims N,M,V to predict"
                                   " from the prior\n")
    assert list(tmp_path.iterdir()) == []
    train, test = load_csv(study + ".train.csv"), load_csv(study + ".test.csv")
    assert main(argv + ["--dims", f"{train.n_users},{train.n_items},{train.n_values}"]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows == ["user,item,prediction"] + [
        f"{u},{m},3" for u, m in zip(test.users, test.items)]


_SCIPY_PROBE = """
import sys
from missmix.cli import main

def loaded():
    print("scipy:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

out = sys.argv[1]
for argv in (["generate", "--out", out, "-N", "60", "-M", "12", "-K", "2",
              "--per-user-test", "3", "--min-train", "3"],
             ["analyze", out + ".train.csv", "--compare", out + ".test.csv",
              "--out", out + ".analysis"],
             ["estimate-mu", out + ".train.csv", out + ".test.csv", "--exposure", "9"]):
    assert main(argv) == 0, argv
loaded()
assert main(["train", out + ".train.csv", "--model", "mm-none", "-K", "2",
             "--max-iters", "3", "--out", out + ".model"]) == 0
loaded()
"""


def test_no_command_imports_scipy_sparse_or_special(tmp_path):
    # generate, analyze and estimate-mu load nothing of scipy; a fit loads
    # only the two compiled modules it calls, by file, without their packages
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "s")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = [line.split()[1:] for line in done.stdout.splitlines()
                     if line.startswith("scipy:")]
    assert before == []
    assert after == ["scipy.sparse._sparsetools", "scipy.special._special_ufuncs"]


@pytest.mark.parametrize("flags, message", [
    (["--per-user-test", "0"], "per_user_test must be in 1..20, got 0"),
    (["--per-user-test", "21"], "per_user_test must be in 1..20, got 21"),
    (["--min-train", "-1"], "min_train must be >= 0, got -1"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_generate_checks_every_flag_before_it_samples(tmp_path, capsys, flags, message):
    argv = ["generate", "--out", str(tmp_path / "g"), "-N", "30", "-M", "20", *flags]
    with mock.patch("missmix.cli.sample_ground_truth") as sample:
        assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not sample.called
    assert list(tmp_path.iterdir()) == []


# A valid evaluate grid after its two ratings files; each case adds the flags
# that make it bad.
_GRID = ["--families", "constant,mm-none", "-K", "1,2", "--seeds", "0,1",
         "--max-iters", "3", "--out", "{out}/r.csv"]


@pytest.mark.parametrize("train, test, flags, code, message", [
    # a bad flag next to a missing train file is reported for the flag
    ("{out}/nope.csv", "{study}.test.csv", ["--seeds", "0,-1"], 3,
     "seed must be >= 0, got -1"),
    ("{out}/nope.csv", "{study}.test.csv", ["--families", "mm-none,nonsense"], 3,
     "family must be one of ('mm-none', 'mm-cptv', 'constant'), got 'nonsense'"),
    ("{out}/nope.csv", "{study}.test.csv",
     ["--families", "mm-cptv", "--mu", "0.5,0.5,nan,0.5,0.5"], 3,
     "mu must be a 1-d vector of probabilities in [0, 1]"),
    # repeated grid entries, which wrote the same rows twice
    ("{out}/nope.csv", "{study}.test.csv", ["--seeds", "0,0"], 3,
     "seeds must be distinct, got 0,0"),
    ("{out}/nope.csv", "{study}.test.csv", ["--families", "constant,constant"], 3,
     "--families must be distinct, got constant,constant"),
    ("{out}/nope.csv", "{study}.test.csv", ["-K", "2,1,2"], 3,
     "-K must be distinct, got 2,1,2"),
    # an empty side, which wrote blank rows and warned
    ("{study}.train.csv", "{inputs}/empty.csv", [], 5,
     "the test data has no ratings"),
    ("{inputs}/empty.csv", "{study}.test.csv", [], 5,
     "the training data has no ratings"),
], ids=["negative-seed", "unknown-family", "nan-mu", "repeated-seed", "repeated-family",
        "repeated-K", "empty-test", "empty-train"])
def test_evaluate_checks_its_inputs_before_reading_a_file_or_fitting(
        study, inputs, tmp_path, capsys, train, test, flags, code, message):
    fill = dict(study=study, out=tmp_path, inputs=inputs)
    argv = [a.format(**fill) for a in ["evaluate", train, test, *_GRID, *flags]]
    with mock.patch("missmix.protocol._fit_and_score") as fit:
        assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not fit.called
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 2.00 GiB for an array"),
     "error: out of memory: Unable to allocate 2.00 GiB for an array\n"),
])
def test_exit_code_out_of_memory(study, tmp_path, capsys, exc, line):
    out = tmp_path / "m.model"
    with mock.patch.object(cli, "fit_spec", side_effect=exc):
        rc = main(["train", study + ".train.csv", "--model", "mm-none", "-K", "2",
                   "--out", str(out)])
    assert rc == MEMORY_EXIT_CODE == 6
    assert capsys.readouterr() == ("", line)
    assert not out.exists()


def test_exit_code_missing_file(tmp_path):
    rc = main(["train", str(tmp_path / "nope.csv"), "--model", "mm-none",
               "-K", "2", "--out", str(tmp_path / "m.model")])
    assert rc == 4


def test_exit_code_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("user,item,rating\n0,0\n", encoding="utf-8")
    rc = main(["train", str(bad), "--model", "mm-none", "-K", "2",
               "--out", str(tmp_path / "m.model")])
    assert rc == 2


def test_exit_code_bad_configuration(study, tmp_path):
    out = str(tmp_path / "m.model")
    assert main(["train", study + ".train.csv", "--model", "mm-none",
                 "-K", "0", "--out", out]) == 3
    assert main(["train", study + ".train.csv", "--model", "mm-cptv",
                 "-K", "2", "--out", out]) == 3
    assert main(["train", study + ".train.csv", "--model", "mm-cptv",
                 "-K", "2", "--mu", "0.5,0.5", "--out", out]) == 3
    assert main(["train", study + ".train.csv", "--model", "mm-cptv",
                 "-K", "2", "--mu", "yahoo", "--mu-mode", "learn",
                 "--out", out]) == 3
    # non-finite or out-of-range numbers, which used to run on silently
    cptv = ["train", study + ".train.csv", "--model", "mm-cptv", "-K", "2",
            "--max-iters", "3", "--out", out]
    for flags in (["--mu", "0.5,2,0.5,0.5,0.5"],
                  ["--mu", "0.5,0.5,nan,0.5,0.5"],
                  ["--mu", "0.5,0.5,nan,0.5,0.5", "--mu-mode", "learn",
                   "-S", "100"],
                  ["--mu", "yahoo", "--mu-mode", "learn", "-S", "nan"],
                  ["--mu", "yahoo", "--alpha", "nan"],
                  ["--mu", "yahoo", "--phi", "nan"],
                  ["--mu", "yahoo", "--tol", "nan"],
                  ["--mu", "yahoo", "--tol", "inf"],
                  ["--mu", "yahoo", "--seed", "-1"],
                  # a prior strength only means something in learn mode
                  ["--mu", "yahoo", "-S", "nan"],
                  ["--mu", "yahoo", "-S", "100"]):
        assert main(cptv + flags) == 3, flags
    gen = ["generate", "--out", str(tmp_path / "g"), "-N", "20", "-M", "5"]
    assert main(gen + ["--concentration", "nan"]) == 3
    assert main(gen + ["--concentration", "1e308"]) == 3
    assert main(gen + ["--seed", "-1"]) == 3
    assert main(gen + ["--mu", "0.5,0.5,nan,0.5,0.5", "--mu-scale", "1"]) == 3


def test_exit_code_pair_out_of_range(study, tmp_path):
    model_path = str(tmp_path / "m.model")
    assert main(["train", study + ".train.csv", "--model", "mm-none", "-K", "1",
                 "--max-iters", "5", "--out", model_path]) == 0
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("user,item\n0,99999\n", encoding="utf-8")
    rc = main(["predict", study + ".train.csv", "--model", model_path,
               "--pairs", str(pairs), "--out", str(tmp_path / "p.csv")])
    assert rc == 2


def test_exit_code_generation_failure(tmp_path):
    # 5 items minus 2 probed leaves at most 3 train cells, below min-train 4
    rc = main(["generate", "--out", str(tmp_path / "g"), "-N", "20", "-M", "5",
               "--per-user-test", "2", "--min-train", "4", "--seed", "0"])
    assert rc == 5


def test_dims_flag(study, tmp_path):
    # widen the value range beyond what the file mentions
    rc = main(["analyze", study + ".train.csv", "--dims", "250,25,7",
               "--out", str(tmp_path / "a.txt")])
    assert rc == 0
    lines = (tmp_path / "a.txt").read_text().splitlines()
    assert lines[-1].startswith("7,")


def test_negative_dims_are_a_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("user,item,rating\n", encoding="utf-8")
    assert main(["train", str(empty), "--model", "mm-none", "-K", "1",
                 "--dims=-1,5,5", "--out", str(tmp_path / "m.model")]) == 2
    assert main(["analyze", str(empty), "--dims=0,-3,5"]) == 2
    assert capsys.readouterr().err.count("dimensions must be >= 0") == 2


def test_train_and_evaluate_share_one_fit(study, tmp_path):
    train, test = load_csv(study + ".train.csv"), load_csv(study + ".test.csv")
    dims = ",".join(str(max(getattr(train, d), getattr(test, d)))
                    for d in ("n_users", "n_items", "n_values"))
    flags = ["-K", "2", "--mu", "yahoo", "--mu-scale", "4", "--mu-mode",
             "learn", "-S", "300", "--alpha", "1.5", "--max-iters", "20",
             "--dims", dims]
    model_path = str(tmp_path / "m.model")
    assert main(["train", study + ".train.csv", "--model", "mm-cptv", "--seed",
                 "1", "--out", model_path] + flags) == 0
    report = tmp_path / "report.csv"
    assert main(["evaluate", study + ".train.csv", study + ".test.csv",
                 "--families", "mm-cptv", "--seeds", "1", "--out", str(report)]
                + flags) == 0
    header, row = report.read_text().splitlines()[:2]
    reported = float(row.split(",")[header.split(",").index("train_mae")])

    model = load_model(model_path)
    train = load_csv(study + ".train.csv", dims=tuple(map(int, dims.split(","))))
    q = posterior_z(model.params, train, cptv=model.cptv)
    pred = predict_median(predictive_distribution(model.params, q, train.users,
                                                  train.items))
    assert mae(pred, train.values) == reported


def test_evaluate_exit_code_bad_configuration(study, tmp_path):
    args = ["evaluate", study + ".train.csv", study + ".test.csv", "-K", "1",
            "--seeds", "0", "--out", str(tmp_path / "r.csv")]
    assert main(args + ["--families", "mm-none,nonsense"]) == 3
    assert main(args + ["--families", "mm-cptv"]) == 3
    assert main(args + ["--families", "mm-cptv", "--mu", "yahoo",
                        "--mu-mode", "learn"]) == 3
    # checked before any fit runs, so no report of blank rows is written
    for flags in (["--mu", "yahoo", "--mu-mode", "learn", "-S", "5"],
                  ["--mu", "0.5,0.5,0.5,0.5,nan"],
                  ["--mu", "0.5,2,0.5,0.5,0.5"],
                  ["--mu", "yahoo", "--alpha", "nan"],
                  ["--mu", "yahoo", "--tol", "nan"],
                  ["--mu", "yahoo", "-S", "nan"],
                  ["--mu", "yahoo", "--seeds", "0,-1"]):
        assert main(args + ["--families", "mm-cptv"] + flags) == 3, flags
    assert not (tmp_path / "r.csv").exists()


def test_mu_flags_need_each_other_and_an_mm_cptv_model(study, tmp_path, capsys):
    train = ["train", study + ".train.csv", "-K", "2", "--max-iters", "3",
             "--out", str(tmp_path / "m.model")]
    evaluate = ["evaluate", study + ".train.csv", study + ".test.csv", "-K", "1",
                "--seeds", "0", "--max-iters", "3", "--out", str(tmp_path / "r.csv")]
    # each ran before, ignoring the flags an mm-none or constant model has no use for
    for argv, message in (
            (train + ["--model", "mm-none", "--mu-mode", "learn", "-S", "nan"],
             "--mu, --mu-scale and -S need an mm-cptv model"),
            (train + ["--model", "mm-none", "--mu-mode", "learn", "-S", "300"],
             "--mu, --mu-scale and -S need an mm-cptv model"),
            (evaluate + ["--families", "mm-none,constant", "--mu-mode", "learn",
                         "-S", "300"], "--mu, --mu-scale and -S need an mm-cptv model"),
            (train + ["--model", "mm-none", "-S", "300"],
             "--mu-mode learn and -S go together"),
            (evaluate + ["--families", "constant", "--mu-mode", "learn"],
             "--mu-mode learn and -S go together")):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_mu_flags_need_an_mm_cptv_model_and_mm_cptv_needs_mu(study, tmp_path, capsys):
    train = ["train", study + ".train.csv", "-K", "2", "--max-iters", "3",
             "--out", str(tmp_path / "m.model")]
    evaluate = ["evaluate", study + ".train.csv", study + ".test.csv", "-K", "1",
                "--seeds", "0", "--max-iters", "3", "--out", str(tmp_path / "r.csv")]
    # the first four exited 0, ignoring --mu and --mu-scale
    for argv, message in (
            (train + ["--model", "mm-none", "--mu", "0.5,nan", "--mu-scale", "7"],
             "--mu, --mu-scale and -S need an mm-cptv model"),
            (train + ["--model", "mm-none", "--mu", "yahoo"],
             "--mu, --mu-scale and -S need an mm-cptv model"),
            (train + ["--model", "mm-none", "--mu-scale", "1"],
             "--mu, --mu-scale and -S need an mm-cptv model"),
            (evaluate + ["--families", "mm-none,constant", "--mu", "yahoo"],
             "--mu, --mu-scale and -S need an mm-cptv model"),
            (train + ["--model", "mm-cptv"], "mm-cptv needs a mu vector (--mu)"),
            (train + ["--model", "mm-cptv", "--mu-scale", "4"],
             "mm-cptv needs a mu vector (--mu)")):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
    # without --mu-scale, --mu is taken as given
    cptv = train + ["--model", "mm-cptv", "--mu", "0.1,0.2,0.3,0.4,0.5"]
    assert main(cptv) == 0
    first = (tmp_path / "m.model").read_bytes()
    assert main(cptv + ["--mu-scale", "1"]) == 0
    assert (tmp_path / "m.model").read_bytes() == first


def test_size_flags_stop_before_any_table_is_allocated(study, tmp_path, capsys,
                                                       monkeypatch):
    train = ["train", study + ".train.csv", "--model", "mm-none", "--max-iters", "1",
             "--out", str(tmp_path / "m.model")]
    # each asks for a table numpy cannot or should not allocate; without the
    # check, the large M makes the first big request one no machine can grant
    for argv in (train + ["-K", str(10**20)],
                 train + ["-K", "30000000", "--dims", "250,1000000,5"],
                 ["evaluate", study + ".train.csv", study + ".test.csv", "--families",
                  "mm-none", "-K", "1,30000000", "--dims", "250,1000000,5",
                  "--out", str(tmp_path / "r.csv")],
                 ["analyze", study + ".train.csv", "--dims", f"250,25,{10**20}"],
                 ["generate", "--out", str(tmp_path / "g"), "-M", str(10**12)]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "over the budget of" in err
    assert list(tmp_path.iterdir()) == []
    # --dims 1000000000,200,5 sizes an N + 1 row index from one flag; a
    # budget of the study's N stands in for it, one cell short
    monkeypatch.setattr(cli, "DENSE_CELL_BUDGET", 250)
    assert main(train + ["-K", "1", "--dims", "250,25,5"]) == 3
    assert "needs a dense table of 251 cells" in capsys.readouterr().err
    monkeypatch.setattr(cli, "DENSE_CELL_BUDGET", 251)
    assert main(train + ["-K", "1", "--dims", "250,25,5"]) == 0
    # generate holds an N x M table (600 cells here) and a V x M x K one (500),
    # not the N x M x V (3000) it was charged for before
    generate = ["generate", "--out", str(tmp_path / "g"), "-N", "30", "-M", "20",
                "-V", "5", "--min-train", "0"]
    monkeypatch.setattr(cli, "DENSE_CELL_BUDGET", 599)
    assert main(generate) == 3
    assert "needs a dense table of 600 cells" in capsys.readouterr().err
    monkeypatch.setattr(cli, "DENSE_CELL_BUDGET", 600)
    assert main(generate) == 0


def test_predict_rejects_invalid_model(study, tmp_path):
    # a model that covers the data, with one NaN rating probability
    train = load_csv(study + ".train.csv")
    beta = np.full((train.n_values, train.n_items, 1), 1.0 / train.n_values)
    beta[0, 0, 0] = np.nan
    model = tmp_path / "nan.model"
    save_model(model, MixtureParams(theta=np.ones(1), beta=beta))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("user,item\n0,0\n", encoding="utf-8")
    rc = main(["predict", study + ".train.csv", "--model", str(model),
               "--pairs", str(pairs), "--out", str(tmp_path / "p.csv")])
    assert rc == 2


def test_non_utf8_input_is_a_parse_error(study, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"user,item,rating\n0,0,\xff\n")
    model_path = str(tmp_path / "m.model")
    assert main(["train", study + ".train.csv", "--model", "mm-none", "-K", "1",
                 "--max-iters", "2", "--out", model_path]) == 0
    predict = ["predict", study + ".train.csv", "--out", str(tmp_path / "p.csv")]
    assert main(["analyze", str(bad)]) == 2
    assert main(predict + ["--model", model_path, "--pairs", str(bad)]) == 2
    assert main(predict + ["--model", str(bad),
                           "--pairs", study + ".test.csv"]) == 2


def test_rows_outside_the_csv_grammar_exit_2(study, tmp_path, capsys):
    model_path = str(tmp_path / "m.model")
    assert main(["train", study + ".train.csv", "--model", "mm-none", "-K", "1",
                 "--max-iters", "2", "--out", model_path]) == 0
    for i, (text, message) in enumerate([
            ("user,item\n99999999999999999999,0\n", "line 2: integer out of int64 range"),
            ("user,item\n0,0\n0,1,2,3\n", "line 3: expected 2 to 3 comma-separated"
                                          " fields, got 4"),
            ("user,item\n0,-1\n", "line 2: negative id in '0,-1'")]):
        pairs = tmp_path / f"pairs{i}.csv"
        pairs.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", study + ".train.csv", "--model", model_path,
                     "--pairs", str(pairs), "--out", str(tmp_path / "p.csv")]) == 2
        assert message in capsys.readouterr().err
    ratings = tmp_path / "r.csv"
    ratings.write_text("user,item,rating\n99999999999999999999,1,2\n", encoding="utf-8")
    assert main(["analyze", str(ratings)]) == 2
    assert "line 2: integer out of int64 range" in capsys.readouterr().err


def _uneven_halves(tmp_path):
    # test mentions users and items train does not; train's values stop at 4
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text("user,item,rating\n" + "".join(
        f"{u},{m},{1 + (u + m) % 4}\n" for u in range(6) for m in range(4)
        if (u + m) % 3), encoding="utf-8")
    test.write_text("user,item,rating\n" + "".join(
        f"{u},{m},{1 + u * m % 5}\n" for u in range(8) for m in range(6)
        if (u + m) % 3 == 0), encoding="utf-8")
    return train, test


def test_evaluate_infers_the_joint_dims_of_both_halves(tmp_path):
    train, test = _uneven_halves(tmp_path)
    args = ["evaluate", str(train), str(test), "--families",
            "constant,mm-none,mm-cptv", "--mu", "yahoo", "-K", "1,2",
            "--seeds", "0,1", "--max-iters", "10"]
    inferred, explicit = tmp_path / "inferred.csv", tmp_path / "explicit.csv"
    assert main(args + ["--out", str(inferred)]) == 0
    assert main(args + ["--dims", "8,6,5", "--out", str(explicit)]) == 0
    assert inferred.read_bytes() == explicit.read_bytes()


def test_analyze_compare_infers_the_joint_dims_as_evaluate_does(tmp_path):
    train, test = _uneven_halves(tmp_path)
    inferred, explicit = tmp_path / "inferred.txt", tmp_path / "explicit.txt"
    assert main(["analyze", str(train), "--compare", str(test),
                 "--out", str(inferred)]) == 0
    assert main(["analyze", str(train), "--compare", str(test),
                 "--dims", "8,6,5", "--out", str(explicit)]) == 0
    text = inferred.read_text(encoding="utf-8")
    assert text == explicit.read_text(encoding="utf-8")
    # five values and six items on both sides, and the paired differences
    assert "\n5,0\n# skl_bits" in text and "\n5," in text.split("item,skl_bits")[1]
    assert "# paired_difference_histogram" in text


def test_a_non_finite_objective_is_an_estimation_error(study, tmp_path, capsys):
    out = str(tmp_path / "m.model")
    train = ["train", study + ".train.csv", "-K", "2", "--out", out]
    for flags in (["--model", "mm-none", "--alpha", "1e308"],
                  ["--model", "mm-none", "--phi", "1e308"],
                  ["--model", "mm-cptv", "--mu", "yahoo", "--mu-mode", "learn",
                   "-S", "1e308"]):
        assert main(train + flags) == 5, flags
        assert "log posterior is nan after EM iteration 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # evaluate counts such a fit as failed: blank cells, the constant row intact
    report = tmp_path / "r.csv"
    assert main(["evaluate", study + ".train.csv", study + ".test.csv",
                 "--families", "mm-none,constant", "-K", "1", "--seeds", "0",
                 "--alpha", "1e308", "--out", str(report)]) == 0
    assert capsys.readouterr() == (f"report {report} 4\n", (
        "warning: mm-none K=1 seed 0 failed: log posterior is nan after EM"
        " iteration 1; a smoothing or prior count is too large\n"))
    rows = report.read_text(encoding="utf-8").splitlines()
    assert rows[1:3] == ["mm-none,1,,,0,,,,,,,0", "mm-none,1,,,,,,,,,,1"]
    assert rows[3].startswith("constant,,,,0,0.")


def test_a_learned_mu_that_turns_nan_fails_its_own_fit(study, tmp_path, capsys):
    # at K = 2, alpha = 1e308 draws a NaN start, which the learned mu carries to the
    # objective
    flags = ["--mu", "yahoo", "--mu-mode", "learn", "-S", "400", "--alpha", "1e308"]
    assert main(["train", study + ".train.csv", "--model", "mm-cptv", "-K", "2",
                 "--out", str(tmp_path / "m.model"), *flags]) == 5
    assert capsys.readouterr().err == (
        "error: log posterior is nan after EM iteration 1; a smoothing or prior count"
        " is too large\n")
    assert list(tmp_path.iterdir()) == []
    # evaluate counts each seed's fit as failed, as it does for mm-none and a fixed mu
    report = tmp_path / "r.csv"
    assert main(["evaluate", study + ".train.csv", study + ".test.csv", "--families",
                 "mm-cptv", "-K", "2", "--seeds", "0,1", *flags, "--out", str(report)]) == 0
    assert capsys.readouterr() == (f"report {report} 3\n", "".join(
        f"warning: mm-cptv K=2 seed {seed} failed: log posterior is nan after EM"
        " iteration 1; a smoothing or prior count is too large\n" for seed in (0, 1)))
    assert report.read_text(encoding="utf-8").splitlines()[1:] == [
        "mm-cptv,2,learn,400,0,,,,,,,0", "mm-cptv,2,learn,400,1,,,,,,,0",
        "mm-cptv,2,learn,400,,,,,,,,1"]


_SRC = Path(cli.__file__).resolve().parents[1]


def _run_cli(src, argv, cwd):
    """``missmix argv`` run in ``cwd`` by a fresh process on the package under
    ``src``, with every warning filter set to raise."""
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "missmix.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)


def test_a_failed_grid_fit_is_one_warning_line_even_under_warnings_as_errors(
        study, tmp_path):
    done = _run_cli(_SRC, ["evaluate", study + ".train.csv", study + ".test.csv",
                           "--families", "mm-none", "-K", "1,2", "--seeds", "0",
                           "--alpha", "1e308", "--out", "r.csv"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "".join(
        f"warning: mm-none K={k} seed 0 failed: log posterior is nan after EM"
        " iteration 1; a smoothing or prior count is too large\n" for k in (1, 2))
    assert (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "mm-none,1,,,0,,,,,,,0", "mm-none,1,,,,,,,,,,1",
        "mm-none,2,,,0,,,,,,,0", "mm-none,2,,,,,,,,,,1"]


def test_a_clamped_estimate_is_one_warning_line_that_names_no_source_file(
        study, tmp_path):
    shutil.copytree(_SRC / "missmix", tmp_path / "src" / "missmix",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["estimate-mu", study + ".train.csv", study + ".test.csv", "--exposure", "20"]
    here, copy = (_run_cli(src, argv, tmp_path) for src in (_SRC, tmp_path / "src"))
    assert here.returncode == copy.returncode == 0, here.stderr
    assert re.fullmatch(r"warning: estimated observation probability for value \d"
                        r" is [0-9.]+ > 1; clamping\n", here.stderr)
    assert copy.stderr == here.stderr and copy.stdout == here.stdout


def test_predict_refuses_a_model_file_of_another_format_version(study, tmp_path, capsys):
    model = tmp_path / "v1.model"
    model.write_text(Path(study + ".truth.model").read_text(encoding="utf-8").replace(
        f"format_version {FORMAT_VERSION}\n", "format_version 1\n"), encoding="utf-8")
    assert main(["predict", study + ".train.csv", "--model", str(model),
                 "--pairs", study + ".test.csv", "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr() == ("", "error: unsupported format_version 1\n")
    assert list(tmp_path.iterdir()) == [model]


def test_a_stray_large_id_does_not_size_an_allocation(tmp_path, capsys):
    # a user id of 10**10 would size a 74.5 GiB row index
    data = tmp_path / "big.csv"
    data.write_text("user,item,rating\n0,0,1\n10000000000,1,2\n", encoding="utf-8")
    assert main(["train", str(data), "--model", "mm-none", "-K", "1",
                 "--out", str(tmp_path / "m.model")]) == 2
    err = capsys.readouterr().err
    assert "inferred dimensions (10000000001, 2, 2)" in err and "--dims" in err
    assert load_csv(data, dims=(10**10 + 1, 2, 2)).n_users == 10**10 + 1


def test_pair_keys_cannot_wrap_past_int64(tmp_path, capsys):
    # (1844674407370955162, 0) and (0, 10) share a key once N * M wraps past int64
    data = tmp_path / "wrap.csv"
    data.write_text("user,item,rating\n0,10,3\n1844674407370955162,0,4\n",
                    encoding="utf-8")
    assert main(["analyze", str(data)]) == 2
    assert main(["analyze", str(data), "--dims", "1844674407370955163,11,4"]) == 2
    err = capsys.readouterr().err
    assert "--dims" in err and "overflow the int64 pair keys" in err


# Numeric flags and the command line that reads each; "{study}" and "{out}"
# are filled in per example.
_FIT = ["--max-iters", "5", "--out", "{out}/m.model"]
_COMMANDS = {
    "mm-none": ["train", "{study}.train.csv", "--model", "mm-none", "-K", "2", *_FIT],
    "mm-cptv": ["train", "{study}.train.csv", "--model", "mm-cptv", "-K", "2",
                "--mu", "yahoo", *_FIT],
    "learn": ["train", "{study}.train.csv", "--model", "mm-cptv", "-K", "2",
              "--mu", "yahoo", "--mu-mode", "learn", "-S", "300", *_FIT],
    "evaluate": ["evaluate", "{study}.train.csv", "{study}.test.csv", "-K", "1",
                 "--seeds", "0", "--families", "mm-none,mm-cptv,constant",
                 "--mu", "yahoo", "--max-iters", "5", "--out", "{out}/r.csv"],
    "generate": ["generate", "--out", "{out}/g", "-N", "30", "-M", "6",
                 "--per-user-test", "2", "--min-train", "1"],
    "estimate-mu": ["estimate-mu", "{study}.train.csv", "{study}.test.csv",
                    "--exposure", "21"],
}
_FLOAT_FLAGS = [("mm-none", "--alpha"), ("mm-none", "--phi"), ("mm-none", "--tol"),
                ("mm-cptv", "--mu-scale"), ("learn", "--strength"),
                ("evaluate", "--alpha"), ("evaluate", "--strength"),
                ("generate", "--mu-scale"), ("generate", "--concentration")]
_INT_FLAGS = [("mm-none", "--max-iters"), ("mm-none", "--seed"),
              ("evaluate", "--seeds"), ("generate", "--seed"),
              ("generate", "--per-user-test"), ("generate", "--min-train"),
              ("estimate-mu", "--exposure")]
# Sizes: negative values only, since a huge size is a request for memory.
_SIZE_FLAGS = [("mm-none", "--components"), ("evaluate", "--components"),
               ("generate", "--users"), ("generate", "--items"),
               ("generate", "--values"), ("generate", "--components")]
_NEGATIVE = st.integers(max_value=-1).map(str)
_BAD_NUMBERS = st.one_of(
    st.tuples(st.sampled_from(_FLOAT_FLAGS), st.sampled_from(
        ["nan", "inf", "-inf", "1e999", "-1e999", "1e308", "-1e-300"])
        | st.floats(max_value=-1e-300).map(repr)),
    st.tuples(st.sampled_from(_INT_FLAGS),
              _NEGATIVE | st.sampled_from([str(2**63), str(2**64)])),
    st.tuples(st.sampled_from(_SIZE_FLAGS), _NEGATIVE))


@given(_BAD_NUMBERS)
@settings(max_examples=80)
def test_bad_numeric_flags_exit_3_or_5_never_1(study, tmp_path_factory, case):
    (command, flag), value = case
    out = tmp_path_factory.mktemp("flags")
    argv = [a.format(study=study, out=out) for a in _COMMANDS[command]]
    rc = main(argv + [f"{flag}={value}"])
    if not float(value) >= 0 or not float(value) < float("inf"):
        assert rc == 3
    else:
        # finite values too large for float64 or int64: a fit that overflows
        # is an estimation error, and any other outcome is a valid run
        assert rc in (0, 3, 5)

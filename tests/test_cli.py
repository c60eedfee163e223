import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missmix import cli
from missmix.cli import main
from missmix.data import load_csv
from missmix.mixture import MixtureParams
from missmix.modelio import load_model, save_model
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


def test_analyze_report(study, tmp_path):
    out = str(tmp_path / "analysis.txt")
    rc = main(["analyze", study + ".train.csv", "--compare", study + ".test.csv",
               "--out", out])
    assert rc == 0
    text = (tmp_path / "analysis.txt").read_text()
    assert "# value_histogram" in text
    assert "# skl_bits" in text
    assert "median," in text
    assert "# paired_difference_histogram" in text


def test_estimate_mu_output(study, capsys):
    import warnings

    with warnings.catch_warnings():
        # small probes can push a ratio past 1; the estimator then clamps
        warnings.simplefilter("ignore", UserWarning)
        rc = main(["estimate-mu", study + ".train.csv", study + ".test.csv",
                   "--exposure", "21"])
    assert rc == 0
    out = capsys.readouterr().out
    mu = np.array([float(t) for t in out.split()[1:]])
    assert mu.shape == (5,)
    assert ((mu > 0) & (mu < 1)).all()


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
             "--mu-mode learn and -S need an mm-cptv model"),
            (train + ["--model", "mm-none", "--mu-mode", "learn", "-S", "300"],
             "--mu-mode learn and -S need an mm-cptv model"),
            (evaluate + ["--families", "mm-none,constant", "--mu-mode", "learn",
                         "-S", "300"], "--mu-mode learn and -S need an mm-cptv model"),
            (train + ["--model", "mm-none", "-S", "300"],
             "a prior strength needs mu_mode 'learn', not 'fixed'"),
            (evaluate + ["--families", "constant", "--mu-mode", "learn"],
             "learn mode needs a prior strength")):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


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
    with pytest.warns(UserWarning, match="mm-none seed 0 failed: log posterior is nan"):
        assert main(["evaluate", study + ".train.csv", study + ".test.csv",
                     "--families", "mm-none,constant", "-K", "1", "--seeds", "0",
                     "--alpha", "1e308", "--out", str(report)]) == 0
    rows = report.read_text(encoding="utf-8").splitlines()
    assert rows[1:3] == ["mm-none,1,,,0,,,,,,,0", "mm-none,1,,,,,,,,,,1"]
    assert rows[3].startswith("constant,,,,0,0.")


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
    with warnings.catch_warnings():
        # failed grid fits and clamped rate estimates warn; nothing else may
        warnings.simplefilter("ignore", UserWarning)
        rc = main(argv + [f"{flag}={value}"])
    if not float(value) >= 0 or not float(value) < float("inf"):
        assert rc == 3
    else:
        # finite values too large for float64 or int64: a fit that overflows
        # is an estimation error, and any other outcome is a valid run
        assert rc in (0, 3, 5)

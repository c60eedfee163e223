import numpy as np
import pytest

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
                  # a prior strength only means something in learn mode
                  ["--mu", "yahoo", "-S", "nan"],
                  ["--mu", "yahoo", "-S", "100"]):
        assert main(cptv + flags) == 3, flags
    gen = ["generate", "--out", str(tmp_path / "g"), "-N", "20", "-M", "5"]
    assert main(gen + ["--concentration", "nan"]) == 3
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
                  ["--mu", "yahoo", "-S", "nan"]):
        assert main(args + ["--families", "mm-cptv"] + flags) == 3, flags
    assert not (tmp_path / "r.csv").exists()


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

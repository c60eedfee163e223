"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with its measured numbers (the
lines bypass capture so they appear in any run). Tolerances and time
budgets are fixed here; the random seeds are pinned so every quantity
below is reproducible bit for bit.
"""

import os
import time
import warnings

import numpy as np
import pytest
from scipy import stats

import missmix as mx
from missmix.cli import main
from missmix.cptv import log_evidence_nmar, missing_value_attribution
from missmix.mixture import FitConfig
from missmix.protocol import ModelSpec, run_protocol
from oracles import brute_force_user_evidence, user_rows


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)


def _worst_relative_dip(trace):
    deltas = np.diff(trace)
    return float((deltas / np.maximum(np.abs(trace[1:]), 1e-300)).min())


def test_01_em_objective_never_decreases(capsys):
    # 50 random instances per algorithm at N=200, M=20, V=5, fit K
    # cycling 1/3/5; every consecutive objective change must be
    # >= -1e-9 relative; full sweep under 2 minutes.
    t0 = time.monotonic()
    K_cycle = [1, 3, 5]
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng([1000, i])
        mu = rng.uniform(0.1, 0.9, size=5)
        truth = mx.sample_ground_truth(200, 20, 5, 3, mu,
                                       seed=int(rng.integers(1 << 31)))
        ds = mx.apply_cptv_missingness(truth, seed=int(rng.integers(1 << 31)))
        cfg = FitConfig(n_components=K_cycle[i % 3], seed=i, max_iters=40,
                        rel_tol=0.0)
        worst = min(worst, _worst_relative_dip(
            mx.fit_mar(ds, cfg).log_posterior_trace))
    for i in range(50):
        rng = np.random.default_rng([2000, i])
        mu = rng.uniform(0.1, 0.9, size=5)
        truth = mx.sample_ground_truth(200, 20, 5, 3, mu,
                                       seed=int(rng.integers(1 << 31)))
        ds = mx.apply_cptv_missingness(truth, seed=int(rng.integers(1 << 31)))
        cfg = FitConfig(n_components=K_cycle[i % 3], seed=i, max_iters=40,
                        rel_tol=0.0)
        if i % 2 == 0:
            result = mx.fit_nmar(ds, cfg, mu)
        else:  # prior counts xi1 = xi0 = 3
            result = mx.fit_nmar(ds, cfg, np.full(5, 0.5), strength=6.0)
        worst = min(worst, _worst_relative_dip(result.log_posterior_trace))
    elapsed = time.monotonic() - t0
    ok = worst >= -1e-9 and elapsed <= 120
    _report(capsys, 1, "EM objective monotone over 100 runs", ok,
            f"worst relative dip {worst:.3e}, {elapsed:.1f}s")
    assert worst >= -1e-9
    assert elapsed <= 120


def test_02_evidence_matches_enumeration_oracle(capsys):
    # 200 random instances with M<=4, V<=3, K<=3: the closed-form
    # per-user evidence must match exact enumeration over all hidden
    # value assignments to 1e-12 relative, in under 10 seconds.
    t0 = time.monotonic()
    rng = np.random.default_rng(424242)
    worst = 0.0
    checked = 0
    for _ in range(200):
        K = int(rng.integers(1, 4))
        M = int(rng.integers(1, 5))
        V = int(rng.integers(2, 4))
        mu = rng.uniform(0.05, 0.95, size=V)
        truth = mx.sample_ground_truth(5, M, V, K, mu,
                                       seed=int(rng.integers(1 << 31)))
        ds = mx.apply_cptv_missingness(truth, seed=int(rng.integers(1 << 31)))
        cptv = mx.CptvParams(mu=mu)
        fast = np.exp(log_evidence_nmar(truth.params, cptv, ds))
        for i, (items, values) in enumerate(user_rows(ds)):
            oracle = brute_force_user_evidence(truth.params, mu, items,
                                               values)
            worst = max(worst, abs(fast[i] - oracle) / oracle)
            checked += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed <= 10
    _report(capsys, 2, "evidence equals enumeration oracle", ok,
            f"{checked} users, worst relative error {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed <= 10


def test_03_fully_observed_reduction(capsys):
    # On complete data with value-independent mu, the joint fit must
    # land on the same theta and beta as the value-blind fit (1e-6).
    worst = 0.0
    for seed, K, V in ((8, 3, 4), (9, 2, 5), (10, 4, 3)):
        truth = mx.sample_ground_truth(300, 15, V, K, np.ones(V), seed=seed)
        full = mx.apply_cptv_missingness(truth, seed=seed + 100)
        assert full.n_obs == 300 * 15
        cfg = FitConfig(n_components=K, seed=seed, max_iters=60, rel_tol=0.0)
        ra = mx.fit_mar(full, cfg)
        rb = mx.fit_nmar(full, cfg, np.full(V, 0.37))
        worst = max(worst,
                    float(np.abs(ra.params.theta - rb.params.theta).max()),
                    float(np.abs(ra.params.beta - rb.params.beta).max()))
    ok = worst <= 1e-6
    _report(capsys, 3, "complete-data fits coincide", ok,
            f"max parameter difference {worst:.3e}")
    assert worst <= 1e-6


def test_04_observation_probability_recovery(capsys):
    # N=1000, M=100, V=5 study with observation probabilities
    # 4x the preset; the probe-ratio estimator must recover every
    # entry within +/-0.02, in under 30 seconds.
    t0 = time.monotonic()
    mu_true = mx.YAHOO_MU * 4
    truth = mx.sample_ground_truth(1000, 100, 5, 5, mu_true, seed=28)
    split, kept = mx.build_study_dataset(truth, seed=1028, per_user_test=40,
                                         min_train=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mu_hat = mx.estimate_mu_heldout(split.train, split.test, 60)
    err = float(np.abs(mu_hat - mu_true).max())
    elapsed = time.monotonic() - t0
    ok = err <= 0.02 and elapsed <= 30
    _report(capsys, 4, "observation probabilities recovered", ok,
            f"max abs error {err:.4f} (tol 0.02), {elapsed:.1f}s")
    assert err <= 0.02
    assert elapsed <= 30


def test_05_protocol_gap_on_skewed_study(capsys):
    # Desk-scale study (N=2000, M=100, V=5, K_true=5, mu 4x preset):
    # best value-aware mean test MAE over K in {1,2,5,10} x 5 seeds
    # must beat the best value-blind mean test MAE by at least 15%,
    # with standard errors reported, all within 15 minutes.
    t0 = time.monotonic()
    truth = mx.sample_ground_truth(2000, 100, 5, 5, mx.YAHOO_MU * 4, seed=101)
    split, _ = mx.build_study_dataset(truth, seed=202, per_user_test=10,
                                      min_train=10)
    configs = [FitConfig(K, max_iters=300, rel_tol=1e-5) for K in (1, 2, 5, 10)]
    specs = [ModelSpec(family="mm-none", config=config) for config in configs]
    specs += [ModelSpec(family="mm-cptv", config=config, mu=truth.mu)
              for config in configs]
    rows = run_protocol(split, specs, (0, 1, 2, 3, 4))
    aggs = [r for r in rows if r["agg"] == 1]
    assert all(r["test_mae_se"] != "" for r in aggs)
    none_row = min((r for r in aggs if r["model"] == "mm-none"),
                   key=lambda r: r["test_mae"])
    cptv_row = min((r for r in aggs if r["model"] == "mm-cptv"),
                   key=lambda r: r["test_mae"])
    improvement = 1.0 - cptv_row["test_mae"] / none_row["test_mae"]
    elapsed = time.monotonic() - t0
    ok = improvement >= 0.15 and elapsed <= 900
    _report(capsys, 5, "value-aware model beats value-blind on probe", ok,
            f"best blind {none_row['test_mae']:.4f}"
            f"+/-{none_row['test_mae_se']:.4f} (K={none_row['K']}), "
            f"best aware {cptv_row['test_mae']:.4f}"
            f"+/-{cptv_row['test_mae_se']:.4f} (K={cptv_row['K']}), "
            f"improvement {improvement * 100:.1f}% (need 15%), {elapsed:.0f}s")
    assert improvement >= 0.15
    assert elapsed <= 900


def test_06_probe_selection_ignores_values(capsys):
    # 100000 probed entries: whether a cell lands in the probe set must
    # be independent of its underlying value (chi-squared contingency
    # p > 0.001 on included-vs-excluded value counts).
    truth = mx.sample_ground_truth(10000, 50, 3, 2, np.array([0.2, 0.5, 0.8]),
                                   seed=61)
    probe = mx.sample_mcar_test(truth, 10, seed=62)
    assert probe.n_obs == 100000
    mask = np.zeros(truth.complete.shape, dtype=bool)
    mask[probe.users, probe.items] = True
    included = np.bincount(truth.complete[mask] - 1, minlength=3)
    excluded = np.bincount(truth.complete[~mask] - 1, minlength=3)
    p = float(stats.chi2_contingency(np.stack([included, excluded])).pvalue)
    ok = p > 0.001
    _report(capsys, 6, "probe inclusion independent of value", ok,
            f"contingency p {p:.4f} over 100000 entries (need > 0.001)")
    assert p > 0.001


def test_07_divergence_suite(capsys):
    # Hand value 2 * 0.5 * log2(3) for ([0.75,0.25],[0.25,0.75]) to
    # 1e-12; identity and symmetry on 100 random pairs to 1e-12; and a
    # self-selected set vs a random-probe set from the same ground
    # truth must show strictly positive median per-item divergence.
    p = mx.smoothed_distribution([2, 0])
    q = mx.smoothed_distribution([0, 2])
    assert np.allclose(p, [0.75, 0.25]) and np.allclose(q, [0.25, 0.75])
    err_hand = abs(mx.skl(p, q) - float(np.log2(3.0)))

    rng = np.random.default_rng(7)
    err_props = 0.0
    for _ in range(100):
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(5))
        a = (a + 1e-9) / (a + 1e-9).sum()
        b = (b + 1e-9) / (b + 1e-9).sum()
        err_props = max(err_props, abs(mx.skl(a, a)),
                        abs(mx.skl(a, b) - mx.skl(b, a)))
        assert mx.skl(a, b) >= 0

    truth = mx.sample_ground_truth(3000, 40, 5, 4, mx.YAHOO_MU * 4, seed=71)
    base = mx.apply_cptv_missingness(truth, seed=72)
    survey = mx.sample_mcar_test(truth, 8, seed=73)
    median_gap = mx.skl_report(base, survey).median

    ok = err_hand <= 1e-12 and err_props <= 1e-12 and median_gap > 0
    _report(capsys, 7, "divergence suite", ok,
            f"two-point case err {err_hand:.2e}, identity/symmetry err "
            f"{err_props:.2e} (tol 1e-12), selected-vs-probe median "
            f"{median_gap:.3f} bits (need > 0)")
    assert err_hand <= 1e-12
    assert err_props <= 1e-12
    assert median_gap > 0


def test_08_determinism(capsys, tmp_path):
    # Rerunning every command with identical flags must reproduce each
    # output file byte for byte.
    d = tmp_path

    def run(args):
        assert main(args) == 0

    gen = ["generate", "-N", "400", "-M", "40", "-K", "3",
           "--per-user-test", "5", "--min-train", "5", "--seed", "12"]
    run(gen + ["--out", str(d / "g1")])
    run(gen + ["--out", str(d / "g2")])
    train_csv = str(d / "g1.train.csv")
    test_csv = str(d / "g1.test.csv")

    train = ["train", train_csv, "--model", "mm-cptv", "-K", "3",
             "--mu", "yahoo", "--mu-scale", "4.0", "--max-iters", "60"]
    run(train + ["--out", str(d / "m1")])
    run(train + ["--out", str(d / "m2")])

    lines = (d / "g1.test.csv").read_text().splitlines()
    pairs = "\n".join(["user,item"]
                      + [",".join(ln.split(",")[:2]) for ln in lines[1:]])
    (d / "pairs.csv").write_text(pairs + "\n")
    predict = ["predict", train_csv, "--model", str(d / "m1"),
               "--pairs", str(d / "pairs.csv")]
    run(predict + ["--out", str(d / "p1.csv")])
    run(predict + ["--out", str(d / "p2.csv")])

    evaluate = ["evaluate", train_csv, test_csv,
                "--families", "constant,mm-none,mm-cptv", "-K", "1,2",
                "--seeds", "0,1", "--mu", "yahoo", "--mu-scale", "4.0",
                "--max-iters", "40"]
    run(evaluate + ["--out", str(d / "r1.csv")])
    run(evaluate + ["--out", str(d / "r2.csv")])

    analyze = ["analyze", train_csv, "--compare", test_csv]
    run(analyze + ["--out", str(d / "a1.txt")])
    run(analyze + ["--out", str(d / "a2.txt")])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        est = ["estimate-mu", train_csv, test_csv, "--exposure", "40"]
        run(est + ["--out", str(d / "e1.txt")])
        run(est + ["--out", str(d / "e2.txt")])

    file_pairs = [("g1.train.csv", "g2.train.csv"),
                  ("g1.test.csv", "g2.test.csv"),
                  ("g1.truth.model", "g2.truth.model"),
                  ("m1", "m2"), ("m1.trace.csv", "m2.trace.csv"),
                  ("p1.csv", "p2.csv"), ("r1.csv", "r2.csv"),
                  ("a1.txt", "a2.txt"), ("e1.txt", "e2.txt")]
    mismatched = [a for a, b in file_pairs
                  if (d / a).read_bytes() != (d / b).read_bytes()]

    ok = not mismatched
    _report(capsys, 8, "reruns byte-identical", ok,
            f"{len(file_pairs)} file pairs compared, mismatches "
            f"{mismatched or 'none'}")
    assert not mismatched


def test_09_learned_attribution_is_a_distribution(capsys):
    # End-to-end learn mode with prior budget S=200 on a skewed study:
    # the fitted model's missing-value attribution must be a proper
    # distribution (sums to 1 within 1e-6, no negative entries).
    truth = mx.sample_ground_truth(800, 60, 5, 3, mx.YAHOO_MU * 4, seed=91)
    split, _ = mx.build_study_dataset(truth, seed=92, per_user_test=10,
                                      min_train=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mu_hat = mx.estimate_mu_heldout(split.train, split.test, 50)
    result = mx.fit_nmar(split.train,
                         FitConfig(n_components=3, seed=9, max_iters=200),
                         mu_hat, strength=200.0)
    attr = missing_value_attribution(result.params, result.cptv, split.train,
                                     result.q)
    gap = abs(float(attr.sum()) - 1.0)
    ok = (result.cptv.xi1 is not None and attr is not None
          and attr.shape == (5,) and gap <= 1e-6 and (attr >= 0).all())
    _report(capsys, 9, "learned-mode attribution sums to one", ok,
            f"sum deviation {gap:.2e} (tol 1e-6), S=200, entries "
            + np.array2string(attr, precision=3))
    assert result.cptv.xi1 is not None
    assert gap <= 1e-6
    assert (attr >= 0).all()

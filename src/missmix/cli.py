"""Command-line interface.

Subcommands cover the full study loop: generate synthetic data, train a
model, predict ratings, evaluate a model grid on a split, compare
rating distributions, and estimate observation probabilities from a
random probe. All numeric output is written with 17 significant digits
and fixed row order, so identical invocations produce identical bytes.

Exit codes: 0 success, 2 malformed input data, 3 bad configuration,
4 I/O failure, 5 numerical or estimation failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, modelio
from .cptv import CptvParams, YAHOO_MU, estimate_mu_heldout
from .data import RatingDataset, SplitPair, load_csv, read_lines, save_csv
from .errors import (ConfigurationError, DataValidationError, EstimationError,
                     EvaluationError, GenerationError, ParseError)
from .predict import posterior_z, predict_median, predictive_distribution
from .protocol import (ModelSpec, ProtocolConfig, fit_spec, run_protocol,
                       write_report)
from .synthetic import build_study_dataset, sample_ground_truth

_MU_PRESETS = {"yahoo": YAHOO_MU}


def _parse_mu(text: str, n_values: int) -> np.ndarray:
    if text in _MU_PRESETS:
        mu = _MU_PRESETS[text].copy()
    else:
        try:
            mu = np.array([float(t) for t in text.split(",")])
        except ValueError:
            raise ConfigurationError(
                f"--mu must be a preset {sorted(_MU_PRESETS)} or"
                f" comma-separated floats, got {text!r}") from None
    if mu.shape != (n_values,):
        raise ConfigurationError(
            f"--mu needs {n_values} entries, got {len(mu)}")
    return mu


def _parse_dims(text: str | None):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"--dims must be N,M,V, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"--dims must be integers, got {text!r}") from None


def _parse_int_list(text: str):
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"expected comma-separated integers, got {text!r}") from None


def _load_pair(train_path, test_path, dims) -> SplitPair:
    train = load_csv(train_path, dims=dims)
    test = load_csv(test_path, dims=dims)
    if dims is None:
        joint = (max(train.n_users, test.n_users),
                 max(train.n_items, test.n_items),
                 max(train.n_values, test.n_values))
        train = RatingDataset.from_arrays(*joint, train.users, train.items,
                                          train.values)
        test = RatingDataset.from_arrays(*joint, test.users, test.items,
                                         test.values)
    return SplitPair(train=train, test=test)


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_vec(arr) -> str:
    return " ".join(_fmt(x) for x in np.asarray(arr, dtype=float).ravel())


def _cmd_generate(args) -> int:
    mu = _parse_mu(args.mu, args.values) * args.mu_scale
    seed_truth, seed_study = np.random.SeedSequence(args.seed).spawn(2)
    truth = sample_ground_truth(args.users, args.items, args.values,
                                args.components, mu, seed_truth,
                                concentration=args.concentration)
    split, kept = build_study_dataset(truth, seed_study,
                                      per_user_test=args.per_user_test,
                                      min_train=args.min_train)
    save_csv(args.out + ".train.csv", split.train)
    save_csv(args.out + ".test.csv", split.test)
    modelio.save_model(args.out + ".truth.model", truth.params,
                       cptv=CptvParams(mu=truth.mu), z=truth.z[kept])
    print(f"users {split.train.n_users}")
    print(f"train {args.out}.train.csv {split.train.n_obs}")
    print(f"test {args.out}.test.csv {split.test.n_obs}")
    print(f"truth {args.out}.truth.model")
    return 0


def _model_spec(args, family: str, n_components: int,
                n_values: int) -> ModelSpec:
    """The spec of one model the train/evaluate flags describe."""
    cptv = family == "mm-cptv"
    mu = (_parse_mu(args.mu, n_values) * args.mu_scale
          if cptv and args.mu is not None else None)
    return ModelSpec(family=family, n_components=n_components,
                     alpha=args.alpha, phi=args.phi,
                     mu_mode=args.mu_mode if cptv else None, mu=mu,
                     strength=args.strength if cptv else None)


def _cmd_train(args) -> int:
    data = load_csv(args.data, dims=_parse_dims(args.dims))
    spec = _model_spec(args, args.model, args.components, data.n_values)
    result = fit_spec(data, spec, args.max_iters, args.tol, args.seed)
    modelio.save_model(args.out, result.params, cptv=result.cptv,
                       mu_mode=result.mu_mode)
    with open(args.out + ".trace.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,log_posterior\n")
        for i, lp in enumerate(result.log_posterior_trace, start=1):
            fh.write(f"{i},{_fmt(lp)}\n")
    print(f"model {args.out}")
    print(f"converged {int(result.converged)} iterations {result.iterations}"
          f" log_posterior {_fmt(result.log_posterior_trace[-1])}")
    if result.cptv is not None:
        print("mu " + _fmt_vec(result.cptv.mu))
    if result.missing_value_attribution is not None:
        print("missing_value_attribution "
              + _fmt_vec(result.missing_value_attribution))
    return 0


def _read_pairs(path):
    users, items = [], []
    lines = read_lines(path)
    if not lines:
        raise ParseError("missing header line", line=1)
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ParseError("expected user,item", line=ln)
        try:
            users.append(int(parts[0]))
            items.append(int(parts[1]))
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", line=ln) from None
    return np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)


def _cmd_predict(args) -> int:
    data = load_csv(args.data, dims=_parse_dims(args.dims))
    model = modelio.load_model(args.model)
    if model.params.n_items < data.n_items or model.params.n_values != data.n_values:
        raise ConfigurationError(
            f"model covers {model.params.n_items} items and"
            f" {model.params.n_values} values; data has {data.n_items}"
            f" and {data.n_values}")
    users, items = _read_pairs(args.pairs)
    if len(users) == 0:
        raise DataValidationError("no pairs to predict")
    if (users < 0).any() or (users >= data.n_users).any():
        raise DataValidationError("pair user index out of range")
    if (items < 0).any() or (items >= model.params.n_items).any():
        raise DataValidationError("pair item index out of range")
    q = posterior_z(model.params, data, cptv=model.cptv)
    pred = predict_median(predictive_distribution(model.params, q, users, items))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("user,item,prediction\n")
        for u, m, p in zip(users, items, pred):
            fh.write(f"{u},{m},{p}\n")
    print(f"predictions {args.out} {len(pred)}")
    return 0


def _cmd_evaluate(args) -> int:
    split = _load_pair(args.train, args.test, _parse_dims(args.dims))
    specs = []
    for family in args.families.split(","):
        if family == "constant":
            specs.append(ModelSpec(family="constant"))
            continue
        specs += [_model_spec(args, family, K, split.train.n_values)
                  for K in _parse_int_list(args.components)]
    config = ProtocolConfig(max_iters=args.max_iters, rel_tol=args.tol,
                            seeds=tuple(_parse_int_list(args.seeds)))
    rows = run_protocol(split, specs, config)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        write_report(fh, rows)
    print(f"report {args.out} {len(rows)}")
    return 0


def _cmd_analyze(args) -> int:
    a = load_csv(args.data, dims=_parse_dims(args.dims))
    lines = [f"# value_histogram {args.data}", "value,count"]
    for v, c in enumerate(a.value_counts(), start=1):
        lines.append(f"{v},{c}")
    if args.compare is not None:
        b = load_csv(args.compare, dims=_parse_dims(args.dims))
        if a.n_items != b.n_items or a.n_values != b.n_values:
            raise DataValidationError(
                "compared datasets disagree on items or value range")
        report = analysis.skl_report(a, b)
        lines.append(f"# skl_bits {args.data} {args.compare}")
        lines.append("item,skl_bits")
        for m, s in enumerate(report.per_item):
            lines.append(f"{m},{_fmt(s)}")
        lines.append("# skl_summary")
        lines.append(f"median,{_fmt(report.median)}")
        lines.append(f"mean,{_fmt(report.mean)}")
        if a.n_users == b.n_users:
            offsets, counts = analysis.paired_difference_histogram(a, b)
            lines.append("# paired_difference_histogram")
            lines.append("diff,count")
            for d, c in zip(offsets, counts):
                lines.append(f"{d},{c}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"analysis {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_estimate_mu(args) -> int:
    train = load_csv(args.train, dims=_parse_dims(args.dims))
    heldout = load_csv(args.heldout, dims=_parse_dims(args.dims))
    if args.exposure <= 0:
        raise ConfigurationError(f"--exposure must be > 0, got {args.exposure}")
    mu = estimate_mu_heldout(train, heldout, args.exposure)
    line = "mu " + _fmt_vec(mu)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(line + "\n")
    print(line)
    return 0


def _add_fit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=2.0,
                   help="Dirichlet smoothing on component weights")
    p.add_argument("--phi", type=float, default=2.0,
                   help="Dirichlet smoothing on rating distributions")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="relative objective change that stops EM")
    p.add_argument("--max-iters", type=int, default=1000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="missmix",
        description="Multinomial mixture rating models with explicit"
                    " missing-data mechanisms")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("generate", formatter_class=fmt,
                       help="sample a synthetic study (train/test/truth)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("-N", "--users", type=int, default=2000)
    p.add_argument("-M", "--items", type=int, default=100)
    p.add_argument("-V", "--values", type=int, default=5)
    p.add_argument("-K", "--components", type=int, default=5)
    p.add_argument("--mu", default="yahoo",
                   help="per-value observation probabilities (preset or csv)")
    p.add_argument("--mu-scale", type=float, default=4.0,
                   help="multiplier applied to --mu")
    p.add_argument("--concentration", type=float, default=1.0)
    p.add_argument("--per-user-test", type=int, default=10)
    p.add_argument("--min-train", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="fit a model to a ratings CSV")
    p.add_argument("data", help="training ratings CSV")
    p.add_argument("--model", choices=["mm-none", "mm-cptv"], required=True)
    p.add_argument("-K", "--components", type=int, required=True)
    p.add_argument("--mu-mode", choices=["fixed", "learn"], default="fixed")
    p.add_argument("--mu", default=None,
                   help="observation probabilities (preset or csv);"
                        " the prior mean in learn mode")
    p.add_argument("--mu-scale", type=float, default=1.0)
    p.add_argument("-S", "--strength", type=float, default=None,
                   help="prior pseudo-count budget in learn mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default=None, help="force dimensions N,M,V")
    p.add_argument("--out", required=True, help="model file to write")
    _add_fit_options(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", formatter_class=fmt,
                       help="predict ratings for user,item pairs")
    p.add_argument("data", help="observed ratings CSV (conditioning data)")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True, help="CSV of user,item pairs")
    p.add_argument("--dims", default=None, help="force dimensions N,M,V")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", formatter_class=fmt,
                       help="score a model grid on a train/test split")
    p.add_argument("train")
    p.add_argument("test")
    p.add_argument("--families", default="mm-none,mm-cptv,constant",
                   help="comma-separated model families")
    p.add_argument("-K", "--components", default="1,2,5,10",
                   help="comma-separated component counts")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--mu-mode", choices=["fixed", "learn"], default="fixed")
    p.add_argument("--mu", default=None)
    p.add_argument("--mu-scale", type=float, default=1.0)
    p.add_argument("-S", "--strength", type=float, default=None)
    p.add_argument("--dims", default=None, help="force dimensions N,M,V")
    p.add_argument("--out", required=True, help="report CSV to write")
    _add_fit_options(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze", formatter_class=fmt,
                       help="value histograms and divergence between datasets")
    p.add_argument("data")
    p.add_argument("--compare", default=None,
                   help="second dataset for divergence reports")
    p.add_argument("--dims", default=None, help="force dimensions N,M,V")
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("estimate-mu", formatter_class=fmt,
                       help="estimate observation probabilities from a probe")
    p.add_argument("train", help="self-selected ratings CSV")
    p.add_argument("heldout", help="randomly probed ratings CSV")
    p.add_argument("--exposure", type=int, required=True,
                   help="cells each user could have contributed to train")
    p.add_argument("--dims", default=None, help="force dimensions N,M,V")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate_mu)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DataValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (EstimationError, GenerationError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

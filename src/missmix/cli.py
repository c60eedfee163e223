"""Command-line interface.

Subcommands cover the full study loop: generate synthetic data, train a
model, predict ratings, evaluate a model grid on a split, compare
rating distributions, and estimate observation probabilities from a
random probe. All numeric output is written with 17 significant digits
and fixed row order, so identical invocations produce identical bytes.

A command exits 0 on success; each failure exits with the code its
error class carries (see `errors`).
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings

import numpy as np

from . import analysis, modelio
from .cptv import (CptvParams, YAHOO_MU, estimate_mu_heldout,
                   missing_value_attribution)
from .data import (RatingDataset, SplitPair, check_ranges, format_floats,
                   load_csv, read_int_columns, save_csv, write_int_csv,
                   write_text)
from .errors import (IO_EXIT_CODE, MEMORY_EXIT_CODE, ConfigurationError,
                     DataValidationError, MissmixError)
from .mixture import FitConfig
from .predict import posterior_z, predicted_medians
from .protocol import (ModelSpec, check_distinct, check_seeds, fit_spec,
                       run_protocol, write_report)
from .synthetic import build_study_dataset, check_split_sizes, sample_ground_truth

_MU_PRESETS = {"yahoo": YAHOO_MU}

# The most cells a command may allocate for one dense table; 2**28 float64
# cells are 2 GiB. The benchmark's largest charge, wide-learn's 2000 x 5000
# generate (10M cells), stays over twenty times inside it, while a size flag or
# --dims off by orders of magnitude stops with one line.
DENSE_CELL_BUDGET = 2**28


def _parse_mu(text: str) -> np.ndarray:
    if text in _MU_PRESETS:
        return _MU_PRESETS[text].copy()
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise ConfigurationError(
            f"--mu must be a preset {sorted(_MU_PRESETS)} or"
            f" comma-separated floats, got {text!r}") from None


def _parse_int_list(text: str):
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"expected comma-separated integers, got {text!r}") from None


def _check_dense_cells(command: str, n: int, m: int, v: int, k: int = 1) -> None:
    """ConfigurationError if ``command`` on N users, M items, V values and K
    components would allocate a dense table over DENSE_CELL_BUDGET cells.

    Fits and predict hold an N+1 row index, N x K responsibilities and a
    V x M x K rating table, analyze and estimate-mu a V x M count table,
    and generate an N x M rating table and a V x M x K one.
    Negative sizes are left to the checks that name them.
    """
    n, m, v, k = (max(x, 0) for x in (n, m, v, k))
    if command == "generate":
        cells = max(n * m, v * m * k)
    elif command in ("analyze", "estimate-mu"):
        cells = v * m
    else:
        cells = max(n + 1, n * k, v * m * k)
    if cells > DENSE_CELL_BUDGET:
        raise ConfigurationError(
            f"{command} on (N, M, V, K) = {(n, m, v, k)} needs a dense table"
            f" of {cells} cells, over the budget of {DENSE_CELL_BUDGET}")


def _load(command: str, paths, dims_text: str | None, k: int = 1,
          model=None) -> list[RatingDataset]:
    """The ratings files at ``paths`` on the dims of ``--dims``, or else on the
    largest dims inferred over them and ``model``'s items and values; checks
    the dense tables ``command`` allocates with ``k`` components, before any
    file is read when ``--dims`` gives the dims."""
    dims = None if dims_text is None else tuple(_parse_int_list(dims_text))
    if dims is not None:
        if len(dims) != 3:
            raise ConfigurationError(f"--dims must be N,M,V, got {dims_text!r}")
        # an empty dataset applies the rules every dims must meet
        RatingDataset.from_arrays(*dims, [], [], [])
        _check_dense_cells(command, *dims, k)
    loaded = [load_csv(path, dims=dims) for path in paths]
    if dims is None:
        shapes = [(ds.n_users, ds.n_items, ds.n_values) for ds in loaded]
        if model is not None:
            shapes.append((0, model.params.n_items, model.params.n_values))
        dims = tuple(map(max, zip(*shapes)))
        # Sorted, valid triples stay so at dimensions at least as large.
        loaded = [ds if shape == dims else RatingDataset(*dims, ds.users, ds.items, ds.values)
                  for ds, shape in zip(loaded, shapes)]
        _check_dense_cells(command, *dims, k)
    return loaded


def _cmd_generate(args) -> None:
    check_seeds([args.seed])
    check_split_sizes(args.items, args.per_user_test, args.min_train)
    _check_dense_cells("generate", args.users, args.items, args.values,
                       args.components)
    mu = _parse_mu(args.mu) * args.mu_scale
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


def _fit_config(args, n_components: int, seed: int) -> FitConfig:
    """The settings the train/evaluate fit flags give a fit of K components."""
    return FitConfig(n_components, alpha=args.alpha, phi=args.phi,
                     max_iters=args.max_iters, rel_tol=args.tol, seed=seed)


def _model_specs(args, families, ks, seed: int) -> list[ModelSpec]:
    """The checked specs of the train/evaluate flags, by family and then by K,
    each fit with ``seed``; built before any ratings file is read."""
    check_distinct("--families", families)
    check_distinct("-K", ks)
    if (args.mu_mode == "learn") != (args.strength is not None):
        raise ConfigurationError("--mu-mode learn and -S go together")
    if "mm-cptv" not in families and (args.mu, args.mu_scale, args.strength) != (None,) * 3:
        raise ConfigurationError("--mu, --mu-scale and -S need an mm-cptv model")
    mu = (None if args.mu is None else
          _parse_mu(args.mu) * (1.0 if args.mu_scale is None else args.mu_scale))
    configs = [_fit_config(args, k, seed) for k in ks]
    specs = []
    for family in families:
        cptv = family == "mm-cptv"
        specs += [ModelSpec(family=family, config=c, mu=mu if cptv else None,
                            strength=args.strength if cptv else None)
                  for c in ([None] if family == "constant" else configs)]
    return specs


def _cmd_train(args) -> None:
    spec, = _model_specs(args, [args.model], [args.components], args.seed)
    data, = _load("train", [args.data], args.dims, args.components)
    result = fit_spec(data, spec)
    modelio.save_model(args.out, result.params, cptv=result.cptv, mu_mode=args.mu_mode)
    write_text(args.out + ".trace.csv", "iteration,log_posterior\n", (
        f"{i},{format_floats(lp)}\n"
        for i, lp in enumerate(result.log_posterior_trace, start=1)))
    print(f"model {args.out}")
    print(f"converged {int(result.converged)} iterations {result.iterations}"
          f" log_posterior {format_floats(result.log_posterior_trace[-1])}")
    if result.cptv is not None:
        print("mu " + format_floats(result.cptv.mu))
        attribution = missing_value_attribution(result.params, result.cptv, data, result.q)
        if attribution is not None:
            print("missing_value_attribution " + format_floats(attribution))


def _cmd_predict(args) -> None:
    model = modelio.load_model(args.model)
    data, = _load("predict", [args.data], args.dims,
                  model.params.n_components, model)
    if data.n_obs == 0 and args.dims is None:
        raise DataValidationError(
            f"{args.data} has no ratings to give the number of users;"
            " pass --dims N,M,V to predict from the prior")
    q = posterior_z(model.params, data, cptv=model.cptv)
    users, items = read_int_columns(args.pairs, 2)
    if len(users) == 0:
        raise DataValidationError("no pairs to predict")
    check_ranges((data.n_users, model.params.n_items, data.n_values), users, items,
                 prefix="pair ")
    pred = predicted_medians(model.params, q, users, items)
    write_int_csv(args.out, "user,item,prediction", users, items, pred)
    print(f"predictions {args.out} {len(pred)}")


def _cmd_evaluate(args) -> None:
    # run_protocol sets each fit's seed from --seeds
    specs = _model_specs(args, args.families.split(","),
                         _parse_int_list(args.components), FitConfig.seed)
    seeds = _parse_int_list(args.seeds)
    check_seeds(seeds)
    split = SplitPair(*_load("evaluate", (args.train, args.test), args.dims, max(
        (s.config.n_components for s in specs if s.config is not None), default=1)))
    rows = run_protocol(split, specs, seeds)
    write_report(args.out, rows)
    print(f"report {args.out} {len(rows)}")


def _cmd_analyze(args) -> None:
    paths = (args.data,) if args.compare is None else (args.data, args.compare)
    a, *compared = _load("analyze", paths, args.dims)
    lines = [f"# value_histogram {args.data}", "value,count"]
    lines += [f"{v},{c}" for v, c in enumerate(a.value_counts(), start=1)]
    for b in compared:
        report = analysis.skl_report(a, b)
        lines.append(f"# skl_bits {args.data} {args.compare}")
        lines.append("item,skl_bits")
        lines += [f"{m},{format_floats(s)}" for m, s in enumerate(report.per_item)]
        lines.append("# skl_summary")
        lines.append(f"median,{format_floats(report.median)}")
        lines.append(f"mean,{format_floats(report.mean)}")
        offsets, counts = analysis.paired_difference_histogram(a, b)
        lines.append("# paired_difference_histogram")
        lines.append("diff,count")
        lines += [f"{d},{c}" for d, c in zip(offsets, counts)]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        write_text(args.out, text)
        print(f"analysis {args.out}")
    else:
        sys.stdout.write(text)


def _cmd_estimate_mu(args) -> None:
    if args.exposure <= 0:
        raise ConfigurationError(f"--exposure must be > 0, got {args.exposure}")
    train, heldout = _load("estimate-mu", (args.train, args.heldout), args.dims)
    mu = estimate_mu_heldout(train, heldout, args.exposure)
    line = "mu " + format_floats(mu)
    if args.out is not None:
        write_text(args.out, line + "\n")
    print(line)


def _add_fit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu-mode", choices=["fixed", "learn"], default="fixed")
    p.add_argument("--mu", default=None,
                   help="observation probabilities (preset or csv);"
                        " the prior mean in learn mode")
    p.add_argument("--mu-scale", type=float, default=None)
    p.add_argument("-S", "--strength", type=float, default=None,
                   help="prior pseudo-count budget in learn mode")
    p.add_argument("--alpha", type=float, default=FitConfig.alpha,
                   help="Dirichlet smoothing on component weights")
    p.add_argument("--phi", type=float, default=FitConfig.phi,
                   help="Dirichlet smoothing on rating distributions")
    p.add_argument("--tol", type=float, default=FitConfig.rel_tol,
                   help="relative objective change that stops EM")
    p.add_argument("--max-iters", type=int, default=FitConfig.max_iters)


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
    with warnings.catch_warnings():
        # each warning prints as one line when raised, whatever the filters say
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args.func(args)
        except MissmixError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return IO_EXIT_CODE
        except MemoryError as exc:
            print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
            return MEMORY_EXIT_CODE
    return 0


if __name__ == "__main__":
    gc.freeze()  # the imports' objects live to the end: the collection at exit skips them
    sys.exit(main())

"""Train/test evaluation runs over a grid of model settings.

A protocol run fits each requested model on the training set once per
seed, scores mean absolute error on both sides of the split and emits one
plain-dict row per (model, seed) plus one aggregate row per model with the
across-seed mean and standard error. A model's seeds are fitted as stacks
(`mixture._fit`), largest stacks first, on a `ProcessPoolExecutor` of up to
one forked worker per CPU (in-process if only one would run); the rows and
warnings are those of one fit at a time, byte for byte. `write_report`
renders rows as full-precision CSV.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .cptv import CptvParams, build_mu_prior, check_mu_length, fit_nmar, start_cptv
from .data import RatingDataset, SplitPair, format_floats, write_text
from .errors import ConfigurationError, EstimationError, EvaluationError
from .mixture import FitConfig, FitResult, _fit, fit_mar
from .predict import empirical_median_value, mae, predicted_medians

REPORT_COLUMNS = ["model", "K", "mu_mode", "S", "seed", "train_mae",
                  "test_mae", "train_mae_se", "test_mae_se", "iterations",
                  "converged", "agg"]

# The score cells of a report row, in the order `_fit_and_score` returns them.
_SCORES = ("train_mae", "test_mae", "iterations", "converged")
_FAMILIES = ("mm-none", "mm-cptv", "constant")
_split: SplitPair | None = None  # the running protocol's split, inherited by forked workers
# Cells of a stack, V*M + N per component and seed: its (S, V, M, K) rating table and
# (S, N, K) per-user tables, 8 MB of float64; a larger fit runs alone.
STACK_CELLS = 2**20


@dataclass
class ModelSpec:
    """One model configuration to evaluate.

    family "mm-none" ignores the response pattern, "mm-cptv" models it,
    and "constant" predicts the training median everywhere (no fit, so
    ``config`` is None exactly for it). Only mm-cptv takes ``mu``: it holds
    the observation rates there, or with a ``strength`` learns them under a
    prior of that mean and pseudo-count budget (`fit_nmar`). Every setting
    is checked before any fit runs.
    """

    family: str
    config: FitConfig | None = None
    mu: np.ndarray | None = None
    strength: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(
                f"family must be one of {_FAMILIES}, got {self.family!r}")
        if (self.config is None) != (self.family == "constant"):
            raise ConfigurationError(
                "mm-none and mm-cptv need a FitConfig; constant takes none")
        if self.family != "mm-cptv":
            if self.mu is not None or self.strength is not None:
                raise ConfigurationError(f"{self.family} takes no mu or strength")
        elif self.mu is None:
            raise ConfigurationError("mm-cptv needs a mu vector (--mu)")
        elif self.strength is None:
            CptvParams(self.mu)
        else:
            build_mu_prior(self.mu, self.strength)


def check_distinct(name: str, entries) -> None:
    """ConfigurationError if an entry of the grid axis ``name`` repeats."""
    if len(set(entries)) < len(entries):
        raise ConfigurationError(
            f"{name} must be distinct, got {','.join(map(str, entries))}")


def check_seeds(seeds) -> None:
    """ConfigurationError unless every seed is >= 0 and none repeats."""
    for seed in seeds:
        FitConfig(1, seed=seed)
    check_distinct("seeds", seeds)


def _check_ratings(dataset: RatingDataset, name: str) -> None:
    """EvaluationError if the ``name`` data has no ratings to fit or score."""
    if dataset.n_obs == 0:
        raise EvaluationError(f"the {name} data has no ratings")


def fit_spec(train: RatingDataset, spec: ModelSpec) -> FitResult:
    """Fit the mm-none or mm-cptv model ``spec`` describes to ``train``."""
    if spec.family == "constant":
        raise ConfigurationError("the constant model is not fitted")
    _check_ratings(train, "training")
    if spec.family == "mm-none":
        return fit_mar(train, spec.config)
    return fit_nmar(train, spec.config, spec.mu, spec.strength)


def _fit_and_score(spec: ModelSpec, seeds):
    """The _SCORES of ``spec`` fit on `_split` with each of ``seeds``, as one stack,
    or the EstimationError that ended the seed's fit."""
    train, test = _split.train, _split.test
    cptv = None if spec.mu is None else start_cptv(spec.mu, spec.strength, seeds)
    return [fit if isinstance(fit, EstimationError) else (
        *(mae(predicted_medians(fit.params, fit.q, ds.users, ds.items), ds.values)
          for ds in (train, test)), fit.iterations, int(fit.converged))
        for fit in _fit(train, spec.config, seeds, cptv)]


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0


def _stacks(specs, seeds, cells: int) -> list:
    """The fitted specs' (spec, seeds) stacks in run order: the most components (S*K),
    then mm-cptv, first, else in spec and seed order. Each stack, of ``cells`` = V*M + N
    per component and seed, holds at most STACK_CELLS (or one fit), and a spec has
    at least one stack per CPU when fewer specs are fitted than there are CPUs."""
    fitted = [spec for spec in specs if spec.config is not None]
    per_spec = -(-_cpus() // max(1, len(fitted)))
    tasks = []
    for spec in fitted:
        size = max(1, STACK_CELLS // (cells * spec.config.n_components))
        n = min(len(seeds), max(-(-len(seeds) // size), per_spec))
        tasks += [(spec, seeds[len(seeds) * i // n:len(seeds) * (i + 1) // n]) for i in range(n)]
    return sorted(tasks, reverse=True, key=lambda task: (
        len(task[1]) * task[0].config.n_components, task[0].family == "mm-cptv"))


def _map_tasks(split: SplitPair, tasks):
    """`_fit_and_score` of each (spec, seeds) in order, on a `ProcessPoolExecutor` of forked
    workers if 2+ would run; a worker that dies without its result is an EvaluationError."""
    global _split
    _split, filters = split, warnings.filters[:]
    workers = min(len(tasks), _cpus())
    # Python 3.12+ warns on fork() beside a second thread. numpy's is OpenBLAS's idle
    # pool, which has atfork handlers, and no task calls BLAS: the warning does not apply.
    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
    try:
        if workers < 2:
            return [_fit_and_score(*task) for task in tasks]
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            try:  # map's iterator cancels the queued stacks when one raises
                return list(pool.map(_fit_and_score, *zip(*tasks)))
            except BrokenProcessPool:
                raise EvaluationError("an evaluate grid worker ended without its result") from None
    finally:
        warnings.filters[:], _split = filters, None


def run_protocol(split: SplitPair, specs, seeds):
    """Fit and score every spec under every seed, in place of its config's.

    Returns a list of dict rows in REPORT_COLUMNS order: per-seed rows
    first for each model (agg 0), then its aggregate row (agg 1) with
    across-seed means and standard errors. Bad or repeated seeds, an empty
    side and a mu of the wrong length raise before any fit; a fit that
    fails to estimate leaves its error cells empty, outside the aggregate.
    """
    check_seeds(seeds)
    _check_ratings(split.train, "training")
    _check_ratings(split.test, "test")
    for spec in specs:
        if spec.mu is not None:
            check_mu_length(spec.mu, split.train.n_values)

    tasks = _stacks(specs, list(seeds),
                    split.train.n_values * split.train.n_items + split.train.n_users)
    results = {(id(spec), seed): score for (spec, stack), scores in
               zip(tasks, _map_tasks(split, tasks)) for seed, score in zip(stack, scores)}
    rows = []
    for spec in specs:
        labels = dict.fromkeys(REPORT_COLUMNS, "")
        labels["model"] = spec.family
        if spec.config is None:  # the training median everywhere, scored here once
            value = empirical_median_value(split.train)
            constant = (*(mae(np.full(ds.n_obs, value), ds.values)
                          for ds in (split.train, split.test)), 0, 1)
        else:
            labels["K"] = spec.config.n_components
        if spec.family == "mm-cptv":
            labels.update(mu_mode="fixed" if spec.strength is None else "learn",
                          S="" if spec.strength is None else spec.strength)
        scores = []
        for seed in seeds:
            score = constant if spec.config is None else results[id(spec), seed]
            row = dict(labels, seed=seed, agg=0)
            rows.append(row)
            if isinstance(score, EstimationError):
                warnings.warn(f"{spec.family} K={spec.config.n_components} seed {seed}"
                              f" failed: {score}", stacklevel=2)
                continue
            row.update(zip(_SCORES, score))
            scores.append(score)

        agg = dict(labels, agg=1)
        if scores:
            # Column-major, so each column sums in the order of a 1-D mean.
            scores = np.array(scores, dtype=float, order="F")
            agg.update(zip(_SCORES, scores.mean(axis=0)))
            if len(scores) > 1:
                agg.update(zip((f"{name}_se" for name in _SCORES[:2]),
                               scores[:, :2].std(axis=0, ddof=1) / np.sqrt(len(scores))))
        rows.append(agg)
    return rows


def format_cell(value) -> str:
    """Full-precision, locale-free rendering of one report cell."""
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_floats(value)
    return str(value)


def write_report(path, rows) -> None:
    """Write protocol rows as a CSV file."""
    write_text(path, ",".join(REPORT_COLUMNS) + "\n", (
        ",".join(format_cell(row.get(c, "")) for c in REPORT_COLUMNS) + "\n"
        for row in rows))

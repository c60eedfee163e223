"""Train/test evaluation runs over a grid of model settings.

A protocol run fits each requested model on the training set once per
seed, scores mean absolute error on both sides of the split, and emits
one row per (model, seed) plus one aggregate row per model with the
across-seed mean and standard error. Rows are plain dicts so they can
be serialised or inspected directly; `write_report` renders them as CSV
with full-precision floats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cptv import CptvParams, build_mu_prior, fit_nmar
from .data import RatingDataset, SplitPair, format_floats, write_text
from .errors import ConfigurationError, MissmixError
from .mixture import FitConfig, FitResult, fit_mar
from .predict import (empirical_median_value, mae, predict_median,
                      predictive_distribution)

REPORT_COLUMNS = ["model", "K", "mu_mode", "S", "seed", "train_mae",
                  "test_mae", "train_mae_se", "test_mae_se", "iterations",
                  "converged", "agg"]

_FAMILIES = ("mm-none", "mm-cptv", "constant")


@dataclass
class ModelSpec:
    """One model configuration to evaluate.

    family "mm-none" ignores the response pattern, "mm-cptv" models it,
    and "constant" predicts the training median everywhere (no fit).
    mm-cptv holds the observation rates at ``mu`` when ``strength`` is
    None, and otherwise learns them under a prior with mean ``mu`` and
    pseudo-count budget ``strength`` (`fit_nmar`). Every setting is
    checked here, before any fit runs.
    """

    family: str
    n_components: int = 1
    alpha: float = 2.0
    phi: float = 2.0
    mu: np.ndarray | None = None
    strength: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(
                f"family must be one of {_FAMILIES}, got {self.family!r}")
        FitConfig(self.n_components, alpha=self.alpha, phi=self.phi)
        if self.family == "mm-cptv":
            if self.mu is None:
                raise ConfigurationError(
                    "mm-cptv needs mu_mode 'fixed' or 'learn' and a mu vector")
            if self.strength is None:
                CptvParams(self.mu)
            else:
                build_mu_prior(self.mu, self.strength)


@dataclass
class ProtocolConfig:
    """Fit settings shared by every model in a run."""

    max_iters: int = 1000
    rel_tol: float = 1e-5
    seeds: tuple = field(default_factory=lambda: (0, 1, 2, 3, 4))


def fit_spec(train: RatingDataset, spec: ModelSpec, max_iters: int,
             rel_tol: float, seed: int) -> FitResult:
    """Fit the mm-none or mm-cptv model ``spec`` describes to ``train``."""
    if spec.family == "constant":
        raise ConfigurationError("the constant model is not fitted")
    config = FitConfig(n_components=spec.n_components, alpha=spec.alpha,
                       phi=spec.phi, max_iters=max_iters, rel_tol=rel_tol,
                       seed=seed)
    if spec.family == "mm-none":
        return fit_mar(train, config)
    return fit_nmar(train, config, spec.mu, spec.strength)


def _fit_and_score(split: SplitPair, spec: ModelSpec, seed: int,
                   config: ProtocolConfig):
    """Returns (train_mae, test_mae, iterations, converged)."""
    train, test = split.train, split.test
    if spec.family == "constant":
        value = empirical_median_value(train)
        return (mae(np.full(train.n_obs, value), train.values),
                mae(np.full(test.n_obs, value), test.values), 0, True)

    result = fit_spec(train, spec, config.max_iters, config.rel_tol, seed)
    train_pred = predict_median(predictive_distribution(
        result.params, result.q, train.users, train.items))
    test_pred = predict_median(predictive_distribution(
        result.params, result.q, test.users, test.items))
    return (mae(train_pred, train.values), mae(test_pred, test.values),
            result.iterations, result.converged)


def _label_cells(spec: ModelSpec) -> dict:
    """A report row with only the cells that name the model filled in."""
    row = {c: "" for c in REPORT_COLUMNS}
    row["model"] = spec.family
    if spec.family != "constant":
        row["K"] = spec.n_components
    if spec.family == "mm-cptv":
        row["mu_mode"] = "fixed" if spec.strength is None else "learn"
        row["S"] = "" if spec.strength is None else spec.strength
    return row


def run_protocol(split: SplitPair, specs, config: ProtocolConfig | None = None):
    """Fit and score every spec under every seed.

    Returns a list of dict rows in REPORT_COLUMNS order: per-seed rows
    first for each model (agg 0), then its aggregate row (agg 1) with
    across-seed means and standard errors. Bad settings raise up front;
    a failed fit leaves its error cells empty, outside the aggregate.
    """
    config = config or ProtocolConfig()
    for seed in config.seeds:
        FitConfig(1, max_iters=config.max_iters, rel_tol=config.rel_tol, seed=seed)

    rows = []
    for spec in specs:
        per_seed = []
        for seed in config.seeds:
            row = _label_cells(spec)
            row.update(seed=seed, agg=0)
            try:
                tr, te, iters, conv = _fit_and_score(split, spec, seed, config)
            except MissmixError as exc:
                warnings.warn(f"{spec.family} seed {seed} failed: {exc}",
                              stacklevel=2)
                rows.append(row)
                continue
            row.update(train_mae=tr, test_mae=te, iterations=iters,
                       converged=int(conv))
            per_seed.append((tr, te, iters, conv))
            rows.append(row)

        agg = _label_cells(spec)
        agg["agg"] = 1
        if per_seed:
            for col, name in enumerate(("train_mae", "test_mae")):
                maes = np.array([p[col] for p in per_seed])
                agg[name] = maes.mean()
                if len(maes) > 1:
                    agg[name + "_se"] = maes.std(ddof=1) / np.sqrt(len(maes))
            agg["iterations"] = float(np.mean([p[2] for p in per_seed]))
            agg["converged"] = float(np.mean([float(p[3]) for p in per_seed]))
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
    write_text(path, ",".join(REPORT_COLUMNS) + "\n", *(
        ",".join(format_cell(row.get(c, "")) for c in REPORT_COLUMNS) + "\n"
        for row in rows))

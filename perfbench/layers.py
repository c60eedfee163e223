"""Per-layer replays and computed kernel counts for the traced run.

The E/M kernels, the predictor, the analysis reports and the model file
round trip are timed by calling missmix's public functions on the
workload's own data and K, from this process. Each is called until it
has run `MIN_CALLS` times and for `MIN_SECONDS`, and the median call is
reported. Only public names are used, so private helpers can change
without touching the benchmark.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time


MIN_CALLS = 3
MAX_CALLS = 30
MIN_SECONDS = 0.3


def median_call_s(fn, *args, **kwargs) -> float:
    """Median wall of one call to ``fn`` over repeated calls."""
    walls = []
    start = time.perf_counter()
    while len(walls) < MAX_CALLS and (
            len(walls) < MIN_CALLS
            or time.perf_counter() - start < MIN_SECONDS):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def replay(mx, train, test, k: int, mu, model_path: str, scratch: str) -> dict:
    """Time each layer's public entry points on one workload's data.

    ``mx`` is the imported missmix package, ``train``/``test`` datasets
    over the same dims, ``mu`` the observation rates the workload fits
    with and ``model_path`` the largest model file the workload wrote.
    Returns per-layer metrics in their reported units;
    "cptv.e_step_t2_speedup" only while `e_step_nmar` takes `threads`.
    """
    params = mx.init_params(train.n_items, train.n_values,
                            mx.FitConfig(n_components=k, seed=0))
    fixed = mx.CptvParams(mu=mu)
    xi1, xi0 = mx.build_mu_prior(mu, 400.0)
    learn = mx.CptvParams(mu=mu, xi1=xi1, xi0=xi0)
    q = mx.e_step_mar(params, train)
    ms = 1e3
    out = {
        "mixture.e_step_ms": ms * median_call_s(mx.e_step_mar, params, train),
        "mixture.m_step_ms":
            ms * median_call_s(mx.m_step_mar, params, train, q),
        "mixture.log_posterior_ms":
            ms * median_call_s(mx.log_posterior_mar, params, train),
        "cptv.e_step_ms":
            ms * median_call_s(mx.e_step_nmar, params, fixed, train),
        "cptv.m_step_ms":
            ms * median_call_s(mx.m_step_nmar, params, fixed, train, q),
        "cptv.m_step_learn_ms":
            ms * median_call_s(mx.m_step_nmar, params, learn, train, q,
                               learn_mu=True),
        "cptv.log_posterior_ms":
            ms * median_call_s(mx.log_posterior_nmar, params, fixed, train),
    }
    qn = mx.posterior_z(params, train, cptv=fixed)
    out["predict.posterior_z_ms"] = ms * median_call_s(
        mx.posterior_z, params, train, cptv=fixed)
    predictive_s = median_call_s(mx.predictive_distribution, params, qn,
                                 test.users, test.items)
    out["predict.predictive_ms"] = ms * predictive_s
    out["predict.pairs_per_s"] = test.n_obs / predictive_s
    out["analysis.skl_report_ms"] = ms * median_call_s(
        mx.analysis.skl_report, train, test)
    out["analysis.paired_diff_ms"] = ms * median_call_s(
        mx.analysis.paired_difference_histogram, train, test)

    out["modelio.load_s"] = median_call_s(mx.load_model, model_path)
    loaded = mx.load_model(model_path)
    copy_path = os.path.join(scratch, "replay.model")
    out["modelio.save_s"] = median_call_s(
        mx.save_model, copy_path, loaded.params, cptv=loaded.cptv,
        mu_mode=loaded.mu_mode, z=loaded.z)
    out["modelio.model_bytes"] = os.path.getsize(model_path)
    os.remove(copy_path)

    # Two E-step threads against one; skipped once `threads` is gone.
    if "threads" in inspect.signature(mx.e_step_nmar).parameters:
        one = median_call_s(mx.e_step_nmar, params, fixed, train, threads=1)
        two = median_call_s(mx.e_step_nmar, params, fixed, train, threads=2)
        out["cptv.e_step_t2_speedup"] = one / two
    return out


def kernel_counts(n_obs: int, n_users: int, n_items: int, n_values: int,
                  k: int) -> dict:
    """Bytes moved and floating-point operations of each E/M step,
    computed from array sizes (float64 and int64, 8 bytes each).

    Not measured: cache reuse and temporaries are ignored. Terms:
    per observation, the three index arrays are read, a K-row of a table
    is gathered and a K-row is added into an accumulator (read and
    write); per table cell of V x M x K, each pass reads or writes 8
    bytes; the normalisation of N x K log weights takes four passes.
    """
    obs, table, rows = n_obs, n_values * n_items * k, n_users * k
    index = 24 * obs
    normalise_b, normalise_f = 32 * rows, 4 * rows
    return {
        # log beta; gather log beta rows; add into per-user rows.
        "mixture.e_step": {"bytes": 16 * table + index + 24 * k * obs
                           + normalise_b,
                           "flops": table + k * obs + normalise_f},
        # gather q rows; add into value x item cells; smooth and normalise.
        "mixture.m_step": {"bytes": index + 32 * k * obs + 48 * table
                           + 8 * rows,
                           "flops": k * obs + 3 * table + rows},
        # log beta, hidden-cell table and its log; gather two tables,
        # form the adjustment row, add it into per-user rows.
        "cptv.e_step": {"bytes": 32 * table + index + 40 * k * obs
                        + normalise_b,
                        "flops": 4 * table + 3 * k * obs + normalise_f},
        # the value-blind scatter plus hidden-mass weights and their use.
        "cptv.m_step": {"bytes": index + 32 * k * obs + 112 * table
                        + 8 * rows,
                        "flops": k * obs + 8 * table + rows},
    }

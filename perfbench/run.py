#!/usr/bin/env python3
"""missmix benchmark: the CLI study loop, timed from outside.

    python3 perfbench/run.py --workload desk-grid --seed 1 --trace 0

Each workload generates its study from --seed with `missmix generate`
(the set-up, repeated SETUP_REPS times), then runs its CLI commands one
after another, each as a child process with the default one thread.
With --trace 0 the commands are timed from outside (short ones several
times, counting the median) and the end-to-end metrics are reported;
passes repeat while another fits in --seconds.
With --trace 1 one untraced and one traced pass run (the traced one
through tracer.py, which wraps missmix's public functions), the public
E/M kernels are replayed on the workload's data, and the per-layer
metrics are reported. Every output is checked, and a failed check fails
the run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A result file with provenance
and every sample is written under .perfbench_work/results/. See
README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

SETUP_REPS = 3
# Every run must end within 180 s; a command still running at this
# point after the start is killed and counted as failed.
RUN_DEADLINE_S = 170.0
# Criterion 1: the EM objective may drop by at most this relative amount.
TRACE_REL_TOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "em_obs_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "probe_mae": "rating",
}
# In the summary and result file only: a per-command wall moves with the
# machine's speed by more than any useful bound (see README.md), some
# exist on one workload only, and error_rate is 0 on correct code.
END_TO_END_EXTRA = {
    "train_s": "s",
    "predict_s": "s",
    "evaluate_s": "s",
    "analyze_s": "s",
    "mae_gain_pct": "%",
    "error_rate": "ratio",
}
PER_LAYER = {
    "data.load_csv_s": "s",
    "data.rows_per_s": "1/s",
    "data.from_arrays_s": "s",
    "data.save_csv_s": "s",
    "synthetic.study_s": "s",
    "mixture.e_step_ms": "ms",
    "mixture.m_step_ms": "ms",
    "mixture.log_posterior_ms": "ms",
    "cptv.e_step_ms": "ms",
    "cptv.m_step_ms": "ms",
    "cptv.m_step_learn_ms": "ms",
    "cptv.log_posterior_ms": "ms",
    "cptv.fit_s": "s",
    "cptv.iterations": "count",
    "predict.posterior_z_ms": "ms",
    "predict.predictive_ms": "ms",
    "predict.pairs_per_s": "1/s",
    "modelio.save_s": "s",
    "modelio.load_s": "s",
    "modelio.model_bytes": "B",
    "analysis.skl_report_ms": "ms",
    "analysis.paired_diff_ms": "ms",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER_EXTRA = {
    "mixture.fit_s": "s",
    "mixture.iterations": "count",
    "protocol.fits": "count",
    "protocol.self_s": "s",
    "cptv.e_step_t2_speedup": "ratio",
}


class CommandFailed(Exception):
    """A command exited non-zero, so the steps after it cannot run."""


class Run:
    """One workload at one seed: its commands, checks and samples."""

    def __init__(self, workload, seed: int, directory: Path, mx):
        self.wl = workload
        self.seed = seed
        self.dir = directory
        self.mx = mx
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.ops: list[dict] = []
        self.samples: dict[str, list[float]] = {}
        self.study = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    # -- running ---------------------------------------------------------

    def command(self, kind: str, argv: list[str], cwd: Path,
                spans: Path | None = None) -> dict:
        """Run one missmix command in a child process and reap it with
        wait4, so its peak RSS is its own and not the largest child's."""
        if spans is None:
            full = [sys.executable, "-m", "missmix.cli", *argv]
        else:
            full = [sys.executable, str(HERE / "tracer.py"), str(spans),
                    "--", *argv]
        remaining = self.deadline - time.monotonic()
        op = {"kind": kind, "argv": argv, "cwd": cwd.name, "errors": []}
        self.ops.append(op)
        if remaining <= 0:
            op["errors"].append("run deadline passed before the command")
            raise CommandFailed(kind)
        with open(self.dir / "stdout.txt", "w") as out, \
                open(self.dir / "stderr.txt", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(full, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        op.update(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                  rc=proc.returncode,
                  stdout=(self.dir / "stdout.txt").read_text())
        if proc.returncode != 0:
            tail = (self.dir / "stderr.txt").read_text()[-2000:]
            op["errors"].append(f"exit code {proc.returncode}: {tail}")
            raise CommandFailed(kind)
        return op

    def generate(self, cwd: Path, spans: Path | None = None) -> dict:
        cwd.mkdir(parents=True)
        op = self.command("generate", self.wl.generate_argv(self.seed), cwd,
                          spans)
        fields = dict(line.split(" ", 1) for line in op["stdout"].splitlines())
        users = int(fields["users"])
        op["dims"] = f"{users},{self.wl.items},{workloads.N_VALUES}"
        op["n_obs"] = int(fields["train"].split()[1])
        op["n_probe"] = int(fields["test"].split()[1])
        inputs = ["study.train.csv", "study.test.csv"]
        op["hashes"] = hash_files(cwd, inputs + ["study.truth.model"])
        self.check_model(op, cwd / "study.truth.model")
        if self.study is None:
            self.study = {"N": users, "M": self.wl.items,
                          "n_obs": op["n_obs"], "n_probe": op["n_probe"],
                          "input_bytes": {n: (cwd / n).stat().st_size
                                          for n in inputs}}
        return op

    def run_pass(self, cwd: Path, gen: dict, gen_dir: Path,
                 traced: bool = False,
                 repeat: bool = False) -> list[list[dict]]:
        """Run every step in order, once or (``repeat``) `step.repeats`
        times; a repeat must reproduce the first run's outputs."""
        cwd.mkdir(parents=True)
        for name in ("study.train.csv", "study.test.csv"):
            os.link(gen_dir / name, cwd / name)
        steps = []
        for i, step in enumerate(self.wl.steps):
            argv = [a.replace("{dims}", gen["dims"]) for a in step.argv]
            spans = cwd / f"spans{i}.json" if traced else None
            runs = []
            for _ in range(step.repeats if repeat else 1):
                op = self.command(step.kind, argv, cwd, spans)
                op["hashes"] = hash_files(cwd, step.outputs)
                if runs:  # identical bytes pass the first run's checks
                    self.check_same(runs[0], op)
                else:
                    getattr(self, "check_" + step.kind)(op, step, cwd, gen)
                runs.append(op)
            steps.append(runs)
        return steps

    # -- output checks -----------------------------------------------------

    def check_model(self, op: dict, path: Path) -> None:
        try:
            self.mx.load_model(str(path))
        except Exception as exc:  # any failure to read back is a defect
            op["errors"].append(f"{path.name} does not load: {exc!r}")

    def check_train(self, op, step, cwd, gen) -> None:
        model = cwd / step.outputs[0]
        self.check_model(op, model)
        lp = [float(row["log_posterior"]) for row in read_csv(
            cwd / step.outputs[1])]
        for t in range(1, len(lp)):
            if lp[t] < lp[t - 1] - TRACE_REL_TOL * abs(lp[t - 1]):
                op["errors"].append(f"objective drops at iteration {t + 1}")
                break
        if step.max_iters is not None and len(lp) != step.max_iters:
            op["errors"].append(
                f"{len(lp)} iterations, expected {step.max_iters}")
        op["obs_iters"] = gen["n_obs"] * len(lp)

    def check_predict(self, op, step, cwd, gen) -> None:
        pairs = read_csv(cwd / "study.test.csv")
        preds = read_csv(cwd / "pred.csv")
        if len(preds) != len(pairs):
            op["errors"].append(
                f"{len(preds)} predictions for {len(pairs)} pairs")
            return
        err = 0
        for p, t in zip(preds, pairs):
            value = int(p["prediction"])
            if (p["user"], p["item"]) != (t["user"], t["item"]) \
                    or not 1 <= value <= workloads.N_VALUES:
                op["errors"].append(f"bad prediction row {p}")
                return
            err += abs(value - int(t["rating"]))
        op["probe_mae"] = err / len(pairs)

    def check_evaluate(self, op, step, cwd, gen) -> None:
        rows = read_csv(cwd / "report.csv")
        fits = [r for r in rows if r["agg"] == "0"]
        if any(r["test_mae"] == "" for r in rows):
            op["errors"].append("report has a failed fit")
            return
        op["obs_iters"] = gen["n_obs"] * sum(
            int(r["iterations"]) for r in fits if r["model"] != "constant")
        best = {m: min(float(r["test_mae"]) for r in rows
                       if r["agg"] == "1" and r["model"] == m)
                for m in ("mm-none", "mm-cptv")}
        gain = 100.0 * (1.0 - best["mm-cptv"] / best["mm-none"])
        op["mae_gain_pct"] = gain
        if self.wl.min_mae_gain_pct is not None \
                and gain < self.wl.min_mae_gain_pct:
            op["errors"].append(
                f"mae_gain_pct {gain:.2f} below {self.wl.min_mae_gain_pct}")

    def check_analyze(self, op, step, cwd, gen) -> None:
        text = (cwd / "analysis.txt").read_text()
        for section in ("# skl_summary", "# paired_difference_histogram"):
            if section not in text:
                op["errors"].append(f"analysis lacks {section!r}")

    @staticmethod
    def check_same(ref: dict, op: dict) -> None:
        """Criterion 8: same code and seed, byte-identical outputs."""
        for name, digest in op["hashes"].items():
            if ref["hashes"].get(name) != digest:
                op["errors"].append(f"{name} differs from the first run")

    # -- metrics -------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def add_pass(self, steps: list[list[dict]]) -> None:
        """Pass metrics from the median wall of each step's repeats."""
        walls = {}
        for runs in steps:
            kind = runs[0]["kind"]
            walls[kind] = walls.get(kind, 0.0) + statistics.median(
                op["wall_s"] for op in runs)
        self.add("wall_s", sum(walls.values()))
        for kind, wall in walls.items():
            self.add(f"{kind}_s", wall)
        fit_wall = walls.get("train", 0.0) + walls.get("evaluate", 0.0)
        self.add("em_obs_iters_per_s",
                 sum(runs[0].get("obs_iters", 0) for runs in steps) / fit_wall)
        self.add("peak_rss_mb",
                 max(op["rss_mb"] for runs in steps for op in runs))
        for runs in steps:
            for key in ("probe_mae", "mae_gain_pct"):
                if key in runs[0]:
                    self.add(key, runs[0][key])


def hash_files(cwd: Path, names) -> dict:
    out = {}
    for name in names:
        digest = hashlib.sha256()
        with open(cwd / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        out[name] = digest.hexdigest()
    return out


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def timed(run: Run, seconds: float) -> None:
    """Set up SETUP_REPS times, then run passes while another fits in
    ``seconds``; adds the end-to-end samples to ``run``."""
    gens = []
    for r in range(SETUP_REPS):
        gens.append(run.generate(run.dir / f"gen{r}"))
        run.add("setup_s", gens[-1]["wall_s"])
        if r:
            run.check_same(gens[0], gens[-1])
    passes = []
    start = time.perf_counter()
    while True:
        steps = run.run_pass(run.dir / f"pass{len(passes)}", gens[0],
                             run.dir / "gen0", repeat=True)
        for ref, runs in zip(passes[0] if passes else [], steps):
            run.check_same(ref[0], runs[0])
        passes.append(steps)
        run.add_pass(steps)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break


def traced(run: Run) -> dict:
    """One untraced and one traced pass over the same seed. Adds the
    per-layer samples to ``run``; returns the self time per span name
    and the computed kernel counts."""
    gen = run.generate(run.dir / "gen0")
    plain = run.run_pass(run.dir / "pass0", gen, run.dir / "gen0")
    tgen = run.generate(run.dir / "tgen", spans=run.dir / "tgen.spans.json")
    tops = run.run_pass(run.dir / "tpass", tgen, run.dir / "tgen",
                        traced=True)
    plain = [runs[0] for runs in plain]
    tops = [runs[0] for runs in tops]
    run.check_same(gen, tgen)
    for ref, op in zip(plain, tops):
        run.check_same(ref, op)

    records = [json.loads((run.dir / "tgen.spans.json").read_text())]
    records += [json.loads((run.dir / "tpass" / f"spans{i}.json").read_text())
                for i in range(len(tops))]
    spans = []
    for rec in records:
        own = self_times(rec["spans"])
        for s, t in zip(rec["spans"], own):
            parent = rec["spans"][s["parent"]]["name"] \
                if s["parent"] is not None else None
            spans.append(dict(s, self_s=t, dur_s=s["end"] - s["start"],
                              parent_name=parent))

    def total(name, key="dur_s"):
        return sum(s[key] for s in spans if s["name"] == name)

    def count(name):
        return sum(s.get("count", 0) for s in spans if s["name"] == name)

    m = {
        "data.load_csv_s": total("data.load_csv"),
        "data.rows_per_s": count("data.load_csv") / total("data.load_csv"),
        "data.from_arrays_s": total("data.from_arrays"),
        "data.save_csv_s": total("data.save_csv"),
        "synthetic.study_s": total("synthetic.sample_ground_truth")
        + total("synthetic.build_study_dataset"),
        "cptv.fit_s": total("cptv.fit"),
        "cptv.iterations": count("cptv.fit"),
        "cli.import_s": statistics.median(r["import_s"] for r in records),
        "cli.self_s": total("cli.main", "self_s"),
        "trace.overhead_s": sum(op["wall_s"] for op in [tgen] + tops)
        - sum(op["wall_s"] for op in [gen] + plain),
    }
    if count("mixture.fit"):
        m["mixture.fit_s"] = total("mixture.fit")
        m["mixture.iterations"] = count("mixture.fit")
    if any(s["name"] == "protocol.run" for s in spans):
        m["protocol.fits"] = sum(
            1 for s in spans if s["name"] in ("mixture.fit", "cptv.fit")
            and s["parent_name"] == "protocol.run")
        m["protocol.self_s"] = total("protocol.run", "self_s")

    dims = [int(d) for d in gen["dims"].split(",")]
    train = run.mx.load_csv(str(run.dir / "gen0" / "study.train.csv"),
                            dims=tuple(dims))
    test = run.mx.load_csv(str(run.dir / "gen0" / "study.test.csv"),
                           dims=tuple(dims))
    models = [run.dir / "gen0" / "study.truth.model"] + [
        run.dir / "pass0" / out for step in run.wl.steps for out in step.outputs
        if out.endswith(".model")]
    biggest = max(models, key=lambda p: p.stat().st_size)
    mu = run.mx.YAHOO_MU * run.wl.mu_scale
    m.update(layers.replay(run.mx, train, test, run.wl.replay_k, mu,
                           str(biggest), str(run.dir)))
    for key, value in m.items():
        run.add(key, value)
    return {
        "spans": {name: {"calls": sum(1 for s in spans if s["name"] == name),
                         "total_s": total(name),
                         "self_s": total(name, "self_s")}
                  for name in sorted({s["name"] for s in spans})},
        "kernel_counts_computed": layers.kernel_counts(
            train.n_obs, dims[0], dims[1], dims[2], run.wl.replay_k),
    }


def upper_percentile(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"q": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def summarise(samples: dict, units: dict) -> dict:
    return {name: {"unit": units[name],
                   "median": statistics.median(samples[name]),
                   "upper": upper_percentile(samples[name]),
                   "n": len(samples[name]),
                   "samples": samples[name]}
            for name in units if name in samples}


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_state():
    """(SHA, dirty) of the checkout; (None, None) outside a git clone."""
    if not (ROOT / ".git").exists():
        return None, None

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                              "--untracked-files=no"))


def provenance() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "git_sha": sha, "git_dirty": dirty}


def run_workload(wl, seed: int, seconds: float, trace: bool, mx) -> dict:
    """Run one workload; returns its result record (never raises for a
    failing command: the failure is recorded instead)."""
    directory = WORK / f"{wl.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    run = Run(wl, seed, directory, mx)
    layer_info = {}
    try:
        if trace:
            layer_info = traced(run)
        else:
            timed(run, seconds)
    except CommandFailed:
        pass
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    failed = sum(1 for op in run.ops if op["errors"])
    run.add("error_rate", failed / max(len(run.ops), 1))
    units = dict(PER_LAYER, **PER_LAYER_EXTRA) if trace else \
        dict(END_TO_END, **END_TO_END_EXTRA)
    return {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "study": run.study,
        "attempted": len(run.ops), "failed": failed,
        "errors": [e for op in run.ops for e in op["errors"]],
        "metrics": summarise(run.samples, units),
        **layer_info,
        "commands": [{k: op.get(k) for k in ("kind", "argv", "cwd", "wall_s",
                                             "rss_mb", "rc", "errors")}
                     for op in run.ops],
    }


def print_summary(result: dict) -> None:
    print(f"== {result['workload']} seed {result['seed']}"
          f" trace {result['trace']}: {result['attempted']} commands,"
          f" {result['failed']} failed")
    for err in result["errors"]:
        print(f"   FAILED: {err}")
    print(f"   {'metric':28s} {'unit':7s} {'median':>14s} {'upper':>22s}  n")
    for name, s in result["metrics"].items():
        up = s["upper"]
        upper = f"{up['value']:.6g} (p{up['q']:.0f})" if up else "-"
        print(f"   {name:28s} {s['unit']:7s} {s['median']:14.6g}"
              f" {upper:>22s}  {s['n']}")
    for name, s in result.get("spans", {}).items():
        print(f"   span {name:30s} calls {s['calls']:4d}"
              f"  total {s['total_s']:9.4f} s  self {s['self_s']:9.4f} s")
    for name, c in result.get("kernel_counts_computed", {}).items():
        print(f"   computed {name}: {c['bytes']:.4g} B,"
              f" {c['flops']:.4g} flop")


def main(argv=None) -> int:
    chosen = workloads.build()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(chosen) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same steps on small studies")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds seed..seed+runs-1 pooled per workload")
    args = parser.parse_args(argv)

    if not (SRC / "missmix" / "cli.py").is_file():
        print(f"error: no missmix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import missmix as mx

    chosen = workloads.build(tiny=args.size == "tiny")
    names = sorted(chosen) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    attempted = failed = 0
    metrics = {}
    for name in names:
        pooled = {}
        results = []
        for seed in range(args.seed, args.seed + args.runs):
            result = run_workload(chosen[name], seed, args.seconds,
                                  bool(args.trace), mx)
            result["provenance"] = dict(prov, size=args.size)
            stamp = time.strftime("%Y%m%dT%H%M%S")
            out = WORK / "results" / (f"{name}-s{seed}-t{args.trace}-"
                                      f"{stamp}-{os.getpid()}.json")
            out.write_text(json.dumps(result, indent=1))
            print_summary(result)
            results.append(result)
            for key, s in result["metrics"].items():
                pooled.setdefault(key, []).extend(s["samples"])
        attempted += sum(r["attempted"] for r in results)
        failed += sum(r["failed"] for r in results)
        if args.runs > 1:
            print_summary({"workload": name, "seed": "pooled",
                           "trace": args.trace,
                           "attempted": sum(r["attempted"] for r in results),
                           "failed": sum(r["failed"] for r in results),
                           "errors": [],
                           "metrics": summarise(pooled, dict(
                               units, **(PER_LAYER_EXTRA if args.trace
                                         else END_TO_END_EXTRA)))})
        prefix = "" if len(names) == 1 else name + "."
        for key, unit in units.items():
            if key in pooled:
                metrics[prefix + key] = {
                    "value": statistics.median(pooled[key]), "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

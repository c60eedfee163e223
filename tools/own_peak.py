#!/usr/bin/env python3
"""Run missmix commands and print each one's wall time and its own peak RSS.

    python3 tools/own_peak.py generate --out study -N 2000 -M 5000 -K 5
    python3 tools/own_peak.py --src /path/to/old/src train study.train.csv ...
    python3 tools/own_peak.py --workload wide-learn [--size tiny|full] [--seed S]

A command runs as `python3 -m missmix.cli ARGV...`, with the package under
--src. A child's `ru_maxrss` starts from its parent's resident size, so the
launcher is this small process, which imports only the standard library and
reads no study file; then the child's `ru_maxrss` is the command's own peak.
One JSON line is printed per command: the argv, the exit code, the wall time
in seconds and the peak in MB (2**20 bytes).

Given a command, it runs in the current directory and its own standard
output and error pass through. Given --workload, the workload of
perfbench/workloads.py runs its `generate` and then each of its steps once
through `study`, in a fresh temporary directory; the steps' standard output
goes to /dev/null (a regular file there can lift a command's own peak), and
the first command to fail ends the run with its exit code.
tools/output_digest.py runs `study` too, and tools/ab.py records `versions`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STUDY_FILES = ("study.train.csv", "study.test.csv", "study.truth.model")
OUT, ERR = "command.out", "command.err"


@functools.cache
def load_workloads():
    """perfbench/workloads.py as a module, loaded once and without writing
    bytecode under perfbench/."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def versions() -> dict:
    """The Python, numpy and scipy versions the commands run on."""
    import platform  # here, so the launcher stays small
    from importlib import metadata
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def env(src: Path) -> dict:
    """The environment that runs the missmix package under ``src``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def launch(argv, src: Path, cwd=None, stdout=None, stderr=None) -> dict:
    """Run ``missmix argv`` in ``cwd`` on the package under ``src`` and wait for it,
    its standard output and error going to the files ``stdout`` and ``stderr``
    when they are named; its argv, exit code, wall time and own peak."""
    with contextlib.ExitStack() as files:
        out, err = (None if path is None else files.enter_context(open(path, "wb"))
                    for path in (stdout, stderr))
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "missmix.cli", *argv],
                                cwd=cwd, env=env(src), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"argv": list(argv), "rc": proc.returncode,
            "wall_s": round(time.perf_counter() - start, 3),
            "own_peak_mb": round(usage.ru_maxrss / 1024, 1)}  # ru_maxrss is in KiB


def study(workload, seed: int, src: Path, cwd: Path, stdout=OUT, stderr=ERR):
    """Run ``workload``'s generate, then its steps with "{dims}" filled from its
    `users` line, in ``cwd`` on the package under ``src``; yield each command's
    argv, outputs and record as it ends. Generate's standard output goes to
    OUT in ``cwd``, each step's to ``stdout`` and each command's standard error
    to ``stderr`` (None: not redirected); each file holds the last command's.
    A failed generate ends the loop, a failed step not."""
    err = stderr and cwd / stderr
    argv = workload.generate_argv(seed)
    record = launch(argv, src, cwd, cwd / OUT, err)
    yield argv, STUDY_FILES, record
    if record["rc"]:
        return
    users = dict(line.split(" ", 1) for line in (cwd / OUT).read_text().splitlines())["users"]
    dims = f"{users},{workload.items},{load_workloads().N_VALUES}"
    for step in workload.steps:
        argv = [a.replace("{dims}", dims) for a in step.argv]
        yield argv, step.outputs, launch(argv, src, cwd, cwd / stdout, err)


def run_workload(name: str, tiny: bool, seed: int, src: Path) -> int:
    """Print the record of ``name``'s generate and of each of its steps; the
    exit code of the first command that fails, else 0."""
    with tempfile.TemporaryDirectory(prefix="missmix-peak-") as tmp:
        for _, _, record in study(load_workloads().build(tiny=tiny)[name], seed, src,
                                  Path(tmp), stdout=os.devnull, stderr=None):
            print(json.dumps(record), flush=True)
            if record["rc"]:
                return record["rc"]
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the missmix package")
    parser.add_argument("--workload", default=None,
                        help="run this benchmark workload instead of one command")
    parser.add_argument("--size", choices=["tiny", "full"], default="full",
                        help="the workload's size")
    parser.add_argument("--seed", type=int, default=0, help="the workload's generate seed")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the missmix subcommand and its arguments")
    args = parser.parse_args(argv)
    if bool(args.command) == (args.workload is not None):
        parser.error("name either a missmix command or a --workload")
    if args.workload is not None:
        return run_workload(args.workload, args.size == "tiny", args.seed, args.src.resolve())
    record = launch(args.command, args.src.resolve())
    print(json.dumps(record), flush=True)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())

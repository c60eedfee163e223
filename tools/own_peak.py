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
perfbench/workloads.py runs its `generate` and then each of its steps once,
in a fresh temporary directory, as tools/output_digest.py runs them; the
commands' standard output is not shown, and the first command to fail ends
the run with its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(argv, src: Path, stdout: str | None = None) -> dict:
    """Spawn ``missmix argv`` on the package under ``src`` and wait for it;
    its standard output goes to the file ``stdout`` when one is named."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    actions = [] if stdout is None else [
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "missmix.cli", *argv], env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return {"argv": list(argv), "rc": os.waitstatus_to_exitcode(status),
            "wall_s": round(time.perf_counter() - start, 3),
            "own_peak_mb": round(usage.ru_maxrss / 1024, 1)}  # ru_maxrss is in KiB


def run_workload(name: str, tiny: bool, seed: int, src: Path) -> int:
    """Print the record of ``name``'s generate and of each of its steps; the
    exit code of the first command that fails, else 0."""
    from output_digest import load_workloads  # here, so a lone command's launcher stays small

    workloads = load_workloads()
    workload = workloads.build(tiny=tiny)[name]
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="missmix-peak-") as tmp:
        os.chdir(tmp)  # posix_spawn has no cwd argument
        try:
            record = run(workload.generate_argv(seed), src, stdout="generate.out")
            print(json.dumps(record), flush=True)
            if record["rc"]:
                return record["rc"]
            fields = dict(line.split(" ", 1)
                          for line in Path("generate.out").read_text().splitlines())
            dims = f"{fields['users']},{workload.items},{workloads.N_VALUES}"
            for step in workload.steps:
                record = run([a.replace("{dims}", dims) for a in step.argv], src,
                             stdout=os.devnull)
                print(json.dumps(record), flush=True)
                if record["rc"]:
                    return record["rc"]
            return 0
        finally:
            os.chdir(home)


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
    record = run(args.command, args.src.resolve())
    print(json.dumps(record), flush=True)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())

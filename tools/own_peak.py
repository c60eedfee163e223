#!/usr/bin/env python3
"""Run one missmix command and print its wall time and its own peak RSS.

    python3 tools/own_peak.py generate --out study -N 2000 -M 5000 -K 5
    python3 tools/own_peak.py --src /path/to/old/src train study.train.csv ...

The command runs as `python3 -m missmix.cli ARGV...`, with the package under
--src, in the current directory. A child's `ru_maxrss` starts from its
parent's resident size, so the launcher is this small process, which imports
only the standard library and reads no study file; then the child's
`ru_maxrss` is the command's own peak. One JSON line is printed: the argv,
the exit code, the wall time in seconds and the peak in MB (2**20 bytes).
The command's own standard output and error pass through.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(argv, src: Path) -> dict:
    """Spawn ``missmix argv`` on the package under ``src`` and wait for it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "missmix.cli", *argv], env)
    _, status, usage = os.wait4(pid, 0)
    return {"argv": list(argv), "rc": os.waitstatus_to_exitcode(status),
            "wall_s": round(time.perf_counter() - start, 3),
            "own_peak_mb": round(usage.ru_maxrss / 1024, 1)}  # ru_maxrss is in KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the missmix package")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the missmix subcommand and its arguments")
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("name a missmix command to run")
    record = run(args.command, args.src.resolve())
    print(json.dumps(record), flush=True)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())

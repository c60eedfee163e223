#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: a baseline revision against this tree.

    python3 tools/ab.py --baseline e5703b7 --workload desk-grid --pairs 10 \\
        --seconds 25 --record stacked_grid

It builds two trees under .perfbench_work/ab/ one way, each side's src/ by
`git archive` of a revision: base/ from --baseline, and change/ from this
tree's tracked files as they stand (`git stash create`, which moves no ref,
index entry or file, or HEAD when nothing has changed). It refuses to run
while src/ holds untracked files, which the change side would miss. Each
tree gets a copy of this tree's perfbench/, so both sides run the same
benchmark code on their own package. Pair i runs
`perfbench/run.py --workload W --seed SEED0+i --seconds S` on both sides,
the baseline first in even pairs and the change first in odd ones, and
reads the last line of each run's output, its JSON summary; a run that is
not `correct` ends the tool with exit code 1.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the median of the paired ratios (change / base) and the
pairs the change wins (a better value, by the metric's direction).
--record NAME writes those statistics and their provenance (both SHAs,
each side's src/ tree id, the Python, numpy and scipy versions, the core
count and PYTHONDONTWRITEBYTECODE) to BENCH_NAME.json at the repository
root; it keeps no raw samples.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # tools/, also when loaded by path
from own_peak import ROOT, versions  # noqa: E402

AB = ROOT / ".perfbench_work" / "ab"
SIDES = ("base", "change")


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def revisions(baseline: str) -> dict[str, str]:
    """Each side's revision: ``baseline``, and a commit of this tree's tracked
    files as they stand; SystemExit while src/ holds untracked files."""
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src").splitlines()
    if untracked:
        sys.exit(f"src/ has untracked files, which the change side would miss: {untracked[0]}")
    return {"base": baseline, "change": git("stash", "create") or "HEAD"}


def build_sides(revs: dict[str, str]) -> dict[str, Path]:
    """The two trees, each with its revision's src/ and a copy of this tree's perfbench/."""
    shutil.rmtree(AB, ignore_errors=True)
    sides = {side: AB / side for side in SIDES}
    for side, tree in sides.items():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revs[side],
                                  "src"], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return sides


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary of one benchmark run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{tree.name} run of {workload} at seed {seed} printed no summary"
                 f" (exit code {proc.returncode}): {proc.stderr[-2000:]}")


def run_pairs(sides, workload: str, pairs: int, seconds: float, seed0: int,
              run=run_side) -> list[dict]:
    """Each pair's seed, first side and each side's metric values; SystemExit
    on a run that is not correct."""
    out = []
    for i in range(pairs):
        seed, order = seed0 + i, SIDES if i % 2 == 0 else SIDES[::-1]
        metrics = {}
        for side in order:
            result = run(sides[side], workload, seed, seconds)
            if not result.get("correct"):
                sys.exit(f"{side} run of {workload} at seed {seed} is not correct: {result}")
            metrics[side] = {k: m["value"] for k, m in result["metrics"].items()}
            print(f"pair {i} seed {seed} {side}: " + " ".join(
                f"{k}={v:.6g}" for k, v in metrics[side].items()), file=sys.stderr)
        out.append({"seed": seed, "first": order[0], **metrics})
    return out


def quartiles(values) -> dict:
    """Median and quartiles (statistics' inclusive method)."""
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """For each end-to-end metric both sides report: each side's quartiles,
    the median paired ratio (change / base) and the change's wins."""
    out = {}
    for key in pairs[0]["base"]:
        direction = better.get(key.rsplit(".", 1)[-1])
        if direction is None or not all(key in p["change"] for p in pairs):
            continue
        base = [p["base"][key] for p in pairs]
        change = [p["change"][key] for p in pairs]
        sign = 1 if direction == "higher" else -1
        out[key] = {"better": direction, "base": quartiles(base),
                    "change": quartiles(change),
                    "ratio_median": statistics.median(
                        c / b if b else float("nan") for b, c in zip(base, change)),
                    "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                    "pairs": len(pairs)}
    return out


def print_summary(summary: dict) -> None:
    print(f"{'metric':28s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
          f" {'ratio':>7s} {'wins':>6s}")
    for key, s in summary.items():
        cells = [f"{s[side]['median']:.6g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]"
                 for side in SIDES]
        print(f"{key:28s} {cells[0]:>32s} {cells[1]:>32s} {s['ratio_median']:7.4f}"
              f" {s['wins']:>3d}/{s['pairs']:<2d}")


def provenance(revs: dict[str, str]) -> dict:
    base = revs["base"]
    return {"baseline": {"rev": base, "sha": git("rev-parse", f"{base}^{{commit}}"),
                         "src_tree": git("rev-parse", f"{base}:src")},
            "change": {"sha": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain", "--untracked-files=no",
                                         "--", "src")),
                       "src_tree": git("rev-parse", f"{revs['change']}:src")},
            **versions(), "cores": len(os.sched_getaffinity(0)),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def write_record(path: Path, provenance: dict, settings: dict, summary: dict) -> None:
    path.write_text(json.dumps({**provenance, **settings, "metrics": summary}, indent=1)
                    + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", required=True, help="git revision of the base side")
    parser.add_argument("--workload", default="all",
                        help="a workload of perfbench/workloads.py, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed0", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--record", metavar="NAME", help="write BENCH_NAME.json")
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    revs = revisions(args.baseline)
    sides = build_sides(revs)
    pairs = run_pairs(sides, args.workload, args.pairs, args.seconds, args.seed0)
    summary = summarise(pairs, better)
    print_summary(summary)
    if args.record:
        write_record(ROOT / f"BENCH_{args.record}.json", provenance(revs),
                     {"workload": args.workload, "pairs": args.pairs,
                      "seconds": args.seconds, "seed0": args.seed0}, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

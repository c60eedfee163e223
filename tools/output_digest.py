#!/usr/bin/env python3
"""Digest every output of the benchmark's CLI study loop, to compare two trees.

    python3 tools/output_digest.py --src /path/to/old/src --seed 7 > old.json
    python3 tools/output_digest.py --src src --seed 7 > new.json
    diff old.json new.json

For each workload of perfbench/workloads.py it runs, with the missmix
package under --src and in a fresh directory, the workload's `generate`,
then each of its steps once, then one `estimate-mu` on the generated
study, through the study loop and launcher of tools/own_peak.py. It prints
one JSON object that gives, for each command, its arguments, its exit code
and the sha256 of its standard output, its standard error and each file it
writes. Two trees with equal digests write the same bytes on this loop.

Each model file also gets a `content` digest: the sha256 of what the
--src tree's own `load_model` reads from it (every array's dtype, shape
and bytes, and every other field), so two trees whose model formats differ
still show whether they store the same values.

    python3 tools/output_digest.py --golden

rewrites tests/golden/output_digest_tiny.json: the digests of the tiny
loops of every workload at seed 0 with the Python, numpy and scipy
versions that made them, which tests/test_output_digest.py compares each
run against. A change that alters an output regenerates it in the same
commit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # tools/, also when loaded by path
from own_peak import ERR, OUT, ROOT, STUDY_FILES, env, load_workloads, study, versions  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "output_digest_tiny.json"
GOLDEN_WORKLOADS = ("desk-grid", "million-fit", "wide-learn")
# Probed cells per user: `generate`'s default --per-user-test, which no
# workload overrides.
PER_USER_TEST = 10
# Prints the content digest of each model file in argv[1:], one a line,
# walking the dataclass load_model returns field by field.
CONTENT_SCRIPT = """
import dataclasses, hashlib, sys
import numpy as np
from missmix.modelio import load_model

def walk(digest, name, value):
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            walk(digest, name + "." + field.name, getattr(value, field.name))
    elif isinstance(value, np.ndarray):
        digest.update(f"{name} {value.dtype.str} {value.shape}\\n".encode())
        digest.update(value.tobytes())
    else:
        digest.update(f"{name} {value!r}\\n".encode())

for path in sys.argv[1:]:
    digest = hashlib.sha256()
    walk(digest, "model", load_model(path))
    print(digest.hexdigest())
"""


def _sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_command(argv, outputs, record: dict, cwd: Path) -> dict:
    """The digest record of a command `study` has just run in ``cwd``; an output
    it did not write hashes to None. Each model file it wrote is kept as
    ``cwd``/<n>.snapshot, and its ``content`` entry waits for `add_contents`."""
    content = {name: None for name in outputs if name.endswith(".model")}
    for name in content:
        if (cwd / name).exists():
            content[name] = len(list(cwd.glob("*.snapshot")))
            shutil.copyfile(cwd / name, cwd / f"{content[name]}.snapshot")
    return {"argv": argv, "rc": record["rc"], "stdout": _sha256(cwd / OUT),
            "stderr": _sha256(cwd / ERR),
            "files": {name: _sha256(cwd / name) for name in outputs}, "content": content}


def add_contents(records, cwd: Path, src: Path) -> list[dict]:
    """``records`` with the content digest of each model snapshot in place of
    its number, all read by one process of the package under ``src``."""
    contents = [r["content"] for r in records]
    snapshots = [f"{n}.snapshot" for c in contents for n in c.values() if n is not None]
    if snapshots:
        digests = subprocess.run(
            [sys.executable, "-c", CONTENT_SCRIPT, *snapshots], cwd=cwd, env=env(src),
            check=True, capture_output=True, text=True).stdout.split()
        for content in contents:
            content.update((name, n if n is None else digests[n])
                           for name, n in content.items())
    return records


def digest_workload(workload, src: Path, seed: int) -> list[dict]:
    """Digest records of ``workload``'s generate, steps and estimate-mu."""
    steps = (*workload.steps, load_workloads().Step("estimate-mu", (
        "estimate-mu", "study.train.csv", "study.test.csv", "--exposure",
        str(workload.items - PER_USER_TEST), "--dims", "{dims}", "--out", "mu.txt"),
        ("mu.txt",)))
    with tempfile.TemporaryDirectory(prefix="missmix-digest-") as tmp:
        cwd = Path(tmp)
        loop = study(dataclasses.replace(workload, steps=steps), seed, src, cwd)
        return add_contents([digest_command(*command, cwd) for command in loop], cwd, src)


def golden_digest(src: Path) -> dict:
    """The GOLDEN file's content for the package under ``src``: the tiny
    GOLDEN_WORKLOADS at seed 0, run side by side, and the versions."""
    tiny = load_workloads().build(tiny=True)
    with ThreadPoolExecutor(len(GOLDEN_WORKLOADS)) as pool:
        records = pool.map(lambda name: digest_workload(tiny[name], src, seed=0),
                           GOLDEN_WORKLOADS)
        return {"seed": 0, "size": "tiny", "versions": versions(),
                "workloads": dict(zip(GOLDEN_WORKLOADS, records))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the missmix package")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=["tiny", "full"], default="full")
    parser.add_argument("--golden", action="store_true",
                        help=f"rewrite {GOLDEN.relative_to(ROOT)} from --src and exit")
    args = parser.parse_args(argv)
    if args.golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden_digest(args.src.resolve()), indent=1) + "\n",
                          encoding="utf-8")
        return 0
    src = args.src.resolve()
    digest = {"seed": args.seed, "size": args.size, "workloads": {
        name: digest_workload(wl, src, args.seed)
        for name, wl in load_workloads().build(tiny=args.size == "tiny").items()}}
    print(json.dumps(digest, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

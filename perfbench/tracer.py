"""Span recording around missmix's public functions.

`Tracer.install` replaces each traced function in every `missmix`
module namespace that holds it (the CLI and the protocol import names
directly), so calls made by the package itself are recorded too. Spans
are kept in memory and written out when the command ends. Nothing under
`src/` is edited.

Run as a script, this file is the traced stand-in for `missmix`:

    python3 perfbench/tracer.py SPANS.json -- train data.csv --model ...

It imports the CLI, installs the wrappers, runs `missmix.cli.main(argv)`
and writes {"import_s", "rc", "spans"} to SPANS.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name, count taken from the result or None).
# Only public names: the private E/M helpers are expected to change.
TRACED = [
    ("data", "load_csv", "data.load_csv", "n_obs"),
    ("data", "save_csv", "data.save_csv", None),
    ("synthetic", "sample_ground_truth", "synthetic.sample_ground_truth",
     None),
    ("synthetic", "build_study_dataset", "synthetic.build_study_dataset",
     None),
    ("mixture", "fit_mar", "mixture.fit", "iterations"),
    ("cptv", "fit_nmar", "cptv.fit", "iterations"),
    ("protocol", "run_protocol", "protocol.run", None),
    ("predict", "posterior_z", "predict.posterior_z", None),
    ("predict", "predictive_distribution", "predict.predictive", None),
    ("modelio", "save_model", "modelio.save", None),
    ("modelio", "load_model", "modelio.load", None),
    ("analysis", "skl_report", "analysis.skl_report", None),
    ("analysis", "paired_difference_histogram", "analysis.paired_diff", None),
]


class Tracer:
    """In-memory spans: name, start, end, parent index and a trace id."""

    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "trace": self.trace_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name: str, count: str | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["count"] = int(getattr(result, count))
                return result
        return traced

    def install(self, package) -> None:
        """Wrap every TRACED function wherever the package binds it."""
        import importlib
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in ("data", "synthetic", "mixture", "cptv",
                                "protocol", "predict", "modelio", "analysis",
                                "cli")}
        for mod_name, attr, name, count in TRACED:
            original = getattr(modules[mod_name], attr)
            wrapped = self.wrap(original, name, count)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        # A classmethod is wrapped on the class, which every caller uses.
        dataset_cls = modules["data"].RatingDataset
        raw = dataset_cls.__dict__["from_arrays"].__func__
        dataset_cls.from_arrays = classmethod(
            self.wrap(raw, "data.from_arrays"))


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another (every command runs with
    one thread), so their durations add without overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <missmix arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    t0 = time.perf_counter()
    import missmix
    import missmix.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer(trace_id=cli_argv[0] if cli_argv else "")
    tracer.install(missmix)
    with tracer.span("cli.main"):
        rc = missmix.cli.main(cli_argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "rc": rc, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))

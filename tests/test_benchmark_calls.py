"""The benchmark under perfbench/ keeps working against the library.

perfbench replays public missmix calls and wraps a list of functions by
name, but its own tests are outside this suite. These tests read its
sources as text (nothing of it is imported) and check every call and
name it takes from missmix against the library as it is now.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import missmix
from missmix.modelio import LoadedModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _missmix_path(node):
    """The dotted names after ``mx`` in an ``mx.a.b`` or ``run.mx.a.b``
    expression, or None for any other expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    names.reverse()
    return names[names.index("mx") + 1:] if "mx" in names[:-1] else None


def _ungated(node):
    """``node`` and its descendants, less the bodies of `if` statements
    that test a signature: perfbench runs those only where the call binds."""
    if isinstance(node, ast.If) and "signature" in ast.unparse(node.test):
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _ungated(child)


def _library_calls():
    """(dotted name, positional count, keyword names) of every missmix
    call in perfbench, including the ones timed by `median_call_s`."""
    calls = []
    for name in ("layers.py", "run.py"):
        for node in _ungated(_tree(name)):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "median_call_s":
                func, args = args[0], args[1:]
            path = _missmix_path(func)
            if path:
                calls.append((".".join(path), len(args),
                              tuple(k.arg for k in node.keywords)))
    return calls


def test_every_library_call_of_the_benchmark_binds():
    calls = _library_calls()
    for name, n_args, keywords in calls:
        target = missmix
        for attr in name.split("."):
            target = getattr(target, attr)
        inspect.signature(target).bind(*[None] * n_args,
                                       **dict.fromkeys(keywords))
    # the calls through the step-level mu switch, the model file's mu_mode
    # line and a fixed observation model
    assert ("m_step_nmar", 4, ("learn_mu",)) in calls
    assert ("save_model", 2, ("cptv", "mu_mode", "z")) in calls
    assert ("posterior_z", 2, ("cptv",)) in calls


def test_the_benchmark_reads_these_model_file_fields():
    fields = {f.name for f in dataclasses.fields(LoadedModel)}
    assert {"params", "cptv", "mu_mode", "z"} <= fields


def test_every_traced_function_resolves():
    traced = next(ast.literal_eval(node.value) for node in _tree("tracer.py").body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    assert traced
    for module, attr, *_ in traced:
        assert callable(getattr(importlib.import_module(f"missmix.{module}"), attr))
    # the one classmethod the tracer wraps on its class
    assert callable(missmix.RatingDataset.__dict__["from_arrays"].__func__)

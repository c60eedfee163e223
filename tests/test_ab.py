"""tools/ab.py, the paired A/B runner, with the benchmark runs stubbed."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_the_record_holds_ratios_and_wins(tmp_path, capsys):
    ab = _load_tool()
    calls = []
    # the change is 10% faster in wall time at every seed but 3, and reads the
    # same probe error; a metric outside BENCHMARK.json's list is left out
    walls = {"base": [2.0, 2.2, 2.4, 2.6], "change": [1.8, 1.98, 2.16, 2.8]}

    def run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        return {"correct": True, "metrics": {
            "wall_s": {"value": walls[tree.name][seed - 7]},
            "probe_mae": {"value": 0.75}, "mae_gain_pct": {"value": 30.0}}}

    sides = {side: tmp_path / side for side in ab.SIDES}
    pairs = ab.run_pairs(sides, "desk-grid", 4, 3.0, 7, run=run)
    assert [(name, seed) for name, _, seed, _ in calls] == [
        ("base", 7), ("change", 7), ("change", 8), ("base", 8),
        ("base", 9), ("change", 9), ("change", 10), ("base", 10)]
    assert {(workload, seconds) for _, workload, _, seconds in calls} == {("desk-grid", 3.0)}
    assert [p["first"] for p in pairs] == ["base", "change", "base", "change"]

    summary = ab.summarise(pairs, {"wall_s": "lower", "probe_mae": "lower"})
    assert list(summary) == ["wall_s", "probe_mae"]
    wall = summary["wall_s"]
    assert wall["ratio_median"] == pytest.approx(0.9)
    assert (wall["wins"], wall["pairs"]) == (3, 4)
    assert wall["base"] == pytest.approx({"median": 2.3, "q1": 2.15, "q3": 2.45})
    assert wall["change"]["median"] == pytest.approx(2.07)
    assert (summary["probe_mae"]["ratio_median"], summary["probe_mae"]["wins"]) == (1.0, 0)
    # with all workloads the metrics carry the workload's name
    prefixed = [{side: {f"million-fit.{k}": v for k, v in p[side].items()} for side in ab.SIDES}
                for p in pairs]
    assert list(ab.summarise(prefixed, {"wall_s": "lower"})) == ["million-fit.wall_s"]

    ab.print_summary(summary)
    assert "3/4" in capsys.readouterr().out
    path = tmp_path / "BENCH_x.json"
    ab.write_record(path, {"python": "3"}, {"workload": "desk-grid", "pairs": 4}, summary)
    record = json.loads(path.read_text())
    assert record["python"] == "3" and record["pairs"] == 4
    assert record["metrics"]["wall_s"]["wins"] == 3
    assert "samples" not in path.read_text()


def test_a_run_that_is_not_correct_stops_the_pairs(tmp_path):
    ab = _load_tool()
    sides = {side: tmp_path / side for side in ab.SIDES}
    with pytest.raises(SystemExit, match="change run of wide-learn at seed 0 is not correct"):
        ab.run_pairs(sides, "wide-learn", 2, 1.0, 0, run=lambda tree, *_: {
            "correct": tree.name == "base", "metrics": {}})

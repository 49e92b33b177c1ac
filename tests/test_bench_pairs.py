from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
BETTER = {"wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_line(wall: float, setup: float, peak: float, correct: bool = True,
             failed: int = 0) -> dict:
    """A run's last stdout line as ``perfbench/run.py`` prints it, parsed."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": peak, "unit": "MiB"}}
    return json.loads(json.dumps({"correct": correct, "attempted": 3, "failed": failed,
                                  "metrics": metrics}))


def test_summary_of_canned_runs():
    tool = load_tool()
    pairs = [
        {"parent": run_line(1.0, 2.0, 150.0), "head": run_line(0.9, 1.5, 151.0), "seed": 1},
        {"parent": run_line(1.2, 2.2, 150.0), "head": run_line(1.3, 1.6, 149.0), "seed": 2},
        {"parent": run_line(1.1, 2.1, 150.0), "head": run_line(1.0, 1.7, 150.0), "seed": 3},
        {"parent": {"correct": False, "line": "", "exit": 1}, "head": run_line(5.0, 5.0, 5.0)},
        # Metrics from a run with wrong results or failed operations count for nothing.
        {"parent": run_line(9.0, 9.0, 9.0), "head": run_line(0.1, 0.1, 0.1, correct=False)},
        {"parent": run_line(9.0, 9.0, 9.0), "head": run_line(0.1, 0.1, 0.1, failed=2)},
    ]
    summary = tool.summarise(pairs, BETTER)
    assert (summary["pairs"], summary["left_out"]) == (6, 3)
    assert summary["runs"] == {"parent": {"not_correct": 1, "failed": 0},
                               "head": {"not_correct": 1, "failed": 2}}
    metrics = summary["metrics"]
    assert sorted(metrics) == ["peak_rss_mb", "setup_s", "wall_s"]
    setup = metrics["setup_s"]
    assert setup["pairs"] == 3
    assert setup["head"]["values"] == [1.5, 1.6, 1.7]
    assert setup["head"]["median"] == pytest.approx(1.6)
    assert (setup["head"]["q1"], setup["head"]["q3"]) == pytest.approx((1.55, 1.65))
    assert (setup["head"]["wins"], setup["parent"]["wins"]) == (3, 0)
    wall = metrics["wall_s"]
    assert (wall["head"]["wins"], wall["parent"]["wins"]) == (2, 1)
    assert wall["parent"]["median"] == pytest.approx(1.1)
    # A tie is a win for neither side.
    peak = metrics["peak_rss_mb"]
    assert (peak["head"]["wins"], peak["parent"]["wins"]) == (1, 1)


def test_higher_is_better_counts_the_larger_value():
    tool = load_tool()
    pairs = [{"parent": run_line(1.0, 1.0, 1.0), "head": run_line(2.0, 1.0, 1.0)}]
    metrics = tool.summarise(pairs, {**BETTER, "wall_s": "higher"})["metrics"]
    assert metrics["wall_s"]["head"]["wins"] == 1
    assert metrics["wall_s"]["head"]["q1"] == metrics["wall_s"]["head"]["q3"] == 2.0


def test_no_sound_pair_leaves_no_metric():
    tool = load_tool()
    pairs = [{"parent": run_line(1.0, 1.0, 1.0, correct=False), "head": run_line(1.0, 1.0, 1.0)}]
    summary = tool.summarise(pairs, BETTER)
    assert (summary["left_out"], summary["metrics"]) == (1, {})

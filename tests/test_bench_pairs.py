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


BOUNDS = {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


def peak_pairs(parent: list[float], head: list[float]) -> list[dict]:
    return [{"parent": run_line(1.0, 1.0, a), "head": run_line(1.0, 1.0, b)}
            for a, b in zip(parent, head)]


@pytest.mark.parametrize("head, verdict", [
    # Better in all ten pairs, by more than the parent's quartile spread.
    ([110.0] * 10, "gain"),
    # Better in eight pairs of ten: no claim, and within the bound.
    ([110.0] * 8 + [160.0] * 2, "unchanged"),
    # Better in nine pairs, but by less than the parent's quartile spread (1.75).
    ([150.0] * 9 + [152.0], "unchanged"),
    ([151.0, 151.5] * 5, "unchanged"),
    # Worse by more than 10 % of the parent's median.
    ([167.0] * 10, "regression"),
    # Better in every pair, but in 4 pairs or 1 pair (the first of the
    # parent's), not the ten a claim needs.
    ([110.0] * 4, "unchanged"),
    ([110.0], "unchanged"),
])
def test_verdict_against_the_bound(head, verdict):
    tool = load_tool()
    parent = [150.0, 152.0, 151.0, 149.0, 153.0, 150.5, 151.5, 152.5, 149.5, 151.0]
    summary = tool.summarise(peak_pairs(parent, head), BETTER, BOUNDS)
    entry = summary["metrics"]["peak_rss_mb"]
    assert (entry["bound"], entry["verdict"]) == (0.1, verdict)
    # Equal pairs of the other metrics change nothing.
    assert summary["metrics"]["wall_s"]["verdict"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    tool = load_tool()
    parent = [100.0, 140.0, 100.0, 140.0, 120.0, 120.0, 100.0, 140.0, 100.0, 140.0]
    summary = tool.summarise(peak_pairs(parent, [120.0] * 10), BETTER, BOUNDS)
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "unresolved"
    # Unless every run of the tree reads better than every run of the parent.
    summary = tool.summarise(peak_pairs(parent, [99.0] * 10), BETTER, BOUNDS)
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "unchanged"


def test_gain_counts_every_pair_run():
    # Nine wins among ten sound pairs, but eleven pairs run: no gain.
    tool = load_tool()
    pairs = peak_pairs([150.0, 151.0] * 5, [110.0] * 9 + [155.0])
    assert tool.summarise(pairs, BETTER, BOUNDS)["metrics"]["peak_rss_mb"]["verdict"] == "gain"
    pairs.append({"parent": run_line(1.0, 1.0, 150.0), "head": run_line(1.0, 1.0, 1.0, failed=1)})
    assert tool.summarise(pairs, BETTER, BOUNDS)["metrics"]["peak_rss_mb"]["verdict"] == "unchanged"


def test_higher_is_better_verdicts():
    tool = load_tool()
    better = {**BETTER, "peak_rss_mb": "higher"}
    parent = [150.0, 151.0] * 5
    for head, verdict in (([170.0] * 10, "gain"), ([130.0] * 10, "regression")):
        summary = tool.summarise(peak_pairs(parent, head), better, BOUNDS)
        assert summary["metrics"]["peak_rss_mb"]["verdict"] == verdict


def test_no_verdict_without_bounds():
    tool = load_tool()
    entry = tool.summarise(peak_pairs([150.0] * 10, [110.0] * 10), BETTER)["metrics"]["wall_s"]
    assert "verdict" not in entry and "bound" not in entry


def test_each_run_gets_the_mode_environment(monkeypatch, tmp_path):
    tool = load_tool()
    seen = []

    def fake_run(command, cwd, capture_output, text, env):
        seen.append((command[command.index("--seed") + 1], env.get("MALLOC_MMAP_THRESHOLD_")))
        line = json.dumps({"correct": True, "failed": 0, "metrics": {}})
        return type("Done", (), {"stdout": line + "\n", "returncode": 0})()

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    monkeypatch.setattr(tool, "_run_side", lambda side, parent, command, env: tool._run(
        command, env))
    benchmark = {"command": ["bench"], "run_seconds": 5}
    pairs = tool._pairs("cli", 3, [1, 2], benchmark, tmp_path, tool.FIXED_MMAP)
    assert [pair["first"] for pair in pairs] == ["parent", "head", "parent"]
    assert seen == [("1", "131072")] * 2 + [("2", "131072")] * 2 + [("1", "131072")] * 2
    seen.clear()
    tool._pairs("cli", 1, [1], benchmark, tmp_path, {})
    assert seen == [("1", None)] * 2


def test_verdict_lines_of_canned_runs():
    tool = load_tool()
    parent = [150.0, 152.0, 151.0, 149.0, 153.0, 150.5, 151.5, 152.5, 149.5, 151.0]
    report = {"workloads": {"scan": {
        "summary": tool.summarise(peak_pairs(parent, [167.0] * 10), BETTER, BOUNDS),
        "fixed_mmap_threshold": {"summary": tool.summarise(peak_pairs(parent[:4], [110.0] * 4),
                                                           BETTER)},
    }}}
    assert tool.verdict_lines(report, BOUNDS) == [
        "scan wall_s: 1 -> 1, head better in 0 of 10, unchanged",
        "scan setup_s: 1 -> 1, head better in 0 of 10, unchanged",
        "scan peak_rss_mb: 151 -> 167, head better in 0 of 10, regression",
        "scan fixed-mmap wall_s: 1 -> 1, head better in 0 of 4, no verdict",
        "scan fixed-mmap setup_s: 1 -> 1, head better in 0 of 4, no verdict",
        "scan fixed-mmap peak_rss_mb: 150.5 -> 110, head better in 4 of 4, no verdict",
    ]
    # A metric no sound pair reports gets no line; one no pair kept has no median.
    report["workloads"]["scan"]["summary"]["metrics"].pop("wall_s")
    report["workloads"]["scan"]["summary"]["metrics"]["setup_s"].update(
        pairs=0, parent={"median": None, "wins": 0}, head={"median": None, "wins": 0})
    assert tool.verdict_lines(report, ["wall_s", "setup_s"])[0] == (
        "scan setup_s: - -> -, head better in 0 of 0, unchanged")


def test_agreement_lines_of_canned_runs():
    tool = load_tool()
    parent = [150.0, 152.0, 151.0, 149.0, 153.0, 150.5, 151.5, 152.5, 149.5, 151.0]
    pairs = peak_pairs(parent, [140.0] * 10)
    for pair, wall in zip(pairs, [2.0, 2.2, 2.1, 2.3, 2.0, 2.2, 2.1, 2.3, 2.0, 2.2]):
        pair["parent"]["metrics"]["wall_s"]["value"] = wall
    fixed = peak_pairs(parent[:4], [160.0] * 4)
    for pair in fixed:
        pair["parent"]["metrics"]["wall_s"]["value"] = 2.0
    report = {"workloads": {
        "scan": {"summary": tool.summarise(pairs, BETTER, BOUNDS),
                 "fixed_mmap_threshold": {"summary": tool.summarise(fixed, BETTER)}},
        "depth": {"summary": tool.summarise(pairs, BETTER, BOUNDS)},
    }}
    assert tool.agreement_lines(report, BOUNDS) == [
        "scan wall_s: fixed-mmap pairs move the median the same way as the default pairs "
        "(default down, fixed-mmap down)",
        "scan setup_s: fixed-mmap pairs move the median the same way as the default pairs "
        "(default none, fixed-mmap none)",
        "scan peak_rss_mb: fixed-mmap pairs move the median another way than the default pairs "
        "(default down, fixed-mmap up)",
    ]
    # A metric that one mode does not report gets no line; one with no median moves "-".
    report["workloads"]["scan"]["fixed_mmap_threshold"]["summary"]["metrics"].pop("wall_s")
    report["workloads"]["scan"]["summary"]["metrics"]["setup_s"].update(
        pairs=0, parent={"median": None, "wins": 0}, head={"median": None, "wins": 0})
    assert tool.agreement_lines(report, ["wall_s", "setup_s"]) == [
        "scan setup_s: fixed-mmap pairs move the median another way than the default pairs "
        "(default -, fixed-mmap none)"]


def test_main_prints_the_verdicts_and_writes_the_report(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "WORK", tmp_path / "work")
    monkeypatch.setattr(tool, "_git", lambda *args: b"abc123\n")
    monkeypatch.setattr(tool, "_extract_parent", lambda rev: tmp_path)
    monkeypatch.setattr(tool, "_host", lambda: {"nproc": 1})
    walls = {"parent": iter([2.0, 2.2, 2.1, 2.3]), "head": iter([1.9, 2.0, 2.4, 2.2])}
    monkeypatch.setattr(tool, "_run_side", lambda side, parent, command, env: run_line(
        next(walls[side]), 1.0, 100.0))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD~1", "--workload", "cli", "--seeds", "1,2", "--pairs", "3",
            "--fixed-mmap-pairs", "1", "--out", str(out)]
    assert tool.main(argv) == 0
    report = json.loads(out.read_text())
    assert list(report) == ["parent", "host_before", "workloads", "host_after"]
    assert report["parent"] == "abc123" and list(report["workloads"]) == ["cli"]
    result = report["workloads"]["cli"]
    assert [pair["seed"] for pair in result["pairs"]] == [1, 2, 1]
    assert result["fixed_mmap_threshold"]["env"] == tool.FIXED_MMAP
    printed = capsys.readouterr().out.splitlines()
    assert printed[-6:] == tool.verdict_lines(report, BOUNDS)
    assert printed[-6:][0] == "cli wall_s: 2.1 -> 2, head better in 2 of 3, unchanged"
    assert printed[-1] == "cli fixed-mmap peak_rss_mb: 100 -> 100, head better in 0 of 1, no verdict"


def test_main_prints_the_agreement_of_the_modes_first(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "WORK", tmp_path / "work")
    monkeypatch.setattr(tool, "_git", lambda *args: b"abc123\n")
    monkeypatch.setattr(tool, "_extract_parent", lambda rev: tmp_path)
    monkeypatch.setattr(tool, "_host", lambda: {"nproc": 1})
    walls = {"parent": iter([2.0, 2.2, 2.1, 2.3]), "head": iter([1.9, 2.0, 2.4, 2.2])}
    monkeypatch.setattr(tool, "_run_side", lambda side, parent, command, env: run_line(
        next(walls[side]), 1.0, 100.0))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD~1", "--workload", "cli", "--seeds", "1,2", "--pairs", "3",
            "--fixed-mmap-pairs", "1", "--out", str(out)]
    assert tool.main(argv) == 0
    report = json.loads(out.read_text())
    assert "agreement" not in json.dumps(report)
    printed = capsys.readouterr().out.splitlines()
    assert printed[-9:-6] == tool.agreement_lines(report, BOUNDS)
    assert printed[-9] == ("cli wall_s: fixed-mmap pairs move the median the same way as the "
                           "default pairs (default down, fixed-mmap down)")

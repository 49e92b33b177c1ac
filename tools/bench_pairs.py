"""Alternating pairs of benchmark runs: a parent revision against the working tree.

    python tools/bench_pairs.py --parent REV --workload scan,cli --seeds 1,2,3 \\
        --pairs 10 [--fixed-mmap-pairs 4] --out BENCH.json

Both sides run from this checkout's path, so that the path cannot tell
them apart. The parent's ``src/`` is extracted with ``git archive`` and
swapped with the working ``src/`` in place for each of its runs; the
working ``src/`` is put back in a ``finally``, also when a run fails or
the tool is interrupted. Each pair runs the benchmark command of
``BENCHMARK.json`` (the unchanged ``perfbench/run.py``) with
``--workload W --seed S --seconds N --trace 0``, N being its
``run_seconds``, once per side, pair k on seed k of ``--seeds`` (cycled),
and the side that runs first alternates from pair to pair (Kalibera and
Jones, "Rigorous benchmarking in reasonable time", ISMM 2013).

The output file holds every run's last stdout line (its JSON result), and
per workload the runs per side that were not correct and their failed
operations, and per metric and side, over the pairs in which both runs
were correct with no failed operation, the median, the quartiles and the
number of pairs in which that side was better (the direction comes from
``BENCHMARK.json``), with the host's CPU count, the Python and numpy
versions and the load average before and after.

Each metric that ``BENCHMARK.json`` gives a bound gets a verdict (see
``verdict``). ``--fixed-mmap-pairs N`` runs N more pairs per workload with
``MALLOC_MMAP_THRESHOLD_=131072``, which fixes glibc's otherwise dynamic
mmap threshold, and summarises them apart under ``fixed_mmap_threshold``
with no verdict: where the two modes disagree, the allocator moved the
metric, not the work. When it is done, the tool prints, for each
workload and bounded metric, whether the two modes move the median the
same way (see ``agreement_lines``), then one line per workload and bounded
metric and mode (see ``verdict_lines``). Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from collections.abc import Iterable
from fractions import Fraction
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "head")
# The parent's sources while the tool runs; listed in .gitignore.
WORK = ROOT / ".bench-pairs"
# The environment of the second, labelled set of pairs.
FIXED_MMAP = {"MALLOC_MMAP_THRESHOLD_": "131072"}
# The share of all pairs run that the working tree must win to claim a gain.
GAIN_WINS = Fraction(9, 10)
# The fewest pairs run on which a gain can be claimed.
GAIN_PAIRS = 10


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _extract_parent(rev: str) -> Path:
    """``rev``'s ``src/`` unpacked under ``WORK``; the directory holding it."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev, "src"))) as archive:
        archive.extractall(WORK / "parent", filter="data")
    return WORK / "parent"


def _run(command: list[str], env: dict[str, str]) -> dict:
    """One benchmark run with ``env`` added to the environment: its last
    stdout line parsed, or what went wrong."""
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, **env})
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "line": lines[-1] if lines else ""}
    result["exit"] = done.returncode
    return result


def _run_side(side: str, parent: Path, command: list[str], env: dict[str, str]) -> dict:
    """``command`` run with the ``side``'s sources in ``src/``."""
    if side == "head":
        return _run(command, env)
    held = WORK / "head-src"
    os.rename(ROOT / "src", held)
    try:
        os.rename(parent / "src", ROOT / "src")
        try:
            return _run(command, env)
        finally:
            os.rename(ROOT / "src", parent / "src")
    finally:
        os.rename(held, ROOT / "src")


def _quartiles(values: list[float]) -> list[float]:
    """The lower quartile, the median and the upper quartile of ``values``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _sound(run: dict) -> bool:
    """Whether ``run`` checked correct with no failed operation."""
    return run.get("correct") is True and run.get("failed") == 0


def verdict(entry: dict, pairs: int, bound: float) -> str:
    """The verdict on one metric's summary ``entry`` over ``pairs`` pairs
    run, for a metric whose median may be worse than the parent's by at
    most ``bound``, a share of the parent's median:

    * ``gain``: at least ``GAIN_PAIRS`` pairs were run, the working tree
      won at least ``GAIN_WINS`` of them, ties counting for neither side,
      and its median is better than the parent's by more than the
      parent's quartile spread;
    * ``regression``: its median is worse by more than the bound;
    * ``unresolved``: the parent's quartile spread is wider than the bound,
      and not every run of the working tree reads better than every run
      of the parent;
    * ``unchanged`` otherwise."""
    parent, head = entry["parent"], entry["head"]
    if not entry["pairs"]:
        return "unresolved"
    sign = -1 if entry["better"] == "higher" else 1
    gap = sign * (parent["median"] - head["median"])  # > 0 when the tree is better
    spread = parent["q3"] - parent["q1"]
    if pairs >= GAIN_PAIRS and head["wins"] >= GAIN_WINS * pairs and gap > spread:
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "regression"
    apart = max(sign * v for v in head["values"]) < min(sign * v for v in parent["values"])
    if spread > bound * abs(parent["median"]) and not apart:
        return "unresolved"
    return "unchanged"


def summarise(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per side, the runs that were not correct and the failed operations
    of all runs; per metric, over the pairs in which both runs were sound
    and report it, per side the values, their median and quartiles, and
    the wins, the pairs in which that side's value was the better one
    (``better[metric]`` is ``"lower"`` or ``"higher"``), and the
    ``verdict`` of each metric that ``bounds`` gives a bound. ``pairs`` map
    each side to its run's result."""
    runs = {side: {"not_correct": sum(pair[side].get("correct") is not True for pair in pairs),
                   "failed": sum(pair[side].get("failed", 0) for pair in pairs)}
            for side in SIDES}
    sound = [pair for pair in pairs if all(_sound(pair[side]) for side in SIDES)]
    names = sorted({name for pair in sound for side in SIDES for name in pair[side]["metrics"]})
    metrics = {}
    for name in names:
        kept = [pair for pair in sound if all(name in pair[side]["metrics"] for side in SIDES)]
        values = {side: [pair[side]["metrics"][name]["value"] for pair in kept] for side in SIDES}
        sign = -1 if better[name] == "higher" else 1
        entry = {"better": better[name], "pairs": len(kept)}
        for side, other in (SIDES, SIDES[::-1]):
            low, median, high = _quartiles(values[side]) if kept else (None, None, None)
            wins = sum(sign * a < sign * b for a, b in zip(values[side], values[other]))
            entry[side] = {"values": values[side], "median": median, "q1": low, "q3": high,
                           "wins": wins}
        if bounds and name in bounds:
            entry["bound"] = bounds[name]
            entry["verdict"] = verdict(entry, len(pairs), bounds[name])
        metrics[name] = entry
    return {"pairs": len(pairs), "left_out": len(pairs) - len(sound), "runs": runs,
            "metrics": metrics}


def verdict_lines(report: dict, bounds: Iterable[str]) -> list[str]:
    """One line per workload and metric of ``bounds`` in ``report``: the
    parent's and the working tree's medians, the pairs the working tree
    won out of the pairs summarised, and the verdict; the pairs run with a
    fixed mmap threshold are labelled, and have no verdict."""
    lines = []
    for workload, result in report["workloads"].items():
        modes = [(workload, result["summary"])]
        if "fixed_mmap_threshold" in result:
            modes.append((f"{workload} fixed-mmap", result["fixed_mmap_threshold"]["summary"]))
        for label, summary in modes:
            for name in bounds:
                entry = summary["metrics"].get(name)
                if entry is not None:
                    parent, head = (entry[side]["median"] for side in SIDES)
                    lines.append(
                        f"{label} {name}: {_figure(parent)} -> {_figure(head)}, head better in "
                        f"{entry['head']['wins']} of {entry['pairs']}, "
                        f"{entry.get('verdict', 'no verdict')}"
                    )
    return lines


def _move(entry: dict) -> str:
    """Which way the working tree moved the median of one metric's summary
    ``entry``: ``up``, ``down`` or ``none``; ``-`` with no median."""
    parent, head = (entry[side]["median"] for side in SIDES)
    if parent is None or head is None:
        return "-"
    return "up" if head > parent else "down" if head < parent else "none"


def agreement_lines(report: dict, bounds: Iterable[str]) -> list[str]:
    """One line per workload run in both modes and metric of ``bounds``
    that both report: whether the pairs with a fixed mmap threshold move
    the median the same way as the default pairs, and each mode's way."""
    lines = []
    for workload, result in report["workloads"].items():
        if "fixed_mmap_threshold" not in result:
            continue
        default, fixed = result["summary"], result["fixed_mmap_threshold"]["summary"]
        for name in bounds:
            if name in default["metrics"] and name in fixed["metrics"]:
                moves = _move(default["metrics"][name]), _move(fixed["metrics"][name])
                way = "the same way as" if moves[0] == moves[1] else "another way than"
                lines.append(f"{workload} {name}: fixed-mmap pairs move the median {way} the "
                             f"default pairs (default {moves[0]}, fixed-mmap {moves[1]})")
    return lines


def _figure(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def _host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg": list(os.getloadavg()),
    }


def _pairs(workload: str, count: int, seeds: list[int], benchmark: dict, parent: Path,
           env: dict[str, str]) -> list[dict]:
    """``count`` alternating pairs of runs of ``workload`` with ``env``."""
    pairs = []
    for k in range(count):
        seed = seeds[k % len(seeds)]
        command = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {side: _run_side(side, parent, command, env) for side in order}
        pair["seed"], pair["first"] = seed, order[0]
        pairs.append(pair)
        print(f"{workload} {env or 'default'} pair {k + 1}/{count} seed {seed}: " + ", ".join(
            f"{side} {pair[side].get('metrics', {}).get('peak_rss_mb', {}).get('value')} MiB"
            for side in SIDES), flush=True)
    return pairs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, help="workloads, comma-separated")
    parser.add_argument("--seeds", required=True, help="perfbench seeds, comma-separated")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--fixed-mmap-pairs", type=int, default=0,
                        help="pairs per workload run again with a fixed mmap threshold")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    commit = _git("rev-parse", args.parent).decode().strip()
    report = {"parent": commit, "host_before": _host(), "workloads": {}}
    parent = _extract_parent(args.parent)
    try:
        for workload in args.workload.split(","):
            pairs = _pairs(workload, args.pairs, seeds, benchmark, parent, {})
            result = report["workloads"][workload] = {
                "pairs": pairs, "summary": summarise(pairs, better, bounds)}
            if args.fixed_mmap_pairs:
                pairs = _pairs(workload, args.fixed_mmap_pairs, seeds, benchmark, parent,
                               FIXED_MMAP)
                result["fixed_mmap_threshold"] = {
                    "env": FIXED_MMAP, "pairs": pairs, "summary": summarise(pairs, better)}
    finally:
        if not (WORK / "head-src").exists():  # the working src/ is back in place
            shutil.rmtree(WORK, ignore_errors=True)
    report["host_after"] = _host()
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(agreement_lines(report, bounds) + verdict_lines(report, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

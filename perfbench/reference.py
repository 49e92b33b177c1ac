"""Reference computations that check depnet's outputs in the benchmark.

Standard library only, and no import of ``depnet``: every function here
re-derives a result from the dataset's CSV rows by the most direct method
available, so a fault in the program cannot hide behind shared code.

Run ``python3 perfbench/reference.py`` to check these functions against
the hand-computed values of the five-package TINY fixture that ships in
``src/depnet/data/tiny``.
"""

from __future__ import annotations

import csv
import math
import sys
from bisect import bisect_right
from collections import deque
from itertools import groupby
from datetime import datetime, timedelta, timezone
from pathlib import Path

# Dependency kinds depnet keeps by default (install/run-time requirements).
INCLUDED_KINDS = frozenset({"runtime", "imports", "depends", "normal"})

TINY_DIR = Path(__file__).resolve().parent.parent / "src" / "depnet" / "data" / "tiny"
TINY_CUTOFF = datetime(2020, 4, 1)


def parse_time(text: str) -> datetime:
    """ISO-8601 timestamp or date as a naive UTC datetime."""
    raw = text.strip()
    if raw[-1:] in ("Z", "z"):
        raw = raw[:-1] + "+00:00"
    value = datetime.fromisoformat(raw)
    if value.tzinfo is not None:
        value = value.astimezone(timezone.utc).replace(tzinfo=None)
    return value


def version_key(version: str) -> tuple:
    """Numeric dot segments compare as numbers and sort before text ones."""
    return tuple((0, int(s), "") if s.isdigit() else (1, 0, s) for s in version.split("."))


class Rows:
    """The dataset's three CSV files, read as plain rows.

    ``targets`` maps each release to the distinct known packages other than
    its own that it declares with an included kind, in file order.
    """

    def __init__(self, directory):
        directory = Path(directory)
        with open(directory / "packages.csv", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            self.packages = {row[0].strip() for row in reader}
        with open(directory / "releases.csv", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            self.releases = [
                (row[0].strip(), row[1].strip(), parse_time(row[2])) for row in reader
            ]
        self._order = None
        self._by_package = None
        self.targets: dict[tuple[str, str], list[str]] = {}
        with open(directory / "dependencies.csv", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            for src, ver, target, _constraint, kind in reader:
                src, target = src.strip(), target.strip()
                if kind.strip().lower() not in INCLUDED_KINDS or target not in self.packages:
                    continue
                if target == src:
                    continue
                declared = self.targets.setdefault((src, ver.strip()), [])
                if target not in declared:
                    declared.append(target)

    def chronological(self) -> list[tuple[str, str, datetime]]:
        """Releases ordered by time; one package's releases at one instant
        are ordered by version, so the greatest version comes last."""
        if self._order is None:
            order = sorted(self.releases, key=lambda r: (r[2], r[0]))
            i = 0
            while i < len(order):
                j = i + 1
                while j < len(order) and order[j][2] == order[i][2] and order[j][0] == order[i][0]:
                    j += 1
                if j - i > 1:
                    order[i:j] = sorted(order[i:j], key=lambda r: version_key(r[1]))
                i = j
            self._order = order
        return self._order

    def by_package(self) -> dict[str, list[tuple[str, datetime]]]:
        """Each package's (version, timestamp) list in release order."""
        if self._by_package is None:
            acc: dict[str, list[tuple[str, datetime]]] = {}
            for pkg, ver, ts in self.chronological():
                acc.setdefault(pkg, []).append((ver, ts))
            self._by_package = acc
        return self._by_package


def graphs_at(rows: Rows, instants) -> dict[datetime, dict[str, tuple[str, ...]]]:
    """Dependency graph at each instant, from one pass over the releases.

    A graph maps every package with a release at or before the instant to
    the targets declared by its latest release that also exist then.
    """
    order = rows.chronological()
    latest: dict[str, str] = {}
    graphs = {}
    i = 0

    def existing(release) -> tuple[str, ...]:
        declared = rows.targets.get(release)
        return tuple([q for q in declared if q in latest]) if declared else ()

    for t in sorted(instants):
        while i < len(order) and order[i][2] <= t:
            pkg, ver, _ = order[i]
            latest[pkg] = ver
            i += 1
        graphs[t] = {p: existing((p, v)) for p, v in latest.items()}
    return graphs


def sizes_at(rows: Rows, instants) -> dict[datetime, tuple[int, int]]:
    """(packages, dependencies) of the graph at each instant, counted from
    the time intervals during which each package and each edge exists.

    Release k of a package is its latest from its own timestamp until the
    next release's; an edge it declares exists from the later of that
    timestamp and the target's first release until the same end.
    """
    releases = rows.by_package()
    first = {p: rels[0][1] for p, rels in releases.items()}
    starts: list[datetime] = []
    ends: list[datetime] = []
    for pkg, rels in releases.items():
        for k, (ver, ts) in enumerate(rels):
            end = rels[k + 1][1] if k + 1 < len(rels) else datetime.max
            for q in rows.targets.get((pkg, ver), ()):
                if q in first and max(ts, first[q]) < end:
                    starts.append(max(ts, first[q]))
                    ends.append(end)
    starts.sort()
    ends.sort()
    births = sorted(first.values())
    return {
        t: (bisect_right(births, t), bisect_right(starts, t) - bisect_right(ends, t))
        for t in instants
    }


def n_edges(graph) -> int:
    return sum(len(ts) for ts in graph.values())


def reverse(graph) -> dict[str, list[str]]:
    rev: dict[str, list[str]] = {p: [] for p in graph}
    for p, targets in graph.items():
        for q in targets:
            rev[q].append(p)
    return rev


def in_degrees(graph) -> dict[str, int]:
    """In-degree of every package that has at least one dependent."""
    counts: dict[str, int] = {}
    for targets in graph.values():
        for q in targets:
            counts[q] = counts.get(q, 0) + 1
    return counts


def top_level(graph) -> set[str]:
    """Packages with dependencies that no package depends on."""
    required = set(in_degrees(graph))
    return {p for p, ts in graph.items() if ts and p not in required}


def bfs_reach(adjacency, start: str) -> set[str]:
    """Nodes reachable from ``start`` by one or more edges, minus ``start``."""
    seen = {start}
    queue = deque([start])
    while queue:
        for q in adjacency[queue.popleft()]:
            if q not in seen:
                seen.add(q)
                queue.append(q)
    seen.discard(start)
    return seen


def bfs_eccentricity(adjacency, start: str) -> int:
    """Largest shortest-path distance from ``start`` to a node it reaches."""
    dist = {start: 0}
    queue = deque([start])
    depth = 0
    while queue:
        p = queue.popleft()
        for q in adjacency[p]:
            if q not in dist:
                dist[q] = depth = dist[p] + 1
                queue.append(q)
    return depth


def largest_scc(graph) -> int:
    """Size of the largest strongly connected component (Kosaraju)."""
    finished: list[str] = []
    seen: set[str] = set()
    for root in graph:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(graph[root]))]
        while stack:
            node, it = stack[-1]
            for q in it:
                if q not in seen:
                    seen.add(q)
                    stack.append((q, iter(graph[q])))
                    break
            else:
                stack.pop()
                finished.append(node)
    rev = reverse(graph)
    assigned: set[str] = set()
    best = 0
    for root in reversed(finished):
        if root in assigned:
            continue
        assigned.add(root)
        stack = [root]
        size = 0
        while stack:
            node = stack.pop()
            size += 1
            for q in rev[node]:
                if q not in assigned:
                    assigned.add(q)
                    stack.append(q)
        best = max(best, size)
    return best


def h_index(counts) -> int:
    """Sort descending and scan: the largest h with h entries >= h."""
    h = 0
    for rank, count in enumerate(sorted(counts, reverse=True), start=1):
        if count < rank:
            break
        h = rank
    return h


def update_counts(rows: Rows, t: datetime, window_days: int) -> dict[str, int]:
    """Non-first releases per package with timestamp in (t - window, t]."""
    start = t - timedelta(days=window_days)
    counts: dict[str, int] = {}
    for pkg, rels in rows.by_package().items():
        for _, ts in rels[1:]:
            if start < ts <= t:
                counts[pkg] = counts.get(pkg, 0) + 1
    return counts


def required_at_release(rows: Rows) -> dict[tuple[str, str], bool]:
    """Whether each release's package had a direct dependent at that instant.

    One chronological pass that keeps, for every package, how many other
    packages' current latest releases declare it. A released package
    exists, so that count is its in-degree. Releases sharing a timestamp
    are judged after the whole instant has been applied.
    """
    declared_by: dict[str, int] = {}
    current: dict[str, list[str]] = {}
    flags: dict[tuple[str, str], bool] = {}
    targets = rows.targets
    for _, group in groupby(rows.chronological(), key=lambda r: r[2]):
        group = list(group)
        for pkg, ver, _ in group:
            for q in current.get(pkg, ()):
                declared_by[q] -= 1
            new = targets.get((pkg, ver), ())
            for q in new:
                declared_by[q] = declared_by.get(q, 0) + 1
            current[pkg] = new
        for pkg, ver, _ in group:
            flags[(pkg, ver)] = declared_by.get(pkg, 0) > 0
    return flags


def survival_samples(rows: Rows, cutoff: datetime, flags):
    """(required, not_required) lists of (days to next release, censored)."""
    required: list[tuple[float, bool]] = []
    other: list[tuple[float, bool]] = []
    for pkg, rels in rows.by_package().items():
        for k, (ver, ts) in enumerate(rels):
            if k + 1 < len(rels):
                obs = ((rels[k + 1][1] - ts).total_seconds() / 86400.0, False)
            else:
                obs = ((cutoff - ts).total_seconds() / 86400.0, True)
            (required if flags[(pkg, ver)] else other).append(obs)
    return required, other


def kaplan_meier(observations) -> list[tuple[float, float]]:
    """Product-limit survival curve as (time, survival) steps.

    Starts at (0, 1) and has a step at every distinct observed time after
    0 (and at 0 if an event happens there); events at a time are counted
    before the censorings at that time leave the risk set.
    """
    ordered = sorted(observations)
    at_risk = len(ordered)
    survival = 1.0
    steps = [(0.0, 1.0)]
    i = 0
    while i < len(ordered):
        time = ordered[i][0]
        events = censored = 0
        while i < len(ordered) and ordered[i][0] == time:
            if ordered[i][1]:
                censored += 1
            else:
                events += 1
            i += 1
        if events:
            survival *= 1.0 - events / at_risk
        if time > 0.0 or events:
            steps.append((time, survival))
        at_risk -= events + censored
    return steps


def gini(values) -> float:
    """Gini index from the sorted formula 2*sum(i*x_i)/(n*sum x) - (n+1)/n."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    total = math.fsum(xs)
    if total == 0.0:
        return 0.0
    weighted = math.fsum(i * x for i, x in enumerate(xs, start=1))
    return 2.0 * weighted / (n * total) - (n + 1) / n


def self_test() -> list[str]:
    """Check the reference against TINY's hand-computed values; return faults."""
    faults = []

    def expect(label, got, want):
        if got != want:
            faults.append(f"{label}: got {got!r}, want {want!r}")

    rows = Rows(TINY_DIR)
    months = [datetime(2020, m, 1) for m in (2, 3, 4)]
    graphs = graphs_at(rows, months)
    expect("tiny sizes", [(len(graphs[t]), n_edges(graphs[t])) for t in months],
           [(3, 0), (4, 2), (5, 4)])
    sizes = sizes_at(rows, months)
    expect("tiny sizes by intervals", [sizes[t] for t in months], [(3, 0), (4, 2), (5, 4)])
    g = graphs[TINY_CUTOFF]
    expect("tiny top level", top_level(g), {"d"})
    expect("tiny depth of d", bfs_eccentricity(g, "d"), 2)
    reach = sum(len(bfs_reach(g, p)) for p in g)
    expect("tiny transitive ratio", reach / n_edges(g), 1.5)
    expect("tiny largest scc", largest_scc(g), 1)
    expect("h-index", [h_index(c) for c in ([], [0], [3, 0, 6, 1, 5], [10, 10])], [0, 0, 3, 2])
    km = kaplan_meier([(2, False), (4, False), (5, True)])
    expect("km times", [t for t, _ in km], [0.0, 2, 4, 5])
    expect("km survival", [round(s, 12) for _, s in km], [1.0, round(2 / 3, 12)] + [round(1 / 3, 12)] * 2)
    expect("gini", [round(gini(v), 12) for v in ([1, 1], [0, 0, 1], [0, 0, 0])],
           [0.0, round(2 / 3, 12), 0.0])
    return faults


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(f"FAIL {line}")
    print("reference self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)

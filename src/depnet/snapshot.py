"""Package-level dependency network construction at points in time.

A snapshot at time t contains every package with at least one release at
or before t, and a directed edge p -> q whenever the latest release of p
declares a dependency on q and q also exists at t.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import ItemsView, Iterator, NamedTuple, Optional

from .ingest import Dataset, ReleaseRecord
from .timeutil import Month, format_month, iter_months, month_of, month_start


class IntView(NamedTuple):
    """Integer-id form of a snapshot for whole-graph algorithms.

    Node ``i`` is ``names[i]`` (ids follow ``latest`` order) and
    ``ids`` inverts ``names``; ``adj[i]`` lists the ids of node ``i``'s
    out-neighbours. The view is cached on the graph and shared by every
    caller, so it must not be mutated.
    """

    names: list[str]
    ids: dict[str, int]
    adj: list[list[int]]


class SnapshotGraph:
    """Immutable dependency network at a single instant.

    ``latest`` maps each existing package to the release chosen for it
    (maximum timestamp <= at, version order breaking timestamp ties).
    ``dropped_deps`` counts dependency rows of latest releases whose target
    did not exist at the snapshot instant.
    """

    __slots__ = (
        "at", "latest", "ecosystem", "dropped_deps", "_out", "_in", "_int", "_edge_count",
    )

    def __init__(
        self,
        at: datetime,
        latest: dict[str, ReleaseRecord],
        out_edges: dict[str, tuple[str, ...]],
        dropped_deps: int = 0,
        ecosystem: str = "default",
    ):
        self.at = at
        self.latest = latest
        self.ecosystem = ecosystem
        self.dropped_deps = dropped_deps
        self._out = out_edges
        self._in: Optional[dict[str, tuple[str, ...]]] = None
        self._int: Optional[IntView] = None
        self._edge_count = sum(len(ts) for ts in out_edges.values())

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.latest)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (src, dst) for src, targets in self._out.items() for dst in targets
        )

    @property
    def n_nodes(self) -> int:
        return len(self.latest)

    @property
    def n_edges(self) -> int:
        return self._edge_count

    def has_node(self, package: str) -> bool:
        return package in self.latest

    def out_neighbors(self, package: str) -> tuple[str, ...]:
        if package not in self.latest:
            raise KeyError(package)
        return self._out.get(package, ())

    def out_items(self) -> ItemsView[str, tuple[str, ...]]:
        """(package, out-neighbours) of every package with an out-edge."""
        return self._out.items()

    def in_degree_counts(self) -> dict[str, int]:
        """In-degree of every package with an in-edge, keyed in the order
        the packages first appear as targets in :meth:`out_items`."""
        counts: dict[str, int] = {}
        for targets in self._out.values():
            for q in targets:
                counts[q] = counts.get(q, 0) + 1
        return counts

    def in_neighbors(self, package: str) -> tuple[str, ...]:
        if package not in self.latest:
            raise KeyError(package)
        return self._reverse().get(package, ())

    def _reverse(self) -> dict[str, tuple[str, ...]]:
        # Benign data race: building the reverse map twice yields the same
        # object value, so no lock is needed for concurrent readers.
        rev = self._in
        if rev is None:
            acc: dict[str, list[str]] = {}
            for src, targets in self._out.items():
                for dst in targets:
                    acc.setdefault(dst, []).append(src)
            rev = {dst: tuple(srcs) for dst, srcs in acc.items()}
            self._in = rev
        return rev

    def int_view(self) -> IntView:
        """The graph with integer node ids, built on first use and cached."""
        # Same benign race as _reverse: a second build yields an equal view.
        view = self._int
        if view is None:
            names = list(self.latest)
            ids = {name: i for i, name in enumerate(names)}
            adj: list[list[int]] = [[] for _ in names]
            for src, targets in self._out.items():
                row = adj[ids[src]]
                for dst in targets:
                    row.append(ids[dst])
            view = self._int = IntView(names, ids, adj)
        return view

    def out_degree(self, package: str) -> int:
        return len(self.out_neighbors(package))

    def in_degree(self, package: str) -> int:
        return len(self.in_neighbors(package))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SnapshotGraph):
            return NotImplemented
        return (
            self.at == other.at
            and self.latest == other.latest
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return (
            f"SnapshotGraph(at={self.at.isoformat()}, nodes={self.n_nodes}, "
            f"edges={self.n_edges})"
        )


@dataclass
class SnapshotSeries:
    """Chronological snapshots at consecutive month starts."""

    snapshots: list[SnapshotGraph]

    @property
    def months(self) -> list[Month]:
        return [month_of(g.at) for g in self.snapshots]

    def __iter__(self) -> Iterator[SnapshotGraph]:
        return iter(self.snapshots)

    def __len__(self) -> int:
        return len(self.snapshots)


def checked_months(d: Dataset, first: Month, last: Month) -> list[Month]:
    """Months first..last, endpoints included; ``ValueError`` when the
    range is inverted or ends after the dataset cutoff's month."""
    if first > last:
        raise ValueError(
            f"inverted month range: {format_month(first)} > {format_month(last)}"
        )
    if last > month_of(d.cutoff):
        raise ValueError(
            f"month {format_month(last)} is beyond the dataset cutoff "
            f"{d.cutoff.isoformat()}"
        )
    return list(iter_months(first, last))


def _check_instant(d: Dataset, t: datetime) -> None:
    if t > d.cutoff:
        raise ValueError(
            f"snapshot instant {t.isoformat()} is after the dataset cutoff "
            f"{d.cutoff.isoformat()}"
        )


def latest_releases_at(d: Dataset, t: datetime) -> dict[str, ReleaseRecord]:
    """Latest release of each package at time t.

    Packages with no release at or before t are absent. Among releases
    sharing the maximal timestamp the greatest version wins.
    """
    _check_instant(d, t)
    idx = d.index()
    latest: dict[str, ReleaseRecord] = {}
    for pkg in idx.releases_by_package:
        rel = idx.latest_at(pkg, t)
        if rel is not None:
            latest[pkg] = rel
    return latest


def build_snapshot(d: Dataset, t: datetime) -> SnapshotGraph:
    """Construct the dependency network at time t."""
    latest = latest_releases_at(d, t)
    idx = d.index()
    out_edges: dict[str, tuple[str, ...]] = {}
    dropped = 0
    for pkg, rel in latest.items():
        targets = idx.targets_by_release.get((pkg, rel.version))
        if not targets:
            continue
        kept: list[str] = []
        seen: set[str] = set()
        for q in targets:
            if q not in latest:
                dropped += 1
            elif q != pkg and q not in seen:
                seen.add(q)
                kept.append(q)
        if kept:
            out_edges[pkg] = tuple(kept)
    return SnapshotGraph(
        at=t,
        latest=latest,
        out_edges=out_edges,
        dropped_deps=dropped,
        ecosystem=d.ecosystem,
    )


def monthly_snapshots(d: Dataset, first: Month, last: Month) -> SnapshotSeries:
    """Snapshots at the first instant of every month in [first, last]."""
    return SnapshotSeries(
        snapshots=[build_snapshot(d, month_start(m)) for m in checked_months(d, first, last)]
    )

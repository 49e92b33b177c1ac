"""Package-level dependency network construction at points in time.

A snapshot at time t contains every package with at least one release at
or before t, and a directed edge p -> q whenever the latest release of p
declares a dependency on q and q also exists at t. The graph stores those
edges once, as integer adjacency over node ids; the reverse adjacency is
built on the first in-neighbour query.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, NamedTuple, Optional

from .ingest import Dataset, ReleaseRecord
from .timeutil import Month, format_month, iter_months, month_of, month_start


class IntView(NamedTuple):
    """A snapshot's edges over integer node ids: the graph's edge storage.

    Node ``i`` is ``names[i]`` (ids follow ``latest`` order) and ``ids``
    inverts ``names``; ``adj[i]`` holds the ids of node ``i``'s
    out-neighbours in declaration order. Every caller shares the view, so
    it must not be mutated.
    """

    names: list[str]
    ids: dict[str, int]
    adj: list[tuple[int, ...]]


def in_degrees(adj: list[tuple[int, ...]]) -> list[int]:
    """In-degree of every node id, counted over the adjacency rows."""
    counts = [0] * len(adj)
    for row in adj:
        for j in row:
            counts[j] += 1
    return counts


class SnapshotGraph:
    """Immutable dependency network at a single instant.

    ``latest`` maps each existing package to the release chosen for it
    (maximum timestamp <= at, version order breaking timestamp ties).
    ``dropped_deps`` counts dependency rows of latest releases whose target
    did not exist at the snapshot instant. Edges are stored once, as the
    integer adjacency of :meth:`int_view`; the reverse adjacency is built on
    the first in-neighbour query.
    """

    __slots__ = ("at", "latest", "ecosystem", "dropped_deps", "n_edges", "_view", "_preds")

    def __init__(
        self,
        at: datetime,
        latest: dict[str, ReleaseRecord],
        view: IntView,
        dropped_deps: int = 0,
        ecosystem: str = "default",
    ):
        self.at = at
        self.latest = latest
        self.ecosystem = ecosystem
        self.dropped_deps = dropped_deps
        self.n_edges = sum(map(len, view.adj))
        self._view = view
        self._preds: Optional[list[tuple[int, ...]]] = None

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.latest)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        names, _, adj = self._view
        return frozenset((names[i], names[j]) for i, row in enumerate(adj) for j in row)

    @property
    def n_nodes(self) -> int:
        return len(self.latest)

    def int_view(self) -> IntView:
        return self._view

    def in_adjacency(self) -> list[tuple[int, ...]]:
        """In-neighbour ids of every node, each in id order; built on first
        use and cached."""
        # Benign data race: a second build yields an equal list, so no lock
        # is needed for concurrent readers.
        preds = self._preds
        if preds is None:
            acc: list[list[int]] = [[] for _ in self._view.adj]
            for i, row in enumerate(self._view.adj):
                for j in row:
                    acc[j].append(i)
            preds = self._preds = list(map(tuple, acc))
        return preds

    def out_neighbors(self, package: str) -> tuple[str, ...]:
        names, ids, adj = self._view
        return tuple(names[j] for j in adj[ids[package]])

    def in_neighbors(self, package: str) -> tuple[str, ...]:
        names = self._view.names
        return tuple(names[j] for j in self.in_adjacency()[self._view.ids[package]])

    def out_degree(self, package: str) -> int:
        return len(self._view.adj[self._view.ids[package]])

    def in_degree(self, package: str) -> int:
        return len(self.in_adjacency()[self._view.ids[package]])

    def in_degree_counts(self) -> dict[str, int]:
        """In-degree of every package with an in-edge, in id order."""
        names = self._view.names
        return {names[j]: n for j, n in enumerate(in_degrees(self._view.adj)) if n}

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


def check_instant(d: Dataset, t: datetime) -> None:
    """``ValueError`` when ``t`` is after the dataset cutoff."""
    if t > d.cutoff:
        raise ValueError(
            f"instant {t.isoformat()} is after the dataset cutoff {d.cutoff.isoformat()}"
        )


def latest_releases_at(d: Dataset, t: datetime) -> dict[str, ReleaseRecord]:
    """Latest release of each package at time t.

    Packages with no release at or before t are absent. Among releases
    sharing the maximal timestamp the greatest version wins.
    """
    check_instant(d, t)
    idx = d.index()
    latest: dict[str, ReleaseRecord] = {}
    for pkg, times in idx.release_times.items():
        pos = bisect_right(times, t)
        if pos:
            latest[pkg] = idx.releases_by_package[pkg][pos - 1]
    return latest


def build_snapshot(d: Dataset, t: datetime) -> SnapshotGraph:
    """Construct the dependency network at time t.

    Each latest release's targets become node ids, in declaration order:
    targets that do not exist yet are dropped and counted, self-edges and
    repeats are dropped.
    """
    latest = latest_releases_at(d, t)
    targets_by_release = d.index().targets_by_release
    names = list(latest)
    ids = {name: i for i, name in enumerate(names)}
    adj: list[tuple[int, ...]] = []
    dropped = 0
    for i, (pkg, rel) in enumerate(latest.items()):
        targets = targets_by_release.get((pkg, rel.version))
        if not targets:
            adj.append(())
            continue
        row: list[int] = []
        for q in targets:
            j = ids.get(q)
            if j is None:
                dropped += 1
            elif j != i and j not in row:
                row.append(j)
        adj.append(tuple(row))
    return SnapshotGraph(
        at=t,
        latest=latest,
        view=IntView(names, ids, adj),
        dropped_deps=dropped,
        ecosystem=d.ecosystem,
    )


def monthly_snapshots(d: Dataset, first: Month, last: Month) -> SnapshotSeries:
    """Snapshots at the first instant of every month in [first, last]."""
    return SnapshotSeries(
        snapshots=[build_snapshot(d, month_start(m)) for m in checked_months(d, first, last)]
    )

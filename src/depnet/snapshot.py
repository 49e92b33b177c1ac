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
from typing import Iterator, NamedTuple, Optional, Sequence

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
    (maximum timestamp <= at, version order breaking timestamp ties); it is
    built from the release ids the graph keeps on first access, and cached.
    ``dropped_deps`` counts dependency rows of latest releases whose target
    did not exist at the snapshot instant. Edges are stored once, as the
    integer adjacency of :meth:`int_view`; the reverse adjacency is built on
    the first in-neighbour query.
    """

    __slots__ = (
        "at", "ecosystem", "dropped_deps", "n_edges",
        "_releases", "_latest_ids", "_latest", "_view", "_preds",
    )

    def __init__(
        self,
        at: datetime,
        releases: Sequence[ReleaseRecord],
        latest_ids: Sequence[int],
        view: IntView,
        dropped_deps: int = 0,
        ecosystem: str = "default",
    ):
        """``releases[latest_ids[i]]`` is the latest release of node ``i``."""
        self.at = at
        self.ecosystem = ecosystem
        self.dropped_deps = dropped_deps
        self.n_edges = sum(map(len, view.adj))
        self._releases = releases
        self._latest_ids = latest_ids
        self._latest: Optional[dict[str, ReleaseRecord]] = None
        self._view = view
        self._preds: Optional[list[tuple[int, ...]]] = None

    @property
    def latest(self) -> dict[str, ReleaseRecord]:
        latest = self._latest
        if latest is None:
            records = map(self._releases.__getitem__, self._latest_ids)
            latest = self._latest = dict(zip(self._view.names, records))
        return latest

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._view.names)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        names, _, adj = self._view
        return frozenset((names[i], names[j]) for i, row in enumerate(adj) for j in row)

    @property
    def n_nodes(self) -> int:
        return len(self._view.names)

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


def _latest_ids(d: Dataset, t: datetime) -> tuple[list[int], list[int]]:
    """The id of the latest release at t of each package that has one, in
    position order, and the node id of every position (-1 for a package
    without release at t, and for the unreleased-target sentinel)."""
    check_instant(d, t)
    idx = d.index()
    releases, times, offsets = idx.releases, idx.times, idx.offsets
    node = [-1] * (len(idx.packages) + 1)
    latest: list[int] = []
    for k in range(len(idx.packages)):
        lo = offsets[k]
        pos = bisect_right(times, t, lo, offsets[k + 1])
        if pos > lo:
            node[k] = len(latest)
            latest.append(releases[pos - 1])
    return latest, node


def latest_releases_at(d: Dataset, t: datetime) -> dict[str, ReleaseRecord]:
    """Latest release of each package at time t.

    Packages with no release at or before t are absent. Among releases
    sharing the maximal timestamp the greatest version wins.
    """
    releases = d.releases
    return {rel.package: rel for rel in map(releases.__getitem__, _latest_ids(d, t)[0])}


def build_snapshot(d: Dataset, t: datetime) -> SnapshotGraph:
    """Construct the dependency network at time t.

    Each latest release's targets become node ids, in declaration order:
    targets that do not exist yet are dropped and counted, self-edges and
    repeats are dropped.
    """
    latest, node = _latest_ids(d, t)
    idx = d.index()
    targets, offsets = idx.targets, idx.target_offsets
    package_names, release_package = d.names, d.release_package
    names = [package_names[release_package[r]] for r in latest]
    adj: list[tuple[int, ...]] = []
    dropped = 0
    for i, r in enumerate(latest):
        lo, hi = offsets[r], offsets[r + 1]
        if lo == hi:
            adj.append(())
            continue
        row: list[int] = []
        for k in targets[lo:hi]:
            j = node[k]
            if j < 0:
                dropped += 1
            elif j != i and j not in row:
                row.append(j)
        adj.append(tuple(row))
    return SnapshotGraph(
        at=t,
        releases=d.releases,
        latest_ids=latest,
        view=IntView(names, dict(zip(names, range(len(names)))), adj),
        dropped_deps=dropped,
        ecosystem=d.ecosystem,
    )


def monthly_snapshots(d: Dataset, first: Month, last: Month) -> SnapshotSeries:
    """Snapshots at the first instant of every month in [first, last]."""
    return SnapshotSeries(
        snapshots=[build_snapshot(d, month_start(m)) for m in checked_months(d, first, last)]
    )

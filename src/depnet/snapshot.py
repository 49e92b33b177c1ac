"""Package-level dependency network construction at points in time.

A snapshot at time t contains every package with at least one release at
or before t, and a directed edge p -> q whenever the latest release of p
declares a dependency on q and q also exists at t. The graph stores those
edges once, as compressed sparse row (CSR) arrays over node ids: an offset
per node into one array of targets. Batch metrics (the closure sizes, the
in-degree counts and the indices built on them) read those arrays; the
names list, the integer adjacency rows and the reverse adjacency that the
per-package queries walk are views derived from them on first use.

The dataset index owns the timeline: each entry is its package's latest
release from its own time to the package's next entry. One table over
that timeline, built on first use and kept by the index (or read with it
from the column file that a load leaves), holds every edge
of every snapshot with the span on which it is alive, and every dropped
dependency row with the span on which it is dropped. A build is the slice
of that table at t, so it reads no dependency row and makes no Python
object per node or edge; growth, the dependency ratio and the required
split of survival read the table for many instants at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .ingest import (
    _OPEN, Coded, Dataset, RecordView, ReleaseRecord, _DatasetIndex, _EdgeSpans,
    _first_of_each_key, _micros, _run_starts,
)
from .timeutil import Month, format_month, iter_months, month_of, month_start


class IntView(NamedTuple):
    """A snapshot's edges as integer adjacency rows, derived from its CSR
    arrays on first use and cached.

    Node ``i`` is ``names[i]`` (ids follow ``latest`` order) and ``ids``
    inverts ``names``; ``adj[i]`` holds the ids of node ``i``'s
    out-neighbours in declaration order. Every caller shares the view, so
    it must not be mutated.
    """

    names: list[str]
    ids: dict[str, int]
    adj: list[tuple[int, ...]]


def edge_sources(offsets: np.ndarray) -> np.ndarray:
    """The source id of every edge of the CSR arrays with ``offsets``."""
    n = len(offsets) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))


def in_degrees(offsets: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The in-degree of every node id of the CSR arrays ``offsets`` and
    ``targets``."""
    return np.bincount(targets, minlength=len(offsets) - 1)


def _rows(flat: list[int], bounds: list[int]) -> list[tuple[int, ...]]:
    """``flat`` cut at ``bounds`` into one tuple per node."""
    return [tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


class SnapshotGraph:
    """Immutable dependency network at a single instant.

    ``latest`` maps each existing package to the release chosen for it
    (maximum timestamp <= at, version order breaking timestamp ties); it is
    built in one pass over the release ids the graph keeps, and cached.
    ``dropped_deps`` counts dependency rows of latest releases whose target
    did not exist at the snapshot instant.

    Node ``i`` is named by row i of the coded column ``names``. Edges are
    stored once, as compressed sparse row arrays, which :meth:`edge_arrays`
    returns: ``offsets``, int64 with one entry per node and one past them,
    and ``targets``, int32 node ids; node ``i``'s out-neighbours are
    ``targets[lo:hi]`` for ``lo, hi = offsets[i], offsets[i + 1]``, in
    declaration order. The names list, the adjacency rows of
    :meth:`int_view` and the reverse adjacency are derived from them on
    first use and cached, and so is the memo of :meth:`depth_memo`, which
    holds the per-package depths that queries have found.
    """

    __slots__ = (
        "at", "ecosystem", "dropped_deps", "n_edges", "_releases", "_latest_ids",
        "_names", "_offsets", "_targets", "_latest", "_name_list", "_view", "_preds",
        "_depths",
    )

    def __init__(
        self,
        at: datetime,
        releases: RecordView,
        latest_ids: Sequence[int],
        names: Coded,
        offsets: np.ndarray,
        targets: np.ndarray,
        dropped_deps: int = 0,
        ecosystem: str = "default",
    ):
        """``releases[latest_ids[i]]`` is the latest release of node ``i``."""
        self.at = at
        self.ecosystem = ecosystem
        self.dropped_deps = dropped_deps
        self.n_edges = len(targets)
        self._releases = releases
        self._latest_ids = latest_ids
        self._names = names
        self._offsets = offsets
        self._targets = targets
        self._latest: Optional[dict[str, ReleaseRecord]] = None
        self._name_list: Optional[list[str]] = None
        self._view: Optional[IntView] = None
        self._preds: Optional[list[tuple[int, ...]]] = None
        self._depths: Optional[dict[int, tuple[int, int]]] = None

    # Benign data races: a second build of a derived view yields an equal
    # one, so no lock is needed for concurrent readers.

    @property
    def latest(self) -> dict[str, ReleaseRecord]:
        latest = self._latest
        if latest is None:
            records = self._releases.take(self._latest_ids)
            latest = self._latest = dict(zip(self.names, records))
        return latest

    @property
    def names(self) -> list[str]:
        """The node names in id order; shared, so it must not be mutated."""
        names = self._name_list
        if names is None:
            names = self._name_list = self._names.decode()
        return names

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.names)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        names, _, adj = self.int_view()
        return frozenset((names[i], names[j]) for i, row in enumerate(adj) for j in row)

    @property
    def n_nodes(self) -> int:
        return len(self._offsets) - 1

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR arrays ``offsets`` and ``targets``; shared, so they must
        not be mutated."""
        return self._offsets, self._targets

    def int_view(self) -> IntView:
        """Names, ids and out-adjacency rows; built on first use and cached."""
        view = self._view
        if view is None:
            names = self.names
            adj = _rows(self._targets.tolist(), self._offsets.tolist())
            view = self._view = IntView(names, dict(zip(names, range(len(names)))), adj)
        return view

    def depth_memo(self) -> dict[int, tuple[int, int]]:
        """Node id to the ``(depth, far)`` pair that
        :func:`depnet.graphops.dependency_depth` found for it, ``far`` being
        one node at exactly that distance; created empty on first use and
        filled only by those queries. Every entry is exact, so a write lost
        between concurrent queries costs only a later hit."""
        depths = self._depths
        if depths is None:
            depths = self._depths = {}
        return depths

    def in_adjacency(self) -> list[tuple[int, ...]]:
        """In-neighbour ids of every node, each in id order; built on first
        use and cached."""
        preds = self._preds
        if preds is None:
            # A stable sort by target keeps each target's sources in id order.
            order = np.argsort(self._targets, kind="stable")
            flat = edge_sources(self._offsets)[order].tolist()
            bounds = [0, *np.cumsum(in_degrees(self._offsets, self._targets)).tolist()]
            preds = self._preds = _rows(flat, bounds)
        return preds

    def out_neighbors(self, package: str) -> tuple[str, ...]:
        names, ids, adj = self.int_view()
        return tuple(names[j] for j in adj[ids[package]])

    def in_neighbors(self, package: str) -> tuple[str, ...]:
        names, ids, _ = self.int_view()
        return tuple(names[j] for j in self.in_adjacency()[ids[package]])

    def out_degree(self, package: str) -> int:
        _, ids, adj = self.int_view()
        return len(adj[ids[package]])

    def in_degree(self, package: str) -> int:
        return len(self.in_adjacency()[self.int_view().ids[package]])

    def in_degree_counts(self) -> dict[str, int]:
        """In-degree of every package with an in-edge, in id order."""
        degree = in_degrees(self._offsets, self._targets)
        at = np.flatnonzero(degree)
        return dict(zip(self._names.decode(at), degree[at].tolist()))

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
    range is inverted (``iter_months`` reports that first) or ends after
    the dataset cutoff's month."""
    months = list(iter_months(first, last))
    if last > month_of(d.cutoff):
        raise ValueError(
            f"month {format_month(last)} is beyond the dataset cutoff "
            f"{d.cutoff.isoformat()}"
        )
    return months


def check_instant(d: Dataset, t: datetime) -> int:
    """``t`` in microseconds since the epoch; ``ValueError`` when ``t`` is
    after the dataset cutoff."""
    if t > d.cutoff:
        raise ValueError(
            f"instant {t.isoformat()} is after the dataset cutoff {d.cutoff.isoformat()}"
        )
    return int(_micros([t])[0])


def _release_counts(d: Dataset, t: datetime) -> np.ndarray:
    """The number of releases at or before t of each package, by position;
    ``ValueError`` when t is after the dataset cutoff."""
    idx = d.index()
    made = idx.entry_positions[idx.times_us <= check_instant(d, t)]
    return np.bincount(made, minlength=len(idx.packages))


def _latest_entries(idx: _DatasetIndex, at: int) -> np.ndarray:
    """The index entries whose interval holds ``at``, in microseconds since
    the epoch, in position order: each package's latest release then."""
    holds = idx.times_us <= at
    holds &= idx.end_us > at
    return np.flatnonzero(holds)


def latest_releases_at(d: Dataset, t: datetime) -> dict[str, ReleaseRecord]:
    """Latest release of each package at time t.

    Packages with no release at or before t are absent. Among releases
    sharing the maximal timestamp the greatest version wins.
    """
    idx = d.index()
    latest = idx.releases[_latest_entries(idx, check_instant(d, t))]
    return {rel.package: rel for rel in d.releases.take(latest)}


def _edge_spans(d: Dataset) -> _EdgeSpans:
    """The edge-span table of ``d``, built on first use and kept by its
    index; a dataset read from the column file has it from the file."""
    idx = d.index()
    if idx.spans is None:
        times, end_of = idx.times_us, idx.end_us
        first = np.append(times[idx.offset_array[:-1]], _OPEN)  # by target position
        drop_start = times[idx.row_entries]
        drop_end = np.minimum(end_of[idx.row_entries], first[idx.row_targets])
        dropped = drop_start < drop_end
        drop_start, drop_end = np.sort(drop_start[dropped]), np.sort(drop_end[dropped])

        entry, target = _declared_targets(idx)
        start = first[target]
        np.maximum(start, times[entry], out=start)
        end = np.maximum(end_of[entry], start)  # an empty span ends where it starts
        source = idx.entry_positions[entry].astype(np.int32)
        idx.spans = _EdgeSpans(source, target, start, end, drop_start, drop_end)
    return idx.spans


def _declared_targets(idx: _DatasetIndex) -> tuple[np.ndarray, np.ndarray]:
    """Each index entry's distinct, resolvable, non-self targets, as the
    entries and target positions of the index's dependency rows: grouped by
    entry, in declaration order.

    Dropped are the rows whose target has no release, whose target is the
    entry's own package, and those that repeat an earlier row of their
    entry; the rest keep their order.
    """
    entry, target = idx.row_entries, idx.row_targets
    keep = target != len(idx.packages)
    keep &= target != idx.entry_positions[entry]
    entry, target = entry[keep], target[keep]
    keep = _first_of_each_key(entry, target)
    return entry[keep], target[keep]


def build_snapshot(d: Dataset, t: datetime) -> SnapshotGraph:
    """Construct the dependency network at time t, as the slice at t of the
    dataset's edge-span table.

    The nodes are the packages of the index entries whose interval holds t,
    in position order; the edges are the spans alive at t, their ends
    mapped to node ids, in declaration order; ``dropped_deps`` counts the
    drop spans that hold t.
    """
    at = check_instant(d, t)
    idx, spans = d.index(), _edge_spans(d)
    latest = _latest_entries(idx, at)
    positions = idx.entry_positions[latest]
    n_nodes = len(latest)
    # The node id of every position, -1 for a package without release at t.
    node = np.full(len(idx.packages), -1, np.int32)
    node[positions] = np.arange(n_nodes, dtype=np.int32)
    alive = spans.start <= at
    alive &= spans.end > at
    offsets = np.zeros(n_nodes + 1, np.int64)
    np.cumsum(np.bincount(node[spans.source[alive]], minlength=n_nodes), out=offsets[1:])
    dropped = np.searchsorted(spans.drop_start, at, "right")
    dropped -= np.searchsorted(spans.drop_end, at, "right")
    return SnapshotGraph(
        at=t,
        releases=d.releases,
        latest_ids=idx.releases[latest],
        names=Coded(idx.packages[positions], d.names),
        offsets=offsets,
        targets=node[spans.target[alive]],
        dropped_deps=int(dropped),
        ecosystem=d.ecosystem,
    )


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in ascending order, as ``np.unique``
    returns them; ``keys`` is sorted in place. On a few hundred thousand
    int64 keys a sort and its run starts take milliseconds, where
    ``np.unique`` takes tens of them."""
    keys.sort()
    return keys[_run_starts(keys)]


def _snapshot_sizes(d: Dataset, instants: Sequence[datetime]) -> tuple[list[int], list[int]]:
    """``n_nodes`` and ``n_edges`` of ``build_snapshot(d, t)`` for each t in
    ``instants``, read from the edge-span table without building the
    snapshots: the packages first released at or before t, and the spans
    that start at or before t and end after it."""
    idx, spans = d.index(), _edge_spans(d)
    at = _micros(instants)
    nodes = np.searchsorted(np.sort(idx.times_us[idx.offset_array[:-1]]), at, "right")
    edges = np.searchsorted(np.sort(spans.start), at, "right")
    edges -= np.searchsorted(np.sort(spans.end), at, "right")
    return nodes.tolist(), edges.tolist()


def _required_at_release(d: Dataset) -> np.ndarray:
    """For each index entry, whether its package has a direct dependent at
    the entry's own time: ``build_snapshot(d, t).in_degree(q) > 0`` for a
    release of q at t."""
    # q has one iff more of q's spans start at or before t than end at or
    # before t. Every start and end is a release time, or open, so one
    # int64 key, q and the rank of the time among the release times,
    # orders each comparison exactly and keeps q's spans together.
    idx, spans = d.index(), _edge_spans(d)
    ranks = _sorted_unique(idx.times_us.copy())
    width = len(ranks) + 1
    at = idx.entry_positions * width  # int64: this passes 2**31 at 100k packages
    at += np.searchsorted(ranks, idx.times_us)

    def at_or_before(bounds: np.ndarray) -> np.ndarray:
        key = spans.target.astype(np.int64)
        key *= width
        key += np.searchsorted(ranks, bounds)
        key.sort()
        return np.searchsorted(key, at, "right")

    alive = at_or_before(spans.start)
    alive -= at_or_before(spans.end)
    return alive > 0


def monthly_snapshots(d: Dataset, first: Month, last: Month) -> SnapshotSeries:
    """Snapshots at the first instant of every month in [first, last]."""
    return SnapshotSeries(
        snapshots=[build_snapshot(d, month_start(m)) for m in checked_months(d, first, last)]
    )

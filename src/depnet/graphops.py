"""Structural queries over a snapshot graph.

Per-package queries (direct/transitive dependencies and dependents, tree
depth) run on demand, as one level-by-level BFS over the graph's integer
adjacency: forward, or on the reverse adjacency that the graph builds on
the first in-neighbour query. The batch closure used by the longitudinal
drivers computes reachable-set sizes for every node at once: nodes are condensed
into strongly connected components by one Tarjan pass, which serves both
directions, then each component's reach is merged from its successors' in
reverse topological order: a set of node ids while sparse, an int bitset
once dense (Nuutila, "Efficient transitive closure computation in large
digraphs", 1995). Its last consumer releases or takes over each reach,
keeping peak memory proportional to the frontier, not the whole closure.
Batch depths run one breadth-first search for many sources at once, one
bit per source. Both batch computations read the graph's integer
adjacency.

All results are pure values of the graph; they do not depend on traversal
order, so concurrent or parallel evaluation yields identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .snapshot import SnapshotGraph, in_degrees


@dataclass(frozen=True, slots=True)
class RoleFlags:
    dependent: bool
    required: bool

    @property
    def connected(self) -> bool:
        return self.dependent or self.required

    @property
    def top_level(self) -> bool:
        return self.dependent and not self.required


@dataclass
class Classification:
    """Per-package role flags plus ecosystem-level proportions."""

    flags: dict[str, RoleFlags]

    def _count(self, pred) -> int:
        return sum(1 for f in self.flags.values() if pred(f))

    @property
    def n_packages(self) -> int:
        return len(self.flags)

    @property
    def n_dependent(self) -> int:
        return self._count(lambda f: f.dependent)

    @property
    def n_required(self) -> int:
        return self._count(lambda f: f.required)

    @property
    def n_connected(self) -> int:
        return self._count(lambda f: f.connected)

    @property
    def n_top_level(self) -> int:
        return self._count(lambda f: f.top_level)

    def _fraction(self, count: int) -> float:
        return count / self.n_packages if self.n_packages else 0.0

    @property
    def dependent_fraction(self) -> float:
        return self._fraction(self.n_dependent)

    @property
    def required_fraction(self) -> float:
        return self._fraction(self.n_required)

    @property
    def connected_fraction(self) -> float:
        return self._fraction(self.n_connected)

    @property
    def top_level_fraction(self) -> float:
        return self._fraction(self.n_top_level)


def direct_dependencies(g: SnapshotGraph, package: str) -> set[str]:
    return set(g.out_neighbors(package))


def _bfs_levels(adj, start: int) -> list[list[int]]:
    """Breadth-first levels from ``start`` over ``adj``: level k holds the
    ids at shortest distance k + 1. ``start`` is in none, even on a cycle."""
    seen = bytearray(len(adj))
    seen[start] = 1
    levels: list[list[int]] = []
    frontier = [start]
    while True:
        nxt: list[int] = []
        for u in frontier:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    nxt.append(w)
        if not nxt:
            return levels
        levels.append(nxt)
        frontier = nxt


def transitive_dependencies(g: SnapshotGraph, package: str) -> set[str]:
    """All packages reachable from ``package``, excluding itself."""
    names, ids, adj = g.int_view()
    return {names[v] for level in _bfs_levels(adj, ids[package]) for v in level}


def transitive_dependents(g: SnapshotGraph, package: str) -> set[str]:
    """All packages that reach ``package``, excluding itself."""
    names, ids, _ = g.int_view()
    return {names[v] for level in _bfs_levels(g.in_adjacency(), ids[package]) for v in level}


def indirect_dependencies(g: SnapshotGraph, package: str) -> set[str]:
    return transitive_dependencies(g, package) - direct_dependencies(g, package)


def dependency_depth(g: SnapshotGraph, package: str) -> int:
    """Maximum BFS level over packages reachable from ``package``.

    Levels are shortest-path distances, which keeps the depth well defined
    on cyclic graphs; a package with no dependencies has depth 0.
    """
    _, ids, adj = g.int_view()
    return len(_bfs_levels(adj, ids[package]))


# Sources per multi-source BFS pass. Each node holds a seen-bitset of up to
# this many bits during a pass, so memory is O(nodes * _DEPTH_BATCH / 8).
_DEPTH_BATCH = 4096


def dependency_depths(
    g: SnapshotGraph, packages: Optional[Iterable[str]] = None
) -> dict[str, int]:
    """:func:`dependency_depth` for each of ``packages`` (default: every
    node), keyed in the order given.

    Multi-source BFS (Then et al., "The More the Merrier: Efficient
    Multi-Source Graph Traversal", PVLDB 8(4), 2014): each source owns one
    bit of an integer, and a node's frontier bitset carries every source
    that reached it at the current level, so sources sharing a subgraph
    traverse it once per level together. An unknown package raises
    ``KeyError``.
    """
    names, ids, adj = g.int_view()
    wanted = [ids[p] for p in (names if packages is None else packages)]
    # Batches are cut in id order, so their make-up (and the work) does not
    # depend on the caller's iteration order, e.g. that of a set.
    sources = sorted(set(wanted))
    depth_of = [0] * len(adj)
    for lo in range(0, len(sources), _DEPTH_BATCH):
        batch = sources[lo:lo + _DEPTH_BATCH]
        for src, depth in zip(batch, _batch_depths(adj, batch)):
            depth_of[src] = depth
    return {names[i]: depth_of[i] for i in wanted}


def _batch_depths(adj: list[list[int]], sources: list[int]) -> list[int]:
    """BFS eccentricity of each of ``sources`` (distinct ids), together."""
    seen = [0] * len(adj)
    frontier: dict[int, int] = {}
    for bit, s in enumerate(sources):
        seen[s] = frontier[s] = 1 << bit
    # reached[k] holds the sources that reach a new node at level k + 1.
    reached: list[int] = []
    while True:
        nxt: dict[int, int] = {}
        get = nxt.get
        for u, bits in frontier.items():
            for w in adj[u]:
                nxt[w] = get(w, 0) | bits
        frontier = {}
        level = 0
        for w, bits in nxt.items():
            bits &= ~seen[w]
            if bits:
                seen[w] |= bits
                frontier[w] = bits
                level |= bits
        if not frontier:
            break
        reached.append(level)
    depths = [0] * len(sources)
    for depth, bits in enumerate(reached, start=1):
        # bin() lists bits most significant first; reversed, index = bit.
        for bit, digit in enumerate(bin(bits)[:1:-1]):
            if digit == "1":
                depths[bit] = depth
    return depths


def top_level_packages(g: SnapshotGraph) -> set[str]:
    """Packages with dependencies that nothing else depends on."""
    names, _, adj = g.int_view()
    in_deg = in_degrees(adj)
    return {names[i] for i, row in enumerate(adj) if row and not in_deg[i]}


def connected_packages(g: SnapshotGraph) -> set[str]:
    """Packages with at least one edge in either direction."""
    names, _, adj = g.int_view()
    in_deg = in_degrees(adj)
    return {names[i] for i, row in enumerate(adj) if row or in_deg[i]}


def classify(g: SnapshotGraph) -> Classification:
    names, _, adj = g.int_view()
    in_deg = in_degrees(adj)
    flags = {
        names[i]: RoleFlags(dependent=bool(row), required=bool(in_deg[i]))
        for i, row in enumerate(adj)
    }
    return Classification(flags=flags)


@dataclass
class WccResult:
    """Partition of the nodes into weakly connected components.

    ``largest_connected_fraction`` is the share of connected packages that
    sit in the largest component, or None when nothing is connected.
    """

    components: list[set[str]]
    largest_connected_fraction: Optional[float]


def weakly_connected_components(g: SnapshotGraph) -> WccResult:
    names, _, adj = g.int_view()
    preds = g.in_adjacency()
    seen = bytearray(len(adj))
    components: list[set[str]] = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = 1
        members = [start]
        for u in members:  # grows while it is walked
            for w in chain(adj[u], preds[u]):
                if not seen[w]:
                    seen[w] = 1
                    members.append(w)
        components.append({names[v] for v in members})

    # Self-edges are dropped, so a package is connected exactly when its
    # component has another member.
    sizes = [len(comp) for comp in components if len(comp) > 1]
    fraction = max(sizes) / sum(sizes) if sizes else None
    return WccResult(components=components, largest_connected_fraction=fraction)


# ---------------------------------------------------------------------------
# Batch closure


def _tarjan_sccs(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components are emitted in reverse topological
    order (every component after all components it can reach)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        frames: list[list[int]] = [[root, 0]]
        while frames:
            frame = frames[-1]
            v, ei = frame
            row = adj[v]
            advanced = False
            while ei < len(row):
                w = row[ei]
                ei += 1
                if index[w] == -1:
                    frame[1] = ei
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    frames.append([w, 0])
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    members.append(w)
                    if w == v:
                        break
                sccs.append(members)
    return sccs


# A component's reach is a set of node ids while it is sparse, that is while
# len(reach) * _SPARSE_RATIO <= max(reach), and an int bitset once dense: an
# int costs its highest set bit, a set its population.
_SPARSE_RATIO = 1024


def _closure_sizes(adj: list[list[int]], reverse: bool = False) -> list[int]:
    """Size of the reachable set, excluding the start node, for every node;
    with ``reverse``, of the set of nodes that reach it."""
    n = len(adj)
    if n == 0:
        return []
    sccs = _tarjan_sccs(adj)
    if reverse:
        # Tarjan's order walked backwards is a reverse topological order of
        # the reversed graph.
        sccs.reverse()
    n_comp = len(sccs)
    comp = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(sccs):
        for v in members:
            comp[v] = ci

    # Distinct condensation edges, grouped by source component, and a use
    # count per target so its reach can be dropped (or taken over) once the
    # last predecessor merges it.
    degree = np.fromiter(map(len, adj), dtype=np.int64, count=n)
    c_src = np.repeat(comp, degree)
    c_dst = comp[np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=degree.sum())]
    if reverse:
        c_src, c_dst = c_dst, c_src
    keep = c_src != c_dst
    pairs = np.unique(c_src[keep] * n_comp + c_dst[keep])
    succ = pairs % n_comp
    flat_succ = succ.tolist()
    offsets = np.searchsorted(pairs // n_comp, np.arange(n_comp + 1)).tolist()
    pending_uses = np.bincount(succ, minlength=n_comp).tolist()

    reach: list = [None] * n_comp
    sizes = [0] * n
    for ci in range(n_comp):
        members = sccs[ci]
        dense = 0
        acc = None
        for k in range(offsets[ci], offsets[ci + 1]):
            cw = flat_succ[k]
            r = reach[cw]
            pending_uses[cw] -= 1
            if r.__class__ is int:
                dense |= r
            elif acc is not None:
                acc.update(r)
            elif pending_uses[cw]:
                acc = set(r)
            else:
                acc = r  # its last use: taken over, not copied
            if not pending_uses[cw]:
                reach[cw] = None
        if acc is None:
            acc = set(members)
        else:
            acc.update(members)
        # A union that takes in a bitset stays a bitset.
        if dense or len(acc) * _SPARSE_RATIO > max(acc):
            acc = _or_ids(dense, acc)
            count = acc.bit_count()
        else:
            count = len(acc)
        if pending_uses[ci]:
            reach[ci] = acc
        size = count - 1
        for v in members:
            sizes[v] = size
    return sizes


def _or_ids(bits: int, ids: set[int]) -> int:
    """``bits`` with the bit of every id in ``ids`` set: one by one for up
    to 16 ids, otherwise through one byte buffer."""
    if len(ids) <= 16:
        for v in ids:
            bits |= 1 << v
        return bits
    at = np.fromiter(ids, dtype=np.int64, count=len(ids))
    flags = np.zeros(int(at.max()) + 1, dtype=bool)
    flags[at] = True
    return bits | int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def transitive_dependency_counts(g: SnapshotGraph) -> dict[str, int]:
    """|transitive_dependencies(p)| for every node, in one batch pass."""
    names, _, adj = g.int_view()
    return dict(zip(names, _closure_sizes(adj)))


def transitive_dependent_counts(g: SnapshotGraph) -> dict[str, int]:
    """|transitive_dependents(p)| for every node, in one batch pass over
    the same integer view, walked against its edges."""
    names, _, adj = g.int_view()
    return dict(zip(names, _closure_sizes(adj, reverse=True)))

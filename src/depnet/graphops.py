"""Structural queries over a snapshot graph.

Per-package queries (direct/transitive dependencies and dependents, tree
depth) run on demand. The batch closure used by the longitudinal drivers
computes reachable-set sizes for every node at once: nodes are condensed
into strongly connected components, then reachability bitsets (arbitrary
precision integers, one bit per node) are merged bottom-up in reverse
topological order. Bitsets of exhausted components are released eagerly to
keep peak memory proportional to the frontier, not the whole closure.
Batch depths run one breadth-first search for many sources at once, one
bit per source. Both batch computations read the graph's cached integer
view.

All results are pure values of the graph; they do not depend on traversal
order, so concurrent or parallel evaluation yields identical numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .snapshot import SnapshotGraph


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


def _bfs_set(start: str, neighbors) -> set[str]:
    # Reachable set excluding the start node, even when start is on a cycle.
    seen: set[str] = {start}
    queue = deque(neighbors(start))
    result: set[str] = set()
    for n in queue:
        seen.add(n)
        result.add(n)
    while queue:
        node = queue.popleft()
        for nxt in neighbors(node):
            if nxt not in seen:
                seen.add(nxt)
                result.add(nxt)
                queue.append(nxt)
    result.discard(start)
    return result


def transitive_dependencies(g: SnapshotGraph, package: str) -> set[str]:
    """All packages reachable from ``package``, excluding itself."""
    if not g.has_node(package):
        raise KeyError(package)
    return _bfs_set(package, g.out_neighbors)


def transitive_dependents(g: SnapshotGraph, package: str) -> set[str]:
    """All packages that reach ``package``, excluding itself."""
    if not g.has_node(package):
        raise KeyError(package)
    return _bfs_set(package, g.in_neighbors)


def indirect_dependencies(g: SnapshotGraph, package: str) -> set[str]:
    return transitive_dependencies(g, package) - direct_dependencies(g, package)


def dependency_depth(g: SnapshotGraph, package: str) -> int:
    """Maximum BFS level over packages reachable from ``package``.

    Levels are shortest-path distances, which keeps the depth well defined
    on cyclic graphs; a package with no dependencies has depth 0.
    """
    _, ids, adj = g.int_view()
    start = ids[package]
    seen = bytearray(len(adj))
    seen[start] = 1
    frontier = [start]
    depth = 0
    while True:
        nxt: list[int] = []
        for u in frontier:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    nxt.append(w)
        if not nxt:
            return depth
        depth += 1
        frontier = nxt


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
    required = g.in_degree_counts()
    return {p for p, _ in g.out_items() if p not in required}


def connected_packages(g: SnapshotGraph) -> set[str]:
    """Packages with at least one edge in either direction."""
    connected = {p for p, _ in g.out_items()}
    connected.update(g.in_degree_counts())
    return connected


def classify(g: SnapshotGraph) -> Classification:
    dependent = {p for p, _ in g.out_items()}
    required = g.in_degree_counts()
    flags = {
        p: RoleFlags(dependent=p in dependent, required=p in required) for p in g.latest
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
    undirected: dict[str, list[str]] = {p: [] for p in g.latest}
    for src, targets in g.out_items():
        for dst in targets:
            undirected[src].append(dst)
            undirected[dst].append(src)

    components: list[set[str]] = []
    seen: set[str] = set()
    for start in g.latest:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in undirected[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    stack.append(nxt)
        components.append(comp)

    connected = connected_packages(g)
    if connected:
        largest = max(len(comp & connected) for comp in components)
        fraction = largest / len(connected)
    else:
        fraction = None
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


def _closure_sizes(adj: list[list[int]]) -> list[int]:
    """Size of the reachable set, excluding the start node, for every node."""
    n = len(adj)
    if n == 0:
        return []
    sccs = _tarjan_sccs(adj)
    n_comp = len(sccs)
    comp = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(sccs):
        for v in members:
            comp[v] = ci

    # Distinct condensation edges, grouped by source component, and a use
    # count per target so its bitset can be dropped once the last
    # predecessor has merged it.
    n_edges = sum(len(row) for row in adj)
    if n_edges:
        src = np.fromiter(
            (v for v, row in enumerate(adj) for _ in row), dtype=np.int64, count=n_edges
        )
        dst = np.fromiter((w for row in adj for w in row), dtype=np.int64, count=n_edges)
        c_src = comp[src]
        c_dst = comp[dst]
        keep = c_src != c_dst
        pairs = np.unique(c_src[keep] * n_comp + c_dst[keep])
        flat_succ = (pairs % n_comp).tolist()
        counts = np.bincount(pairs // n_comp, minlength=n_comp)
        offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
        pending_uses = np.bincount(pairs % n_comp, minlength=n_comp).tolist()
    else:
        flat_succ = []
        offsets = [0] * (n_comp + 1)
        pending_uses = [0] * n_comp

    # reach[ci] is a bitset over node ids; popcounts are tracked so chains
    # (single successor, disjoint by construction) avoid bit_count calls.
    reach: list[int] = [0] * n_comp
    popcount = [0] * n_comp
    sizes = [0] * n
    for ci in range(n_comp):
        members = sccs[ci]
        if len(members) == 1:
            acc = 1 << members[0]
            own = 1
        else:
            acc = 0
            for v in members:
                acc |= 1 << v
            own = len(members)
        lo = offsets[ci]
        hi = offsets[ci + 1]
        if lo == hi:
            count = own
        elif hi - lo == 1:
            cw = flat_succ[lo]
            acc |= reach[cw]
            count = own + popcount[cw]
            pending_uses[cw] -= 1
            if pending_uses[cw] == 0:
                reach[cw] = 0
        else:
            for k in range(lo, hi):
                cw = flat_succ[k]
                acc |= reach[cw]
                pending_uses[cw] -= 1
                if pending_uses[cw] == 0:
                    reach[cw] = 0
            count = acc.bit_count()
        reach[ci] = acc
        popcount[ci] = count
        size = count - 1
        for v in members:
            sizes[v] = size
    return sizes


def transitive_dependency_counts(g: SnapshotGraph) -> dict[str, int]:
    """|transitive_dependencies(p)| for every node, in one batch pass."""
    names, _, adj = g.int_view()
    sizes = _closure_sizes(adj)
    return dict(zip(names, sizes))


def transitive_dependent_counts(g: SnapshotGraph) -> dict[str, int]:
    """|transitive_dependents(p)| for every node, in one batch pass.

    Node ids are flipped when reversing: dependents concentrate among
    newer (higher-id) packages, and the flip maps them to low bit
    positions, keeping the reachability integers short.
    """
    names, _, adj = g.int_view()
    n = len(names)
    last = n - 1
    rev: list[list[int]] = [[] for _ in range(n)]
    for v, row in enumerate(adj):
        flipped_source = last - v
        for w in row:
            rev[last - w].append(flipped_source)
    sizes = _closure_sizes(rev)
    return {names[last - i]: size for i, size in enumerate(sizes)}

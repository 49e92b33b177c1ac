"""Structural queries over a snapshot graph.

Per-package queries (direct/transitive dependencies and dependents, tree
depth) run on demand, as one level-by-level BFS over the integer adjacency
rows that the graph derives from its CSR arrays on first use: forward, or
on the reverse adjacency, derived on the first in-neighbour query. The
role counts (top-level, connected, classification) read the CSR arrays
themselves, with one count of the targets for the in-degrees. The batch
closure used by the longitudinal drivers takes the edges as source and
target arrays and computes reachable-set sizes for every node at once:
nodes are condensed into strongly connected components by one SCC pass,
which serves both directions, then each component's reach is merged from its
successors' in reverse topological order (Nuutila, "Efficient transitive
closure computation in large digraphs", 1995). The SCC pass first peels
off, in numpy and round by round, the nodes left without in-edges or
without out-edges, each a component of its own, and runs Tarjan only on
the core that remains (Hong et al., SC 2013); on the 100k-package fixture
at 2020-01 that core is exactly the giant component, 14,204 of 100,000
nodes. The peel rounds are levels on both sides of the core, so the
merge splits every component, in both directions, by one rule. Each
direction's near side (the in-peeled nodes for dependents, the
out-peeled ones for dependencies) has its successors in earlier rounds
of that side, and its far side, taken in reverse peel order, has them on
the near side, in the core or in rounds already merged. So a peeled
node's reach is merged in numpy a round at a time, as sorted unique ids
in one flat buffer, while its bound stays under n // _SPARSE_RATIO ids
and its successors were merged the same way. The rest, the core among
them, are merged one component at a time as int bitsets, each released
by its last consumer, keeping peak memory proportional to the frontier,
not the whole closure.
The closure runs with the cyclic garbage collector paused.
Batch depths run one breadth-first search for many sources at once, one
bit per source, over the derived adjacency rows.

All results are pure values of the graph; they do not depend on traversal
order, so concurrent or parallel evaluation yields identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .ingest import _gc_paused
from .snapshot import SnapshotGraph, _sorted_unique, edge_sources, in_degrees


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


def _roles(g: SnapshotGraph) -> tuple[np.ndarray, np.ndarray]:
    """Whether each node has an out-edge, and whether it has an in-edge."""
    offsets, targets = g.edge_arrays()
    return np.diff(offsets) > 0, in_degrees(offsets, targets) > 0


def _names_where(g: SnapshotGraph, mask: np.ndarray) -> set[str]:
    names = g.names
    return set(map(names.__getitem__, np.flatnonzero(mask).tolist()))


def top_level_packages(g: SnapshotGraph) -> set[str]:
    """Packages with dependencies that nothing else depends on."""
    dependent, required = _roles(g)
    return _names_where(g, dependent & ~required)


def connected_packages(g: SnapshotGraph) -> set[str]:
    """Packages with at least one edge in either direction."""
    dependent, required = _roles(g)
    return _names_where(g, dependent | required)


def classify(g: SnapshotGraph) -> Classification:
    dependent, required = _roles(g)
    flags = map(RoleFlags, dependent.tolist(), required.tolist())
    return Classification(flags=dict(zip(g.names, flags)))


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


# A component's reach is merged in numpy, a peel round at a time, while its
# bound stays under n // _SPARSE_RATIO ids, and otherwise as an int bitset,
# which costs its highest set bit whatever its population.
_SPARSE_RATIO = 1024
# Up to this many ids are set in a bitset one by one, not through numpy.
_FEW_IDS = 16


def _edge_list(g: SnapshotGraph) -> tuple[int, np.ndarray, np.ndarray]:
    """The node count of ``g`` and the source and target of every edge,
    grouped by source in id order: the arguments of :func:`_closures`."""
    offsets, targets = g.edge_arrays()
    return len(offsets) - 1, edge_sources(offsets), targets


def _closure_sizes(
    n: int, src: np.ndarray, dst: np.ndarray, reverse: bool = False
) -> np.ndarray:
    """Size of the reachable set, excluding the start node, for every node
    of the graph on ids 0..n-1 with edges ``src`` -> ``dst``, as an int64
    array; with ``reverse``, of the set of nodes that reach it."""
    return _closures(n, src, dst, (reverse,))[0]


def _trimmed_sccs(
    n: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, int, list[int], list[int]]:
    """The strongly connected components of the graph on ids 0..n-1 with
    edges ``src`` -> ``dst``, those :func:`_tarjan_sccs` finds, as an int64
    component label per node that numbers them in a reverse topological
    order; the number of components; and the bounds of the peel rounds.

    Trimming first (Hong et al., "On Fast Parallel Detection of Strongly
    Connected Components (SCC) in Small-World Graphs", SC 2013): round by
    round, the nodes left without out-edges or without in-edges are peeled
    off as components of their own, and Tarjan runs on the core that
    remains. Out-peeled nodes come first, in peel order; then the core's
    components, in Tarjan's order; then the in-peeled nodes, in reverse
    peel order. A node that has neither kind of edge left is out-peeled.
    Every out-edge of an out-peeled node leads to one out-peeled in an
    earlier round, and every in-edge of an in-peeled node comes from one
    in-peeled in an earlier round, so the order is reverse topological.
    With the bounds ``out`` and ``in_`` returned, round r out-peeled the
    labels ``out[r]:out[r + 1]`` and in-peeled the labels that
    ``last - label`` puts in ``in_[r]:in_[r + 1]``, for ``last`` the
    highest label; either may be empty.
    """
    alive = np.ones(n, dtype=bool)
    comp = np.empty(n, dtype=np.int64)
    out_bounds, in_bounds = [0], [0]
    while True:
        sink = alive & (np.bincount(src, minlength=n) == 0)
        source = alive & (np.bincount(dst, minlength=n) == 0)
        source &= ~sink
        if not (sink.any() or source.any()):
            break
        sinks, sources = np.flatnonzero(sink), np.flatnonzero(source)
        comp[sinks] = np.arange(out_bounds[-1], out_bounds[-1] + len(sinks))
        # In-peeled nodes count down from -1 until the number of components
        # is known.
        comp[sources] = -1 - np.arange(in_bounds[-1], in_bounds[-1] + len(sources))
        out_bounds.append(out_bounds[-1] + len(sinks))
        in_bounds.append(in_bounds[-1] + len(sources))
        alive &= ~sink
        alive &= ~source
        live = alive[src]
        live &= alive[dst]
        src, dst = src[live], dst[live]

    # Tarjan on the core, renumbered 0..k-1; its edges are still grouped by
    # source in id order.
    core = np.flatnonzero(alive)
    label = np.cumsum(alive) - 1
    flat = label[dst].tolist()
    bounds = [0, *np.cumsum(np.bincount(label[src], minlength=len(core))).tolist()]
    del label, src, dst
    core_sccs = _tarjan_sccs([flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    del flat, bounds
    members = np.fromiter(chain.from_iterable(core_sccs), np.int64, len(core))
    sizes = np.fromiter(map(len, core_sccs), np.int64, len(core_sccs))
    comp[core[members]] = out_bounds[-1] + np.repeat(np.arange(len(core_sccs)), sizes)
    n_comp = out_bounds[-1] + len(core_sccs) + in_bounds[-1]
    comp[comp < 0] += n_comp
    return comp, n_comp, out_bounds, in_bounds


@_gc_paused()
def _closures(
    n: int, src: np.ndarray, dst: np.ndarray, directions: tuple[bool, ...]
) -> list[np.ndarray]:
    """:func:`_closure_sizes` for each direction in ``directions``, from
    one SCC pass and one set of condensation edges. The edges are grouped
    by source in id order."""
    comp, n_comp, out_rounds, in_rounds = _trimmed_sccs(n, src, dst)

    # The condensation's edges, once; each direction keys them as source *
    # n_comp + target in its own numbering and drops repeats.
    c_src, c_dst = comp[src], comp[dst]
    del src, dst
    keep = c_src != c_dst
    c_src, c_dst = c_src[keep], c_dst[keep]
    del keep

    last = n_comp - 1
    sizes = []
    for reverse in directions:
        if reverse:
            # Tarjan's order walked backwards is a reverse topological order
            # of the reversed graph; components are renumbered to match, and
            # the in-peeled nodes come first.
            keys = (last - c_dst) * n_comp + (last - c_src)
            labels, near, far = last - comp, in_rounds, out_rounds
        else:
            keys = c_src * n_comp + c_dst
            labels, near, far = comp, out_rounds, in_rounds
        far = [n_comp - b for b in reversed(far)]
        sizes.append(_merged_reach_sizes(labels, n_comp, _sorted_unique(keys), near, far))
    return sizes


def _merged_reach_sizes(
    comp: np.ndarray, n_comp: int, pairs: np.ndarray, near: list[int], far: list[int]
) -> np.ndarray:
    """The closure size of every node, with ``comp`` its component label
    in a reverse topological order and ``pairs`` the components' distinct
    edges, source * n_comp + target, sorted.

    ``near`` and ``far`` bound the peel rounds on each side of the core,
    in label order, and :func:`_peeled_reaches` merges most of them in
    numpy a round at a time. The rest, the core among them, are merged one
    at a time, in order, as int bitsets: from their successors' bitsets
    and one list of ids gathered in numpy, the reaches of their successors
    merged there and their own members. A use count per target lets its
    bitset be dropped once the last predecessor has merged it."""
    src, succ = np.divmod(pairs, n_comp)
    looped, start, count, buf = _peeled_reaches(comp, n_comp, src, succ, near, far)

    # The ids from numpy, grouped by looped component in order: a
    # component's own members come last, and end its group.
    loop = np.flatnonzero(looped)
    into = looped[src] & ~looped[succ]
    owner = np.concatenate((src[into], loop))
    at = np.concatenate((succ[into], loop))
    grouped = np.argsort(owner, kind="stable")
    at = at[grouped]
    ids = _gathered(buf, start, count, at)
    bounds = [0, *np.cumsum(count[at])[at == owner[grouped]].tolist()]
    del buf, start, into, owner, grouped, at

    inner = looped[succ]
    src, succ = src[inner], succ[inner]
    flat_succ = succ.tolist()
    offsets = np.searchsorted(src, np.arange(n_comp + 1)).tolist()
    pending_uses = np.bincount(succ, minlength=n_comp).tolist()
    del src, succ, inner, looped

    reach: list = [None] * n_comp
    counts = []
    for ci, lo, hi in zip(loop.tolist(), bounds, bounds[1:]):
        bits = 0
        for cw in flat_succ[offsets[ci]:offsets[ci + 1]]:
            bits |= reach[cw]
            pending_uses[cw] -= 1
            if not pending_uses[cw]:
                reach[cw] = None
        bits = _or_ids(bits, ids[lo:hi])
        counts.append(bits.bit_count())
        if pending_uses[ci]:
            reach[ci] = bits
    count[loop] = counts
    return (count - 1)[comp]


def _peeled_reaches(
    comp: np.ndarray, n_comp: int, src: np.ndarray, succ: np.ndarray,
    near: list[int], far: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The reaches of the peeled components, merged in numpy a peel round
    at a time, for the components and the edges ``src`` -> ``succ`` of
    :func:`_merged_reach_sizes`.

    The rounds ``near`` come first, and every successor of theirs lies in
    an earlier one. Every successor of a round of ``far`` lies on the near
    side, in the core or in an earlier round of ``far``: an in-peeled
    node's out-neighbours are out-peeled, in the core or in-peeled in a
    later round, and an out-peeled node's in-neighbours are in-peeled, in
    the core or out-peeled in a later round. A round gathers its
    successors' reaches, adds each component's own id and drops repeats
    from the sorted keys component * n + id. A component is left to the
    loop instead, marked in the first array returned, when it is in the
    core, when its bound on the union, 1 + the summed sizes of its
    successors' reaches, passes n // _SPARSE_RATIO, or when one of its
    successors was left to the loop. With ``start``, ``count`` and ``buf``
    returned after it, ``buf[start[c]:start[c] + count[c]]`` holds the
    sorted reach of every other component c, itself included, and the
    members of a looped one."""
    n = len(comp)
    limit = n // _SPARSE_RATIO
    looped = np.zeros(n_comp, dtype=bool)
    looped[near[-1]:far[0]] = True
    count = np.bincount(comp, minlength=n_comp)
    start = np.cumsum(count) - count
    buf = np.argsort(comp, kind="stable")
    used = n
    rounds = [*zip(near, near[1:]), *zip(far, far[1:])]
    edge_bounds = np.searchsorted(src, rounds).tolist()
    for (lo, hi), (e_lo, e_hi) in zip(rounds, edge_bounds):
        s, t = src[e_lo:e_hi], succ[e_lo:e_hi]
        # Counts and bounds are exact in float64 below 2**53.
        off = np.bincount(s - lo, weights=count[t], minlength=hi - lo) >= limit
        off[s[looped[t]] - lo] = True
        looped[lo:hi] = off
        kept = ~off[s - lo]
        own = np.flatnonzero(~off) + lo
        at = np.concatenate((t[kept], own))
        keys = _sorted_unique(
            np.repeat(np.concatenate((s[kept], own)) * n, count[at])
            + _gathered(buf, start, count, at)
        )
        owner = keys // n
        sizes = np.bincount(owner - lo, minlength=hi - lo)[~off]
        count[own] = sizes
        start[own] = np.cumsum(sizes) - sizes + used
        if used + len(keys) > len(buf):
            buf = np.concatenate((buf[:used], np.empty(max(used, len(keys)), np.int64)))
        buf[used:used + len(keys)] = keys - owner * n
        used += len(keys)
    return looped, start, count, buf


def _gathered(
    buf: np.ndarray, start: np.ndarray, count: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """The slices of ``buf`` of the components ``at``, one after another:
    their reaches, or a looped one's members, as :func:`_peeled_reaches`
    returns them."""
    lengths = count[at]
    ends = np.cumsum(lengths)
    first = np.repeat(start[at] - ends + lengths, lengths)
    first += np.arange(len(first))
    return buf[first]


def _or_ids(bits: int, at: np.ndarray) -> int:
    """``bits`` with the bit of every id in ``at`` set: one by one for up
    to _FEW_IDS ids, otherwise through one byte buffer."""
    if len(at) <= _FEW_IDS:
        for v in at.tolist():
            bits |= 1 << v
        return bits
    flags = np.zeros(int(at.max()) + 1, dtype=bool)
    flags[at] = True
    return bits | int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def transitive_dependency_counts(g: SnapshotGraph) -> dict[str, int]:
    """|transitive_dependencies(p)| for every node, in one batch pass."""
    return dict(zip(g.names, _closure_sizes(*_edge_list(g)).tolist()))


def transitive_dependent_counts(g: SnapshotGraph) -> dict[str, int]:
    """|transitive_dependents(p)| for every node, in one batch pass over
    the same edges, walked against them."""
    return dict(zip(g.names, _closure_sizes(*_edge_list(g), reverse=True).tolist()))

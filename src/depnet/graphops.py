"""Structural queries over a snapshot graph.

Per-package queries (direct/transitive dependencies and dependents, tree
depth) run on demand, as one level-by-level BFS over the integer adjacency
rows that the graph derives from its CSR arrays on first use: forward, or
on the reverse adjacency, derived on the first in-neighbour query. A depth
query keeps its answer on the graph, and a later query may stop its BFS
at a level that is one node already answered. The role counts
(top-level, connected, classification) read the CSR arrays themselves,
with one count of the targets for the in-degrees. The batch
closure used by the longitudinal drivers takes the edges as source and
target arrays and computes reachable-set sizes for every node at once:
nodes are condensed into strongly connected components by one SCC pass,
which serves both directions, then each component's reach is merged from its
successors' in reverse topological order (Nuutila, "Efficient transitive
closure computation in large digraphs", 1995). The SCC pass first peels
off, in numpy and round by round, the nodes left without in-edges or
without out-edges, each a component of its own (Hong et al., SC 2013). A
forward and a backward search from one node of the core that remains,
each level gathered in numpy, confirm a core that is one component, and
only a core they do not confirm goes to Tarjan; on the 100k-package
fixture at 2020-01 the core is exactly the giant component, 14,204 of
100,000 nodes. The peel rounds are levels on both sides of the core, so
the merge splits every component, in both directions, by one rule. Each
direction's near side (the in-peeled nodes for dependents, the
out-peeled ones for dependencies) has its successors in earlier rounds
of that side, and its far side, taken in reverse peel order, has them on
the near side, in the core or in rounds already merged. The merge takes
four steps: the near rounds in numpy, a round at a time, as sorted unique
ids in one flat buffer, for every node whose bound stays under
n // _SPARSE_RATIO ids and whose successors were merged the same way;
the core and the near nodes left over, one component at a time as int
bitsets; the far rounds in numpy; and the far nodes left over. The giant
component G, the core's largest, is merged in the first loop, so the far
side knows its closure cl(G): a far node with G, or such a node, as a
successor keeps only its reach outside cl(G) and adds |cl(G)| to its
size, which leaves the loop almost nothing in either direction. Every
bitset but G's is released by its last consumer, keeping peak memory
proportional to the frontier, not the whole closure.
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

from .snapshot import SnapshotGraph, _rows, _sorted_unique, edge_sources, in_degrees


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

    Each answer is kept in the graph's :meth:`SnapshotGraph.depth_memo`,
    together with one node ``far`` at that distance. When a level L >= 1
    of the BFS is a single node x already answered as ``(e, f)``, every
    node first met after level L is at distance L + d(x, w), so the depth
    is L + e if ``f`` is not yet seen (the funnel rule); otherwise the BFS
    goes on. A sink is its own ``far``, so behind a sink the BFS ends at
    the next level with depth L. The BFS is :func:`_bfs_levels` inline,
    so that each level is checked as it is made.
    """
    _, ids, adj = g.int_view()
    memo = g.depth_memo()
    start = ids[package]
    known = memo.get(start)
    if known is not None:
        return known[0]
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
            known = (depth, frontier[0])
            break
        depth += 1
        frontier = nxt
        if len(nxt) == 1:
            hit = memo.get(nxt[0])
            if hit is not None and not seen[hit[1]]:
                known = (depth + hit[0], hit[1])
                break
    memo[start] = known
    return known[0]


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
    off as components of their own, and :func:`_core_sccs` splits the core
    that remains. Out-peeled nodes come first, in peel order; then the
    core's components, in Tarjan's order; then the in-peeled nodes, in
    reverse peel order. A node that has neither kind of edge left is
    out-peeled. Every out-edge of an out-peeled node leads to one
    out-peeled in an earlier round, and every in-edge of an in-peeled node
    comes from one in-peeled in an earlier round, so the order is reverse
    topological. With the bounds ``out`` and ``in_`` returned, round r
    out-peeled the labels ``out[r]:out[r + 1]`` and in-peeled the labels
    that ``last - label`` puts in ``in_[r]:in_[r + 1]``, for ``last`` the
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

    # The core, renumbered 0..k-1; its edges are still grouped by source in
    # id order.
    core = np.flatnonzero(alive)
    label = np.cumsum(alive) - 1
    core_sccs = _core_sccs(len(core), label[src], label[dst])
    del label, src, dst
    members = np.fromiter(chain.from_iterable(core_sccs), np.int64, len(core))
    sizes = np.fromiter(map(len, core_sccs), np.int64, len(core_sccs))
    comp[core[members]] = out_bounds[-1] + np.repeat(np.arange(len(core_sccs)), sizes)
    n_comp = out_bounds[-1] + len(core_sccs) + in_bounds[-1]
    comp[comp < 0] += n_comp
    return comp, n_comp, out_bounds, in_bounds


# A search that confirms a one-component core gives up after this many
# levels, each a few numpy calls, and leaves the core to Tarjan, which is
# linear whatever the core's diameter.
_SEARCH_LEVELS = 256


def _core_sccs(k: int, src: np.ndarray, dst: np.ndarray) -> list[list[int]]:
    """The strongly connected components of the graph on ids 0..k-1 with
    edges ``src`` -> ``dst``, grouped by source, in the order of
    :func:`_tarjan_sccs`. A trimmed core is often one component: when a
    search from node 0 reaches every node, forwards and then backwards, it
    is, and Tarjan does not run (the forward-backward step of Hong et al.)."""
    if k and _reaches_all(k, src, dst):
        order = np.argsort(dst)
        if _reaches_all(k, dst[order], src[order]):
            return [list(range(k))]
    bounds = [0, *np.cumsum(np.bincount(src, minlength=k)).tolist()]
    return _tarjan_sccs(_rows(dst.tolist(), bounds))


def _reaches_all(k: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether a breadth-first search from node 0 along the edges ``src``
    -> ``dst``, grouped by source, reaches all of 0..k-1 within
    _SEARCH_LEVELS levels; each level is gathered in numpy."""
    count = np.bincount(src, minlength=k)
    start = np.cumsum(count) - count
    seen = np.zeros(k, dtype=bool)
    seen[0] = True
    slot = np.empty(k, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    for _ in range(_SEARCH_LEVELS):
        reached = _gathered(dst, start, count, frontier)
        reached = reached[~seen[reached]]
        if not len(reached):
            return bool(seen.all())
        # Whichever write to a node's slot lands, exactly one of the node's
        # entries matches it, so the frontier holds each node once.
        at = np.arange(len(reached))
        slot[reached] = at
        frontier = reached[slot[reached] == at]
        seen[frontier] = True
    return False


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
    in label order. Every successor of a near round lies in an earlier
    one; every successor of a far round lies on the near side, in the core
    or in an earlier far round: an in-peeled node's out-neighbours are
    out-peeled, in the core or in-peeled in a later round, and an
    out-peeled node's in-neighbours are in-peeled, in the core or
    out-peeled in a later round. So the merge runs in four steps, each on
    reaches already merged: the near rounds in numpy, the core and the
    near components left to the loop, the far rounds in numpy, and the far
    components left to the loop (:class:`_Reaches`).

    G, the core's largest component, is merged in the first loop, so its
    closure cl(G), G and all it reaches, is known for the far side. There
    most components that reach G reach little else (the bow-tie of Broder
    et al., "Graph structure in the Web", 2000). A far component is via
    when one of its successors is G or via: it drops its successors inside
    cl(G), whose reaches lie in cl(G), keeps only the ids outside cl(G),
    and counts |cl(G)| on top of them. Which component is G changes the
    work, never a size."""
    reaches = _Reaches(comp, n_comp, *np.divmod(pairs, n_comp))
    reaches.looped[near[-1]:far[0]] = True
    reaches.rounds(near)
    core = reaches.count[near[-1]:far[0]]
    if len(core):
        reaches.hold(near[-1] + int(np.argmax(core)))
    reaches.loop(0, far[0])
    reaches.factor()
    reaches.rounds(far)
    reaches.loop(far[0], n_comp)
    return reaches.sizes()[comp]


class _Reaches:
    """The reaches of the components of :func:`_merged_reach_sizes`, from
    their distinct edges ``src`` -> ``succ``, sorted by source.

    A component merged in numpy holds its sorted reach, itself included,
    in ``buf[start[c]:start[c] + count[c]]``; a via one, only the part of
    it outside cl(G). A component left to the loop (``looped``) holds its
    members there until the loop merges it, sets ``count[c]`` to the size
    of its reach and keeps the reach as an int bitset in ``bits[c]`` while
    ``uses[c]``, its consumers still to merge, is above 0. An int costs
    its highest set bit whatever its population, so the loop only takes
    what numpy cannot merge in a few ids. Once G (``giant``) is merged,
    ``in_cl`` and ``cl_comp`` mark cl(G) by node and by component, ``via``
    marks G and the via components, and ``kept`` the edges not dropped."""

    def __init__(self, comp: np.ndarray, n_comp: int, src: np.ndarray, succ: np.ndarray):
        self.n, self.src, self.succ = len(comp), src, succ
        self.comp = comp
        self.count = np.bincount(comp, minlength=n_comp)
        self.start = np.cumsum(self.count) - self.count
        self.buf = np.argsort(comp)  # members grouped by component, in any order
        self.used = self.n
        self.looped = np.zeros(n_comp, dtype=bool)
        self.bits: list = [None] * n_comp
        # Every edge into a looped component is a use by a looped consumer,
        # or one that a via consumer drops, which gives it back.
        self.uses = np.bincount(succ, minlength=n_comp).tolist()
        self.kept = np.ones(len(src), dtype=bool)
        self.via = np.zeros(n_comp, dtype=bool)
        self.giant = -1
        self.in_cl = self.cl_comp = None

    def hold(self, giant: int) -> None:
        """Make ``giant`` G, whose bitset is kept to the end."""
        self.giant = giant
        self.uses[giant] += 1

    def factor(self) -> None:
        """Mark cl(G), from G's bitset, by node and by component, if there
        is a G."""
        if self.giant < 0:
            return
        bits, n = self.bits[self.giant], self.n
        flags = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), np.uint8)
        self.in_cl = np.unpackbits(flags, count=n, bitorder="little").view(bool)
        self.cl_comp = np.zeros(len(self.via), dtype=bool)
        self.cl_comp[self.comp[self.in_cl]] = True
        self.via[self.giant] = True

    def rounds(self, bounds: list[int]) -> None:
        """Merge the components of the peel rounds ``bounds`` in numpy, a
        round at a time: gather the successors' reaches, add each
        component's own members and drop repeats from the sorted keys
        component * n + id. A component is left to the loop instead when
        its bound on the union, 1 + the summed sizes of its successors'
        reaches, passes n // _SPARSE_RATIO, or when one of its successors
        was left to the loop. Once cl(G) is marked, a via component drops
        its successors inside cl(G) first, and its ids inside cl(G) after
        the gather."""
        n, src, succ, count, looped = self.n, self.src, self.succ, self.count, self.looped
        limit = n // _SPARSE_RATIO
        rounds = list(zip(bounds, bounds[1:]))
        for (lo, hi), (e_lo, e_hi) in zip(rounds, np.searchsorted(src, rounds).tolist()):
            s, t = src[e_lo:e_hi], succ[e_lo:e_hi]
            if self.in_cl is not None:
                self.via[s[self.via[t]]] = True
                inside = self.via[s] & self.cl_comp[t]
                self.kept[e_lo:e_hi] = ~inside
                s, t = s[~inside], t[~inside]
            # Counts and bounds are exact in float64 below 2**53.
            off = np.bincount(s - lo, weights=count[t], minlength=hi - lo) >= limit
            off[s[looped[t]] - lo] = True
            looped[lo:hi] = off
            merged = ~off[s - lo]
            own = np.flatnonzero(~off) + lo
            at = np.concatenate((t[merged], own))
            owner = np.repeat(np.concatenate((s[merged], own)), count[at])
            ids = _gathered(self.buf, self.start, count, at)
            if self.in_cl is not None:
                outside = ~(self.via[owner] & self.in_cl[ids])
                owner, ids = owner[outside], ids[outside]
            keys = _sorted_unique(owner * n + ids)
            owner = keys // n
            sizes = np.bincount(owner - lo, minlength=hi - lo)[~off]
            count[own] = sizes
            self.start[own] = np.cumsum(sizes) - sizes + self.used
            if self.used + len(keys) > len(self.buf):
                grown = np.empty(max(self.used, len(keys)), np.int64)
                self.buf = np.concatenate((self.buf[:self.used], grown))
            self.buf[self.used:self.used + len(keys)] = keys - owner * n
            self.used += len(keys)

    def loop(self, lo: int, hi: int) -> None:
        """Merge the looped components with labels lo..hi-1 one at a time,
        in order, as int bitsets: each ORs its looped successors' bitsets,
        one list of ids gathered in numpy (the reaches of its other
        successors and its own members, repeats included) and, when it is
        via, G's bitset. A bitset is dropped once its last consumer has
        merged it."""
        e_lo, e_hi = np.searchsorted(self.src, (lo, hi)).tolist()
        src, succ, kept = self.src[e_lo:e_hi], self.succ[e_lo:e_hi], self.kept[e_lo:e_hi]
        looped, uses, reach = self.looped, self.uses, self.bits
        # Via components give back the uses of the edges they dropped.
        dropped, times = np.unique(succ[~kept & looped[succ]], return_counts=True)
        for cw, k in zip(dropped.tolist(), times.tolist()):
            uses[cw] -= k
            if not uses[cw]:
                reach[cw] = None
        kept = kept & looped[src]
        src, succ = src[kept], succ[kept]
        del dropped, times, kept

        # The ids from numpy, grouped by looped component in order: a
        # component's own members come last, and end its group.
        loop = np.flatnonzero(looped[lo:hi]) + lo
        into = ~looped[succ]
        owner = np.concatenate((src[into], loop))
        at = np.concatenate((succ[into], loop))
        grouped = np.argsort(owner, kind="stable")
        at = at[grouped]
        ids = _gathered(self.buf, self.start, self.count, at)
        bounds = [0, *np.cumsum(self.count[at])[at == owner[grouped]].tolist()]
        src, succ = src[~into], succ[~into]
        del into, owner, at, grouped
        flat_succ = succ.tolist()
        firsts = np.searchsorted(src, loop).tolist()
        ends = np.searchsorted(src, loop + 1).tolist()
        del src, succ
        giant = reach[self.giant] if self.giant >= 0 else None
        counts = []
        rows = zip(loop.tolist(), self.via[loop].tolist(), firsts, ends, bounds, bounds[1:])
        for ci, via, first, end, a, b in rows:
            bits = giant if via else 0
            for cw in flat_succ[first:end]:
                bits |= reach[cw]
                uses[cw] -= 1
                if not uses[cw]:
                    reach[cw] = None
            bits = _or_ids(bits, ids[a:b])
            counts.append(bits.bit_count())
            if uses[ci]:
                reach[ci] = bits
        self.count[loop] = counts

    def sizes(self) -> np.ndarray:
        """The closure size of every component, itself excluded."""
        sizes = self.count - 1
        if self.giant >= 0:
            sizes += self.count[self.giant] * (self.via & ~self.looped)
        return sizes


def _gathered(
    buf: np.ndarray, start: np.ndarray, count: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """The slices ``buf[start[c]:start[c] + count[c]]`` of the c in ``at``,
    one after another: their reaches, or a looped one's members, in
    :class:`_Reaches`, and their out-neighbours in :func:`_reaches_all`."""
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

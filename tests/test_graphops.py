from __future__ import annotations

import random
import sys
import threading
import time
from collections import deque
from datetime import datetime
from itertools import chain

import numpy as np
import pytest

from depnet import graphops
from depnet.fixtures import generate
from depnet.graphops import (
    classify,
    connected_packages,
    dependency_depth,
    dependency_depths,
    direct_dependencies,
    indirect_dependencies,
    top_level_packages,
    transitive_dependencies,
    transitive_dependency_counts,
    transitive_dependent_counts,
    transitive_dependents,
    weakly_connected_components,
)
from depnet.snapshot import build_snapshot

from conftest import PERF_CFG, make_graph, random_graph, skip_unless_perf_selected

TINY_CUTOFF = datetime(2020, 4, 1)


@pytest.fixture(scope="module")
def tiny_graph(tiny):
    return build_snapshot(tiny, TINY_CUTOFF)


# ---------------------------------------------------------------------------
# Oracles


def closure_matrix(nodes, edges):
    """Boolean-matrix transitive closure (paths of length >= 1)."""
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    adj = np.zeros((n, n), dtype=bool)
    for s, t in edges:
        if s != t:
            adj[idx[s], idx[t]] = True
    reach = adj.copy()
    while True:
        nxt = reach | (reach @ adj)
        if (nxt == reach).all():
            break
        reach = nxt
    return idx, reach


def bfs_eccentricity(g, start):
    """Largest shortest-path distance from ``start``, by plain BFS."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in g.out_neighbors(node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return max(dist.values())


QUERY_ORDERS = ("ids", "reversed", "shuffled", "repeats")


def query_order(order: str, nodes: list[str], rng: random.Random) -> list[str]:
    """``nodes`` in id order, reversed, shuffled with ``rng``, or as many
    picks with ``rng`` as there are nodes followed by every node."""
    if order == "ids":
        return list(nodes)
    if order == "reversed":
        return nodes[::-1]
    if order == "shuffled":
        return rng.sample(nodes, len(nodes))
    return [rng.choice(nodes) for _ in nodes] + list(nodes)


def assert_depths_in_order(g, order: list[str], want: dict[str, int]) -> None:
    """``dependency_depth`` on ``g`` for each of ``order`` in turn, against
    ``want``."""
    assert [(p, dependency_depth(g, p)) for p in order] == [(p, want[p]) for p in order]


def _funnel_cases() -> dict[str, tuple[list[str], list[tuple[str, str]]]]:
    """Named graphs on which a depth query meets a level of one node."""
    cycle = [f"c{i}" for i in range(8)]
    tail_in = [f"t{i}" for i in range(4)]
    tail_out = [f"u{i}" for i in range(3)]
    dependents = [f"d{i:02d}" for i in range(40)]
    return {
        "2-cycle": (["a", "b"], [("a", "b"), ("b", "a")]),
        # A path into the cycle at c0, and one out of it at c5.
        "long cycle with tails": (
            tail_in + cycle + tail_out,
            [*zip(cycle, cycle[1:] + cycle[:1]), *zip(tail_in, tail_in[1:] + ["c0"]),
             *zip(["c5"] + tail_out, tail_out)],
        ),
        # Every dependent needs the hub, which needs a short chain; every
        # fifth one also needs the chain's sink directly.
        "hub with many dependents": (
            ["hub", "x", "y", *dependents],
            [("hub", "x"), ("x", "y"), *((d, "hub") for d in dependents),
             *((d, "y") for d in dependents[::5])],
        ),
        # The sink s is the single node at level 1 of p and at level 2 of q.
        "sink as the single frontier node": (
            ["q", "p", "s", "r"], [("q", "p"), ("p", "s"), ("r", "p"), ("r", "s")],
        ),
    }


FUNNEL_CASES = _funnel_cases()


def bfs_closure_sizes(adj):
    """Reachable-set size, excluding the start node, of every node of an
    integer adjacency, by one plain search per node."""
    sizes = []
    for start in range(len(adj)):
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        sizes.append(len(seen) - 1)
    return sizes


def edge_list(adj):
    """The node count of integer adjacency rows and the source and target
    of every edge, grouped by source in id order, each row in adjacency
    order: the arguments of the batch closure."""
    src = [v for v, row in enumerate(adj) for _ in row]
    dst = [w for row in adj for w in row]
    return len(adj), np.array(src, np.int64), np.array(dst, np.int32)


def reversed_adjacency(adj):
    rev = [[] for _ in adj]
    for v, row in enumerate(adj):
        for w in row:
            rev[w].append(v)
    return rev


def shaped_adjacency(shape, n=2500, seed=0):
    """Integer adjacency of a few thousand nodes in one of the shapes the
    closure must handle: a chain, a ladder (i depends on i-1 and i-2), or a
    random DAG with zero, one or two giant strongly connected components.
    Random graphs get shuffled ids, so id order is not topological."""
    if shape == "chain":
        return [[i - 1] if i else [] for i in range(n)]
    if shape == "ladder":
        return [[w for w in (i - 1, i - 2) if w >= 0] for i in range(n)]
    rng = random.Random(seed)
    edges = {(i, rng.randrange(i)) for i in range(1, n) for _ in range(rng.randint(1, 3))}
    blocks = {"dag": [], "one_giant": [(800, 1400)], "two_giants": [(300, 700), (1500, 1900)]}
    for lo, hi in blocks[shape]:
        edges.update((i, i - 1) for i in range(lo + 1, hi))
        edges.add((lo, hi - 1))
    label = list(range(n))
    rng.shuffle(label)
    adj = [[] for _ in range(n)]
    for v, w in sorted(edges):
        adj[label[v]].append(label[w])
    return adj


def cycle(lo, hi):
    """The edges of a cycle through the nodes lo..hi-1."""
    return [(v, v + 1 if v + 1 < hi else lo) for v in range(lo, hi)]


def with_periphery(n, edges, into, outof, rng, k=40):
    """Integer adjacency of ``edges`` on nodes 0..n-1, with k sink-side
    nodes that nodes of ``outof`` point to, each also pointing to up to two
    earlier sink-side ones, and then k source-side nodes, each pointing to
    two of ``into``, the sink-side nodes and the earlier source-side ones.
    Neither adds a cycle, so both are peeled."""
    edges = list(edges)
    sinks = []
    for x in range(n, n + k):
        edges.append((rng.choice(outof), x))
        edges += [(x, w) for w in rng.sample(sinks, min(len(sinks), rng.randint(0, 2)))]
        sinks.append(x)
    for x in range(n + k, n + 2 * k):
        edges += [(x, w) for w in rng.sample([*into, *sinks, *range(n + k, x)], 2)]
    adj = [[] for _ in range(n + 2 * k)]
    for v, w in sorted(set(edges)):
        adj[v].append(w)
    return adj


def giant_cases():
    """Graphs around a largest strongly connected component G, by what
    they test, each with peeled nodes on both sides of its core."""
    rng = random.Random(25)
    return [
        # A (0-29) reaches B (30-49).
        ("two large SCCs",
         with_periphery(50, [*cycle(0, 30), *cycle(30, 50), (5, 35)], range(50), range(50), rng)),
        # H (30-39) reaches G (0-29), and only H reaches the sink side.
        ("G reaches nothing",
         with_periphery(40, [*cycle(0, 30), *cycle(30, 40), (31, 3)],
                        range(40), range(30, 40), rng)),
        # G reaches H, and the source side points only into H.
        ("nothing reaches G",
         with_periphery(40, [*cycle(0, 30), *cycle(30, 40), (3, 31)],
                        range(30, 40), range(40), rng)),
        # B (30-34) reaches the whole sink side; G reaches nothing.
        ("largest SCC, not the largest closure",
         with_periphery(35, [*cycle(0, 30), *cycle(30, 35)], range(35), range(30, 35), rng)),
        # B (30-39) reaches G, G reaches C (40-44), D (45-49) is apart; 50
        # reaches G and D, 51 reaches G, and 52 reaches 51 and D.
        ("core of several SCCs",
         with_periphery(53, [*cycle(0, 30), *cycle(30, 40), *cycle(40, 45), *cycle(45, 50),
                             (31, 1), (2, 41), (50, 1), (50, 46), (51, 1), (52, 51), (52, 47)],
                        range(53), range(50), rng)),
        # G (0-19) reaches 20; 21 reaches 20 and 22; 23 reaches G and 21.
        ("via node with successors inside and outside cl(G)",
         with_periphery(24, [*cycle(0, 20), (0, 20), (21, 20), (21, 22), (23, 0), (23, 21)],
                        range(24), range(20, 23), rng)),
    ]


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


# ---------------------------------------------------------------------------
# Hand-computed examples on TINY


class TestDirect:
    def test_c(self, tiny_graph):
        assert direct_dependencies(tiny_graph, "c") == {"a", "b"}

    def test_isolated(self, tiny_graph):
        assert direct_dependencies(tiny_graph, "e") == set()

    def test_d(self, tiny_graph):
        assert direct_dependencies(tiny_graph, "d") == {"c"}

    def test_unknown_package(self, tiny_graph):
        with pytest.raises(KeyError):
            direct_dependencies(tiny_graph, "zzz")


class TestTransitive:
    def test_d(self, tiny_graph):
        assert transitive_dependencies(tiny_graph, "d") == {"c", "a", "b"}

    def test_sink(self, tiny_graph):
        assert transitive_dependencies(tiny_graph, "b") == set()

    def test_two_node_cycle_excludes_self(self):
        g = make_graph(["x", "y"], [("x", "y"), ("y", "x")])
        assert transitive_dependencies(g, "x") == {"y"}
        assert transitive_dependents(g, "x") == {"y"}

    def test_dependents_b(self, tiny_graph):
        assert transitive_dependents(tiny_graph, "b") == {"a", "c", "d"}

    def test_dependents_d(self, tiny_graph):
        assert transitive_dependents(tiny_graph, "d") == set()

    def test_dependents_a(self, tiny_graph):
        assert transitive_dependents(tiny_graph, "a") == {"c", "d"}

    def test_indirect_is_transitive_minus_direct(self, tiny_graph):
        for p in tiny_graph.nodes:
            assert indirect_dependencies(tiny_graph, p) == transitive_dependencies(
                tiny_graph, p
            ) - direct_dependencies(tiny_graph, p)


class TestDepth:
    def test_d_depth_two(self, tiny_graph):
        assert dependency_depth(tiny_graph, "d") == 2

    def test_no_dependencies(self, tiny_graph):
        assert dependency_depth(tiny_graph, "e") == 0

    def test_chain(self):
        nodes = [f"p{i}" for i in range(1, 7)]
        g = make_graph(nodes, list(zip(nodes, nodes[1:])))
        assert dependency_depth(g, "p1") == 5

    def test_cycle_depth_finite(self):
        g = make_graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
        assert dependency_depth(g, "x") == 2

    def test_batch_tiny(self, tiny_graph):
        assert dependency_depths(tiny_graph) == {"a": 1, "b": 0, "c": 1, "d": 2, "e": 0}

    def test_batch_subset_keeps_given_order(self):
        nodes = ["p1", "p2", "p3", "q"]
        g = make_graph(nodes, [("p1", "p2"), ("p2", "p3"), ("q", "p1")])
        got = dependency_depths(g, ["p3", "q", "p2", "q"])
        assert list(got.items()) == [("p3", 0), ("q", 3), ("p2", 1)]
        assert dependency_depths(g, []) == {}

    def test_unknown_package(self, tiny_graph):
        with pytest.raises(KeyError):
            dependency_depth(tiny_graph, "zzz")
        with pytest.raises(KeyError):
            dependency_depths(tiny_graph, ["d", "zzz"])

    @pytest.mark.parametrize("batch", [None, 3])
    def test_matches_bfs_oracle(self, monkeypatch, batch):
        # A width of 3 splits most graphs into several batches.
        if batch is not None:
            monkeypatch.setattr(graphops, "_DEPTH_BATCH", batch)
        rng = random.Random(19)
        order_rng = random.Random(29)
        graphs = chain(FUNNEL_CASES.values(), (random_graph(rng) for _ in range(500)))
        for nodes, edges in graphs:
            g = make_graph(nodes, edges)
            want = {p: bfs_eccentricity(g, p) for p in nodes}
            assert dependency_depths(g) == want
            for order in QUERY_ORDERS:
                queries = query_order(order, nodes, order_rng)
                assert_depths_in_order(make_graph(nodes, edges), queries, want)

    def test_known_level_whose_far_node_is_seen_falls_back(self):
        # b's BFS meets a alone at level 1, and a's far node is b itself.
        g = make_graph(["a", "b"], [("a", "b"), ("b", "a")])
        assert [dependency_depth(g, "a"), dependency_depth(g, "b")] == [1, 1]
        assert g.depth_memo() == {0: (1, 1), 1: (1, 0)}

    def test_known_level_takes_the_far_node_of_its_answer(self):
        nodes = ["p", "q", "r", "s"]
        g = make_graph(nodes, list(zip(nodes, nodes[1:])))
        assert [dependency_depth(g, p) for p in reversed(nodes)] == [0, 1, 2, 3]
        assert g.depth_memo() == {3: (0, 3), 2: (1, 3), 1: (2, 3), 0: (3, 3)}

    def test_memo_holds_only_what_was_asked(self):
        nodes = [f"p{i}" for i in range(6)]
        g = make_graph(nodes, list(zip(nodes, nodes[1:])))
        assert g.depth_memo() == {}
        assert dependency_depths(g)["p0"] == 5
        assert g.depth_memo() == {}
        assert dependency_depth(g, "p2") == 3
        assert g.depth_memo() == {2: (3, 5)}

    def test_path_from_the_sink_end_is_linear(self):
        # One BFS per query would walk n * (n - 1) / 2 edges: about a minute.
        n = 20_000
        nodes = [f"p{i:05d}" for i in range(n)]
        g = make_graph(nodes, list(zip(nodes, nodes[1:])))
        g.int_view()
        start = time.perf_counter()
        depths = [dependency_depth(g, p) for p in reversed(nodes)]
        elapsed = time.perf_counter() - start
        assert depths == list(range(n))
        assert elapsed < 5.0, f"{n} queries took {elapsed:.1f} s"

    def test_concurrent_queries_match_bfs_oracle(self):
        rng = random.Random(23)
        graphs = [random_graph(rng, max_nodes=300, density=0.01) for _ in range(20)]
        graphs.append(FUNNEL_CASES["hub with many dependents"])
        # Threads switch every microsecond, so that the queries interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for nodes, edges in graphs:
                want = {p: bfs_eccentricity(make_graph(nodes, edges), p) for p in nodes}
                g = make_graph(nodes, edges)
                g.int_view()
                orders = [query_order(order, nodes, rng) for order in QUERY_ORDERS]
                barrier = threading.Barrier(len(orders), timeout=60)
                got: list[list[int]] = [[] for _ in orders]

                def query(k: int) -> None:
                    barrier.wait()
                    got[k] = [dependency_depth(g, p) for p in orders[k]]

                threads = [threading.Thread(target=query, args=(k,)) for k in range(len(orders))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert got == [[want[p] for p in order] for order in orders]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.perf
    def test_every_package_at_scale_matches_the_batch(self, request):
        skip_unless_perf_selected(request, "the 100k-package fixture: run with -m perf")
        g = build_snapshot(generate(PERF_CFG), datetime(2015, 10, 1))
        want = dependency_depths(g)
        assert {p: dependency_depth(g, p) for p in sorted(g.names)} == want


class TestRoles:
    def test_top_level_tiny(self, tiny_graph):
        assert top_level_packages(tiny_graph) == {"d"}

    def test_top_level_edgeless(self):
        g = make_graph(["x", "y"], [])
        assert top_level_packages(g) == set()

    def test_top_level_chain(self):
        g = make_graph(["x", "y", "z"], [("x", "y"), ("y", "z")])
        assert top_level_packages(g) == {"x"}

    def test_connected_tiny(self, tiny_graph):
        assert connected_packages(tiny_graph) == {"a", "b", "c", "d"}

    def test_connected_edgeless(self):
        g = make_graph(["x", "y"], [])
        assert connected_packages(g) == set()

    def test_connected_march(self, tiny):
        g = build_snapshot(tiny, datetime(2020, 3, 1))
        assert connected_packages(g) == {"a", "b", "c"}

    def test_classify_tiny(self, tiny_graph):
        c = classify(tiny_graph)
        dependent = {p for p, f in c.flags.items() if f.dependent}
        required = {p for p, f in c.flags.items() if f.required}
        top = {p for p, f in c.flags.items() if f.top_level}
        assert dependent == {"a", "c", "d"}
        assert required == {"a", "b", "c"}
        assert top == {"d"}
        assert c.dependent_fraction == pytest.approx(0.6)
        assert c.required_fraction == pytest.approx(0.6)
        assert c.top_level_fraction == pytest.approx(0.2)
        assert c.connected_fraction == pytest.approx(0.8)

    def test_classify_edgeless(self):
        g = make_graph(["x", "y"], [])
        c = classify(g)
        assert all(
            not f.dependent and not f.required and not f.connected and not f.top_level
            for f in c.flags.values()
        )

    def test_flag_invariants(self, tiny_graph):
        for f in classify(tiny_graph).flags.values():
            assert f.connected == (f.dependent or f.required)
            if f.top_level:
                assert f.dependent and not f.required


class TestWcc:
    def test_tiny(self, tiny_graph):
        result = weakly_connected_components(tiny_graph)
        parts = {frozenset(c) for c in result.components}
        assert parts == {frozenset({"a", "b", "c", "d"}), frozenset({"e"})}
        assert result.largest_connected_fraction == 1.0

    def test_edgeless_singletons(self):
        g = make_graph(["x", "y", "z"], [])
        result = weakly_connected_components(g)
        assert sorted(sorted(c) for c in result.components) == [["x"], ["y"], ["z"]]
        assert result.largest_connected_fraction is None

    def test_two_disjoint_edges(self):
        g = make_graph(["w", "x", "y", "z"], [("w", "x"), ("y", "z")])
        result = weakly_connected_components(g)
        parts = {frozenset(c) for c in result.components}
        assert parts == {frozenset({"w", "x"}), frozenset({"y", "z"})}
        assert result.largest_connected_fraction == 0.5


# ---------------------------------------------------------------------------
# Oracle checks on random graphs


def trimmed_sccs(adj, monkeypatch=None):
    """``graphops._trimmed_sccs`` of ``adj``; with ``monkeypatch``, also the
    node count of the core left by the peel, and the node count of each
    graph that Tarjan was run on."""
    core, tarjan = [], []
    if monkeypatch is not None:
        core_sccs, tarjan_sccs = graphops._core_sccs, graphops._tarjan_sccs
        monkeypatch.setattr(
            graphops, "_core_sccs", lambda k, *edges: core.append(k) or core_sccs(k, *edges)
        )
        monkeypatch.setattr(
            graphops, "_tarjan_sccs", lambda sub: tarjan.append(len(sub)) or tarjan_sccs(sub)
        )
    sccs = member_lists(*graphops._trimmed_sccs(*edge_list(adj))[:2])
    return (sccs, core[0], tarjan) if monkeypatch is not None else sccs


def member_lists(comp, n_comp):
    """The nodes of each component, in label order, from one component
    label per node."""
    sccs = [[] for _ in range(n_comp)]
    for v, c in enumerate(comp.tolist()):
        sccs[c].append(v)
    return sccs


def assert_sccs_of(adj, sccs):
    """``sccs`` is Tarjan's partition of ``adj``, listed so that every
    condensation edge goes to an earlier component."""
    assert sorted(v for members in sccs for v in members) == list(range(len(adj)))
    expected = {frozenset(members) for members in graphops._tarjan_sccs(adj)}
    assert {frozenset(members) for members in sccs} == expected
    comp = {v: ci for ci, members in enumerate(sccs) for v in members}
    for v, row in enumerate(adj):
        for w in row:
            assert comp[w] <= comp[v], (v, w)


class TestTrimmedSccs:
    def test_random_cyclic_graphs(self):
        rng = random.Random(17)
        for density in (0.02, 0.08, 0.3):
            for _ in range(150):
                nodes, edges = random_graph(rng, density=density)
                adj = make_graph(nodes, edges).int_view().adj
                assert_sccs_of(adj, trimmed_sccs(adj))

    @pytest.mark.parametrize("shape", ["dag", "one_giant", "two_giants", "chain", "ladder"])
    def test_shaped_cases(self, shape):
        adj = shaped_adjacency(shape)
        assert_sccs_of(adj, trimmed_sccs(adj))

    def test_dag_is_peeled_whole(self, monkeypatch):
        adj = shaped_adjacency("dag")
        sccs, core, _ = trimmed_sccs(adj, monkeypatch)
        assert core == 0
        assert_sccs_of(adj, sccs)

    def test_pure_cycle_is_all_core(self, monkeypatch):
        # The search from node 0 reaches every node both ways, so the core
        # is one component without Tarjan.
        adj = [[(i + 1) % 50] for i in range(50)]
        sccs, core, tarjan = trimmed_sccs(adj, monkeypatch)
        assert core == 50 and tarjan == []
        assert [sorted(members) for members in sccs] == [list(range(50))]

    # The search from node 0 needs 49 levels to reach the whole 50-cycle,
    # and one more to find nothing new; with fewer it leaves the core to
    # Tarjan, which finds the same component.
    @pytest.mark.parametrize("levels, runs_tarjan", [(49, True), (50, False)])
    def test_long_search_falls_back_to_tarjan(self, monkeypatch, levels, runs_tarjan):
        monkeypatch.setattr(graphops, "_SEARCH_LEVELS", levels)
        adj = [[(i + 1) % 50] for i in range(50)]
        sccs, core, tarjan = trimmed_sccs(adj, monkeypatch)
        assert core == 50 and tarjan == ([50] if runs_tarjan else [])
        assert [sorted(members) for members in sccs] == [list(range(50))]

    # Cycles 0 <-> 1 and 2 <-> 3, joined by one edge: from 2 to 0, so the
    # forward search from 0 stops at 1; or from 0 to 2, so it reaches every
    # node and the backward search stops at 1. The tail 4 -> 5 -> 6 -> 0
    # peels off.
    @pytest.mark.parametrize("join", [(2, 0), (0, 2)])
    def test_core_of_several_components_runs_tarjan(self, monkeypatch, join):
        adj = [[1], [0], [3], [2], [5], [6], [0]]
        adj[join[0]].append(join[1])
        sccs, core, tarjan = trimmed_sccs(adj, monkeypatch)
        assert core == 4 and tarjan == [4]
        assert_sccs_of(adj, sccs)

    def test_empty_and_edgeless(self):
        assert trimmed_sccs([]) == []
        assert trimmed_sccs([[], [], []]) == [[0], [1], [2]]

    def test_rounds_put_successors_in_earlier_rounds(self):
        # An out-peeled node's out-neighbours, and an in-peeled node's
        # in-neighbours, were peeled on the same side in earlier rounds. An
        # in-peeled node's out-neighbours are out-peeled, in the core or
        # in-peeled in a later round, and an out-peeled node's in-neighbours
        # are in-peeled, in the core or out-peeled in a later round.
        rng = random.Random(23)
        graphs = [shaped_adjacency(shape) for shape in ("dag", "one_giant", "chain")]
        graphs += [make_graph(*random_graph(rng)).int_view().adj for _ in range(150)]
        for adj in graphs:
            comp, n_comp, out_bounds, in_bounds = graphops._trimmed_sccs(*edge_list(adj))
            sccs = member_lists(comp, n_comp)
            rounds = []
            for bounds, order in ((out_bounds, sccs), (in_bounds, sccs[::-1])):
                assert bounds[0] == 0 and bounds == sorted(bounds)
                round_of = {}
                for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                    for members in order[lo:hi]:
                        assert len(members) == 1
                        round_of[members[0]] = r
                rounds.append(round_of)
            out_round, in_round = rounds
            sides = (
                (out_round, in_round, adj),
                (in_round, out_round, reversed_adjacency(adj)),
            )
            for near, far, successors in sides:
                for v, r in near.items():
                    for w in successors[v]:
                        assert w in near and near[w] < r, (v, w)
                for v, r in far.items():
                    for w in successors[v]:
                        assert w not in far or far[w] > r, (v, w)
            assert out_bounds[-1] + in_bounds[-1] <= len(adj)

    def test_peel_order(self):
        # 0 is isolated; 5 -> 3 -> 1 <-> 2 -> 4 -> 6. Sinks go first in peel
        # order, 0 with them; the cycle is the core; sources go last, the
        # latest peeled first.
        adj = [[], [2], [1, 4], [1], [6], [3], []]
        sccs = trimmed_sccs(adj)
        assert sccs[:3] == [[0], [6], [4]]
        assert sorted(sccs[3]) == [1, 2]
        assert sccs[4:] == [[3], [5]]



class TestClosureOracle:
    def test_transitive_sets_match_matrix_closure(self):
        rng = random.Random(20200101)
        for _ in range(60):
            nodes, edges = random_graph(rng)
            g = make_graph(nodes, edges)
            idx, reach = closure_matrix(nodes, edges)
            for p in nodes:
                expected = {q for q in nodes if reach[idx[p], idx[q]] and q != p}
                assert transitive_dependencies(g, p) == expected
                expected_rev = {q for q in nodes if reach[idx[q], idx[p]] and q != p}
                assert transitive_dependents(g, p) == expected_rev

    def test_batch_counts_match_per_node_queries(self):
        rng = random.Random(4)
        for _ in range(40):
            nodes, edges = random_graph(rng, max_nodes=40)
            g = make_graph(nodes, edges)
            fwd = transitive_dependency_counts(g)
            rev = transitive_dependent_counts(g)
            both = graphops._closures(*graphops._edge_list(g), (False, True))
            assert [dict(zip(g.names, sizes.tolist())) for sizes in both] == [fwd, rev]
            for p in nodes:
                assert fwd[p] == len(transitive_dependencies(g, p))
                assert rev[p] == len(transitive_dependents(g, p))

    @pytest.fixture(scope="class")
    def shaped_cases(self):
        cases = []
        for shape in ("dag", "one_giant", "two_giants", "chain", "ladder"):
            adj = shaped_adjacency(shape)
            cases.append((shape, adj, bfs_closure_sizes(adj),
                          bfs_closure_sizes(reversed_adjacency(adj))))
        return cases

    # The default ratio; 1, with nearly every peeled node, on both sides,
    # merged in numpy; and one above any node count, with every component
    # left to the loop.
    @pytest.mark.parametrize("ratio", [None, 1, 10**9])
    def test_closure_sizes_match_bfs_oracle(self, monkeypatch, shaped_cases, ratio):
        if ratio is not None:
            monkeypatch.setattr(graphops, "_SPARSE_RATIO", ratio)
        for shape, adj, forward, backward in shaped_cases:
            edges = edge_list(adj)
            assert graphops._closure_sizes(*edges).tolist() == forward, shape
            assert graphops._closure_sizes(*edges, reverse=True).tolist() == backward, shape
            both = graphops._closures(*edges, (False, True))
            assert [sizes.tolist() for sizes in both] == [forward, backward], shape
        rng = random.Random(31)
        for _ in range(300):
            nodes, edges = random_graph(rng)
            adj = make_graph(nodes, edges).int_view().adj
            forward = bfs_closure_sizes(adj)
            backward = bfs_closure_sizes(reversed_adjacency(adj))
            edges = edge_list(adj)
            assert graphops._closure_sizes(*edges).tolist() == forward
            assert graphops._closure_sizes(*edges, reverse=True).tolist() == backward
            both = graphops._closures(*edges, (False, True))
            assert [sizes.tolist() for sizes in both] == [forward, backward]

    def test_peel_round_cases_match_bfs_oracle(self, monkeypatch):
        # An acyclic graph, where every node is peeled; a 2,000-node chain,
        # one node peeled per round on each side; peeled nodes around a
        # giant component; and the same with 300 two-node chains beside it,
        # whose far-side node (the source for dependencies, the target for
        # dependents) has its one successor merged in numpy. A ratio of 600
        # sets bounds of 1, 3, 4 and 5: in each graph and direction some
        # near-side nodes are merged in numpy and some pass the bound and
        # are left to the loop, and with the chains so are far-side ones.
        monkeypatch.setattr(graphops, "_SPARSE_RATIO", 600)
        calls = []
        rounds = graphops._Reaches.rounds

        def spy(reaches, bounds):
            rounds(reaches, bounds)
            calls.append(reaches.looped[bounds[0]:bounds[-1]].copy())

        monkeypatch.setattr(graphops._Reaches, "rounds", spy)
        giant = shaped_adjacency("one_giant")
        chains = [row for i in range(300) for row in ([len(giant) + 2 * i + 1], [])]
        cases = (
            ("dag", shaped_adjacency("dag", n=600)),
            ("chain", shaped_adjacency("chain", n=2000)),
            ("one_giant", giant),
            ("one_giant and chains", giant + chains),
        )
        for shape, adj in cases:
            forward = bfs_closure_sizes(adj)
            backward = bfs_closure_sizes(reversed_adjacency(adj))
            both = graphops._closures(*edge_list(adj), (False, True))
            assert [sizes.tolist() for sizes in both] == [forward, backward], shape
            # The near rounds, then the far rounds, in each direction.
            assert len(calls) == 4
            sides = calls[0::2]
            if shape == "one_giant and chains":
                sides += calls[1::2]
            for flags in sides:
                assert 0 < flags.sum() < len(flags), shape
            calls.clear()

    @pytest.mark.parametrize("ratio", [None, 1, 10**9])
    def test_giant_cases_match_bfs_oracle(self, monkeypatch, ratio):
        if ratio is not None:
            monkeypatch.setattr(graphops, "_SPARSE_RATIO", ratio)
        for name, adj in giant_cases():
            expected = [bfs_closure_sizes(adj), bfs_closure_sizes(reversed_adjacency(adj))]
            both = graphops._closures(*edge_list(adj), (False, True))
            assert [sizes.tolist() for sizes in both] == expected, name

    @pytest.mark.parametrize("ratio", [None, 1, 10**9])
    def test_any_core_component_as_g_gives_the_same_sizes(self, monkeypatch, ratio):
        # Each core component in turn stands in for the largest as G: the
        # looped components with more than one member are the core's.
        if ratio is not None:
            monkeypatch.setattr(graphops, "_SPARSE_RATIO", ratio)
        hold, pick = graphops._Reaches.hold, [0]

        def hold_another(reaches, _):
            core = np.flatnonzero(reaches.looped & (reaches.count > 1))
            hold(reaches, int(core[pick[0] % len(core)]))

        monkeypatch.setattr(graphops._Reaches, "hold", hold_another)
        for name, adj in giant_cases():
            expected = [bfs_closure_sizes(adj), bfs_closure_sizes(reversed_adjacency(adj))]
            for pick[0] in range(4):
                both = graphops._closures(*edge_list(adj), (False, True))
                assert [sizes.tolist() for sizes in both] == expected, (name, pick)

    def test_giant_cases_take_their_paths(self, monkeypatch):
        # At a ratio of 1 every peeled node is merged in numpy unless a
        # successor is looped. The dependencies direction is checked.
        monkeypatch.setattr(graphops, "_SPARSE_RATIO", 1)
        tarjan_sccs, rounds = graphops._tarjan_sccs, graphops._Reaches.rounds
        tarjan, far = [], []

        def far_rounds(reaches, bounds):
            rounds(reaches, bounds)
            if reaches.in_cl is not None and not far:
                far.append(reaches)

        monkeypatch.setattr(
            graphops, "_tarjan_sccs", lambda sub: tarjan.append(len(sub)) or tarjan_sccs(sub)
        )
        monkeypatch.setattr(graphops._Reaches, "rounds", far_rounds)
        paths = {}
        for name, adj in giant_cases():
            tarjan.clear()
            far.clear()
            graphops._closures(*edge_list(adj), (False,))
            (r,) = far
            s, t = r.src[r.kept], r.succ[r.kept]
            numpy_via = r.via & ~r.looped
            # A via component merged in numpy, one of whose successors
            # merged in numpy is not via and reaches into cl(G).
            masked = [
                c for c in t[numpy_via[s] & ~r.looped[t] & ~r.via[t]].tolist()
                if r.in_cl[r.buf[r.start[c]:r.start[c] + r.count[c]]].any()
            ]
            paths[name] = (
                bool(tarjan),
                bool((~r.kept).any()),
                bool(masked),
                bool((r.looped[s] & r.via[s] & numpy_via[t]).any()),
            )
        # Tarjan ran; a via component dropped a successor inside cl(G); ids
        # were masked by cl(G); a looped via component had a via successor.
        assert paths == {
            "two large SCCs": (True, True, False, False),
            "G reaches nothing": (True, True, False, True),
            "nothing reaches G": (True, False, False, False),
            "largest SCC, not the largest closure": (True, True, False, False),
            "core of several SCCs": (True, True, False, True),
            "via node with successors inside and outside cl(G)": (False, True, True, False),
        }

    def test_closure_symmetry(self):
        rng = random.Random(9)
        for _ in range(30):
            nodes, edges = random_graph(rng)
            g = make_graph(nodes, edges)
            total_fwd = sum(transitive_dependency_counts(g).values())
            total_rev = sum(transitive_dependent_counts(g).values())
            assert total_fwd == total_rev

    def test_depth_bounds(self):
        rng = random.Random(11)
        for _ in range(25):
            nodes, edges = random_graph(rng, max_nodes=30)
            g = make_graph(nodes, edges)
            for p in nodes:
                depth = dependency_depth(g, p)
                assert depth <= len(nodes) - 1
                assert (depth == 0) == (len(g.out_neighbors(p)) == 0)

    def test_wcc_matches_union_find_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            nodes, edges = random_graph(rng)
            g = make_graph(nodes, edges)
            uf = UnionFind(nodes)
            for s, t in edges:
                uf.union(s, t)
            expected: dict[str, set[str]] = {}
            for n in nodes:
                expected.setdefault(uf.find(n), set()).add(n)
            got = {frozenset(c) for c in weakly_connected_components(g).components}
            assert got == {frozenset(c) for c in expected.values()}

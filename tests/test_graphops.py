from __future__ import annotations

import random
from collections import deque
from datetime import datetime

import numpy as np
import pytest

from depnet import graphops
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

from conftest import make_graph, random_graph

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
        for _ in range(500):
            nodes, edges = random_graph(rng)
            g = make_graph(nodes, edges)
            want = {p: bfs_eccentricity(g, p) for p in nodes}
            assert dependency_depths(g) == want
            assert {p: dependency_depth(g, p) for p in nodes} == want


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

    # The default ratio, 1 (sets almost everywhere) and one above any node
    # count (bitsets everywhere).
    @pytest.mark.parametrize("ratio", [None, 1, 10**9])
    def test_closure_sizes_match_bfs_oracle(self, monkeypatch, shaped_cases, ratio):
        if ratio is not None:
            monkeypatch.setattr(graphops, "_SPARSE_RATIO", ratio)
        for shape, adj, forward, backward in shaped_cases:
            assert graphops._closure_sizes(adj) == forward, shape
            assert graphops._closure_sizes(adj, reverse=True) == backward, shape
        rng = random.Random(31)
        for _ in range(300):
            nodes, edges = random_graph(rng)
            adj = make_graph(nodes, edges).int_view().adj
            assert graphops._closure_sizes(adj) == bfs_closure_sizes(adj)
            assert graphops._closure_sizes(adj, reverse=True) == bfs_closure_sizes(
                reversed_adjacency(adj)
            )

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

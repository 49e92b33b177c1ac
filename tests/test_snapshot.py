from __future__ import annotations

import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from depnet.fixtures import GeneratorConfig, generate
from depnet.ingest import (
    Dataset,
    DependencyRecord,
    PackageRecord,
    ReleaseRecord,
    version_sort_key,
)
from depnet.graphops import (
    RoleFlags,
    classify,
    connected_packages,
    top_level_packages,
)
from depnet.snapshot import (
    IntView,
    _snapshot_sizes,
    build_snapshot,
    checked_months,
    latest_releases_at,
    monthly_snapshots,
)
from depnet.timeutil import iter_months, month_start

from conftest import constructed_and_reloaded, edge_case_dataset, make_graph, random_graph

TINY_CUTOFF = datetime(2020, 4, 1)


class TestLatestReleases:
    def test_early_february(self, tiny):
        latest = latest_releases_at(tiny, datetime(2020, 2, 1))
        assert {p: r.version for p, r in latest.items()} == {
            "a": "1.0.0",
            "b": "1.0.0",
            "e": "1.0.0",
        }

    def test_at_cutoff(self, tiny):
        latest = latest_releases_at(tiny, TINY_CUTOFF)
        assert {p: r.version for p, r in latest.items()} == {
            "a": "1.1.0",
            "b": "1.0.0",
            "c": "2.0.0",
            "d": "1.0.0",
            "e": "1.0.0",
        }

    def test_before_history(self, tiny):
        assert latest_releases_at(tiny, datetime(2019, 1, 1)) == {}

    def test_after_cutoff_rejected(self, tiny):
        with pytest.raises(ValueError, match="cutoff"):
            latest_releases_at(tiny, datetime(2021, 1, 1))

    def test_timestamp_tie_broken_by_version(self):
        ts = datetime(2020, 1, 1)
        d = Dataset(
            packages={PackageRecord("p", "default")},
            releases=[
                ReleaseRecord("p", "1.10.0", ts),
                ReleaseRecord("p", "1.9.0", ts),
            ],
            dependencies=[],
            cutoff=datetime(2020, 2, 1),
        )
        latest = latest_releases_at(d, datetime(2020, 1, 15))
        assert latest["p"].version == "1.10.0"


class TestBuildSnapshot:
    def test_full_graph(self, tiny):
        g = build_snapshot(tiny, TINY_CUTOFF)
        assert g.n_nodes == 5
        assert g.edges == {("a", "b"), ("c", "a"), ("c", "b"), ("d", "c")}

    def test_february_no_edges(self, tiny):
        g = build_snapshot(tiny, datetime(2020, 2, 1))
        assert g.n_nodes == 3
        assert g.n_edges == 0

    def test_march(self, tiny):
        g = build_snapshot(tiny, datetime(2020, 3, 1))
        assert g.n_nodes == 4
        assert g.edges == {("a", "b"), ("c", "a")}

    def test_missing_target_counted(self):
        # q's only release comes after t, so p -> q is dropped and counted.
        d = Dataset(
            packages={PackageRecord("p", "default"), PackageRecord("q", "default")},
            releases=[
                ReleaseRecord("p", "1.0.0", datetime(2020, 1, 1)),
                ReleaseRecord("q", "1.0.0", datetime(2020, 3, 1)),
            ],
            dependencies=[
                DependencyRecord("p", "1.0.0", "q", "*", "runtime"),
            ],
            cutoff=datetime(2020, 4, 1),
        )
        g = build_snapshot(d, datetime(2020, 2, 1))
        assert g.nodes == {"p"}
        assert g.n_edges == 0
        assert g.dropped_deps == 1
        g2 = build_snapshot(d, datetime(2020, 3, 15))
        assert g2.edges == {("p", "q")}
        assert g2.dropped_deps == 0

    def test_self_loop_and_duplicates_removed(self):
        d = Dataset(
            packages={PackageRecord("p", "default"), PackageRecord("q", "default")},
            releases=[
                ReleaseRecord("p", "1.0.0", datetime(2020, 1, 1)),
                ReleaseRecord("q", "1.0.0", datetime(2020, 1, 1)),
            ],
            dependencies=[
                DependencyRecord("p", "1.0.0", "p", "*", "runtime"),
                DependencyRecord("p", "1.0.0", "q", "*", "runtime"),
                DependencyRecord("p", "1.0.0", "q", "*", "depends"),
            ],
            cutoff=datetime(2020, 2, 1),
        )
        g = build_snapshot(d, datetime(2020, 1, 15))
        assert g.edges == {("p", "q")}

    def test_row_order_independence(self, tiny):
        rng = random.Random(3)
        releases = list(tiny.releases)
        deps = list(tiny.dependencies)
        reference = build_snapshot(tiny, TINY_CUTOFF)
        for _ in range(5):
            rng.shuffle(releases)
            rng.shuffle(deps)
            shuffled = Dataset(
                packages=set(tiny.packages),
                releases=releases,
                dependencies=deps,
                cutoff=tiny.cutoff,
                ecosystem=tiny.ecosystem,
            )
            assert build_snapshot(shuffled, TINY_CUTOFF) == reference


class TestMonthlySeries:
    def test_tiny_series(self, tiny):
        series = monthly_snapshots(tiny, (2020, 2), (2020, 4))
        sizes = [(g.n_nodes, g.n_edges) for g in series]
        assert sizes == [(3, 0), (4, 2), (5, 4)]
        assert series.months == [(2020, 2), (2020, 3), (2020, 4)]

    def test_single_month(self, tiny):
        series = monthly_snapshots(tiny, (2020, 2), (2020, 2))
        assert len(series) == 1

    def test_inverted_range(self, tiny):
        with pytest.raises(ValueError):
            monthly_snapshots(tiny, (2020, 5), (2020, 2))

    def test_inverted_range_is_reported_before_the_cutoff(self, tiny):
        # Both ends are past the cutoff month (2020-04); the inversion wins.
        with pytest.raises(ValueError, match=r"^inverted month range: 2021-05 > 2021-02$"):
            checked_months(tiny, (2021, 5), (2021, 2))
        with pytest.raises(ValueError, match="beyond the dataset cutoff"):
            checked_months(tiny, (2021, 2), (2021, 5))
        assert checked_months(tiny, (2020, 3), (2020, 4)) == [(2020, 3), (2020, 4)]

    def test_node_sets_grow(self, tiny):
        series = monthly_snapshots(tiny, (2020, 1), (2020, 4))
        for prev, cur in zip(series.snapshots, series.snapshots[1:]):
            assert prev.nodes <= cur.nodes

    def test_boundary_release_included(self):
        # A release at exactly the month boundary belongs to that snapshot.
        d = Dataset(
            packages={PackageRecord("p", "default")},
            releases=[ReleaseRecord("p", "1.0.0", datetime(2020, 2, 1))],
            dependencies=[],
            cutoff=datetime(2020, 3, 1),
        )
        g = build_snapshot(d, datetime(2020, 2, 1))
        assert g.nodes == {"p"}


def _random_dataset(rng: random.Random) -> Dataset:
    """Releases on a coarse day grid (so timestamps tie within and across
    packages), self-dependencies, one target under two kinds, targets
    released only after their source, and targets never released."""
    names = [f"p{i}" for i in range(rng.randint(1, 9))]
    releases = []
    for name in names[: rng.randint(0, len(names))]:
        for k in range(rng.randint(1, 4)):
            day = rng.randint(1, 12)
            version = f"1.{k}.{rng.randint(0, 10)}"
            releases.append(ReleaseRecord(name, version, datetime(2020, 1, day)))
    unique = {(r.package, r.version): r for r in releases}
    releases = list(unique.values())
    rng.shuffle(releases)
    deps = []
    for rel in releases:
        for _ in range(rng.randint(0, 4)):
            target = rng.choice(names)
            for kind in rng.sample(["runtime", "depends"], rng.randint(1, 2)):
                deps.append(DependencyRecord(rel.package, rel.version, target, "*", kind))
    rng.shuffle(deps)
    return Dataset(
        packages={PackageRecord(n, "default") for n in names},
        releases=releases,
        dependencies=deps,
        cutoff=datetime(2020, 2, 1),
    )


def _reference_snapshot(d: Dataset, t: datetime):
    """(package order, out-neighbours, in-neighbours, dropped rows) at t,
    from the dataset's release and dependency rows alone. Of releases that
    tie on both timestamp and version order ("1.0" and "1.00"), the later
    row is the latest."""
    latest: dict[str, ReleaseRecord] = {}
    for rel in d.releases:  # keys in first-release-row order
        if rel.timestamp <= t:
            cur = latest.get(rel.package)
            if cur is None or (rel.timestamp, version_sort_key(rel.version)) >= (
                cur.timestamp, version_sort_key(cur.version)
            ):
                latest[rel.package] = rel
        elif rel.package not in latest:
            latest[rel.package] = None
    latest = {p: r for p, r in latest.items() if r is not None}
    out = {p: [] for p in latest}
    dropped = 0
    for dep in d.dependencies:
        src, q = dep.source_package, dep.target_package
        rel = latest.get(src)
        if rel is None or rel.version != dep.source_version:
            continue
        if q not in latest:
            dropped += 1
        elif q != src and q not in out[src]:
            out[src].append(q)
    incoming = {q: tuple(s for s in latest if q in out[s]) for q in latest}
    return latest, {p: tuple(ts) for p, ts in out.items()}, incoming, dropped


class TestBuildSnapshotOracle:
    def test_matches_reference_on_random_datasets(self, tmp_path):
        rng = random.Random(17)
        for _ in range(300):
            for d in constructed_and_reloaded(_random_dataset(rng), tmp_path / "d"):
                instants = [datetime(2020, 1, day) for day in (1, 3, 6, 9, 12)]
                instants += [datetime(2020, 1, 4, 12), d.cutoff]
                for t in instants:
                    latest, out, incoming, dropped = _reference_snapshot(d, t)
                    g = build_snapshot(d, t)
                    assert g.latest == latest
                    assert list(g.latest) == list(latest)  # node id order
                    assert g.nodes == set(latest)
                    assert {p: g.out_neighbors(p) for p in g.nodes} == out
                    assert {p: g.in_neighbors(p) for p in g.nodes} == incoming
                    assert g.dropped_deps == dropped
                    assert g.n_edges == sum(map(len, out.values()))


def _row_views(names, out):
    """The integer view, the in-adjacency and the in-degrees of the graph
    with nodes ``names`` and out-neighbour names ``out[p]``, by the rule the
    graph followed when it stored adjacency rows: tuples in declaration
    order, in-neighbours appended in source id order."""
    ids = {p: i for i, p in enumerate(names)}
    adj = [tuple(ids[q] for q in out[p]) for p in names]
    preds = [[] for _ in names]
    for i, row in enumerate(adj):
        for j in row:
            preds[j].append(i)
    return IntView(names, ids, adj), [tuple(row) for row in preds], [len(row) for row in preds]


def assert_storage_matches(g, names, out):
    """Every value ``g`` derives from its CSR arrays equals the one the
    adjacency rows of ``names`` and ``out`` give."""
    view, preds, in_deg = _row_views(names, out)
    offsets, targets = g.edge_arrays()
    assert offsets.dtype == np.int64 and offsets.tolist()[:1] == [0]
    assert len(offsets) == len(names) + 1 and offsets[-1] == len(targets)
    assert g.int_view() == view
    assert g.in_adjacency() == preds
    counts = g.in_degree_counts()
    assert list(counts.items()) == [(names[j], k) for j, k in enumerate(in_deg) if k]
    assert g.n_nodes == len(names)
    assert g.n_edges == sum(map(len, view.adj))
    assert g.edges == {(p, q) for p in names for q in out[p]}
    assert top_level_packages(g) == {
        names[i] for i, row in enumerate(view.adj) if row and not in_deg[i]
    }
    assert connected_packages(g) == {
        names[i] for i, row in enumerate(view.adj) if row or in_deg[i]
    }
    assert list(classify(g).flags.items()) == [
        (names[i], RoleFlags(dependent=bool(row), required=bool(in_deg[i])))
        for i, row in enumerate(view.adj)
    ]


class TestCsrStorageOracle:
    def test_random_cyclic_graphs(self):
        rng = random.Random(20170419)
        graphs = [([], [])] + [random_graph(rng) for _ in range(200)]
        for nodes, edges in graphs:
            out = {p: [] for p in nodes}
            for src, dst in edges:
                if src != dst and dst not in out[src]:
                    out[src].append(dst)
            assert_storage_matches(make_graph(nodes, edges), list(out), out)

    def test_generated_snapshots(self):
        cfg = GeneratorConfig(n_packages=200, months=12, seed=7, mean_deps=2.0, update_rate=0.2)
        d = generate(cfg)
        for month in ((2015, 1), (2015, 4), (2015, 8), (2015, 12), (2016, 1)):
            t = month_start(month)
            latest, out, _, _ = _reference_snapshot(d, t)
            g = build_snapshot(d, t)
            assert_storage_matches(g, list(latest), {p: list(row) for p, row in out.items()})


class TestEdgeSpansOracle:
    def test_sizes_match_snapshots(self, tmp_path):
        # Oracle: at every release instant, a microsecond either side of it,
        # and every month start, the snapshot sizes read from the span table
        # and the snapshot built as its slice equal the reference snapshot,
        # which reads the release and dependency rows alone.
        rng = random.Random(20170402)
        tick = timedelta(microseconds=1)
        for _ in range(300):
            for d in constructed_and_reloaded(edge_case_dataset(rng), tmp_path / "d"):
                instants = [month_start(m) for m in iter_months((2019, 12), (2020, 4))]
                for ts in {release.timestamp for release in d.releases}:
                    instants += [ts - tick, ts, ts + tick]
                instants.sort()
                expected = [_reference_snapshot(d, t) for t in instants]
                nodes, edges = _snapshot_sizes(d, instants)
                assert nodes == [len(latest) for latest, _, _, _ in expected], d
                assert edges == [sum(map(len, out.values())) for _, out, _, _ in expected], d
                for t, (latest, out, _, dropped) in zip(instants, expected):
                    g = build_snapshot(d, t)
                    assert g.names == list(latest), (d, t)
                    assert {p: g.out_neighbors(p) for p in latest} == out, (d, t)
                    assert g.dropped_deps == dropped, (d, t)

from __future__ import annotations

import random
from datetime import datetime

import pytest

from depnet.ingest import (
    Dataset,
    DependencyRecord,
    PackageRecord,
    ReleaseRecord,
    version_sort_key,
)
from depnet.snapshot import (
    build_snapshot,
    latest_releases_at,
    monthly_snapshots,
)

from conftest import constructed_and_reloaded

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
    from the dataset's release and dependency rows alone."""
    latest: dict[str, ReleaseRecord] = {}
    for rel in d.releases:  # keys in first-release-row order
        if rel.timestamp <= t:
            cur = latest.get(rel.package)
            if cur is None or (rel.timestamp, version_sort_key(rel.version)) > (
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

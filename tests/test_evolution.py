from __future__ import annotations

import random
from datetime import datetime, timedelta
from functools import partial

import pytest

from depnet import evolution
from depnet.evolution import (
    active_packages,
    dependency_ratio_series,
    depth_distribution,
    ecosystem_scan,
    growth_series,
    index_series,
    survival_dataset,
    transitive_ratio_series,
    update_counts_series,
    update_distribution,
    update_inequality,
    updates_by_age,
)
from depnet.fixtures import GeneratorConfig, generate
from depnet.ingest import Dataset, DependencyRecord, PackageRecord, ReleaseRecord
from depnet.snapshot import build_snapshot
from depnet.stats import kaplan_meier
from depnet.timeutil import DAYS_PER_MONTH

from conftest import make_graph

TINY_CUTOFF = datetime(2020, 4, 1)


def random_release_dataset(rng: random.Random) -> Dataset:
    """Up to six packages with up to four releases each over ten days."""
    names = [f"p{i}" for i in range(rng.randint(1, 6))]
    releases = []
    dependencies = []
    for name in names:
        days = sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 4)))
        for k, day in enumerate(days):
            version = f"1.{k}"
            releases.append(ReleaseRecord(name, version, datetime(2020, 1, 1 + day)))
            for _ in range(rng.randint(0, 3)):
                target = rng.choice(names)
                dependencies.append(DependencyRecord(name, version, target, "*", "runtime"))
    rng.shuffle(releases)
    return Dataset(
        packages={PackageRecord(n, "x") for n in names},
        releases=releases,
        dependencies=dependencies,
        cutoff=datetime(2020, 1, 15),
    )


def single_package_dataset():
    return Dataset(
        packages={PackageRecord("solo", "x")},
        releases=[ReleaseRecord("solo", "1.0.0", datetime(2020, 1, 10))],
        dependencies=[],
        cutoff=datetime(2020, 3, 1),
    )


class TestGrowth:
    def test_tiny(self, tiny):
        packages, deps = growth_series(tiny, (2020, 2), (2020, 4))
        assert packages.values() == [3.0, 4.0, 5.0]
        assert deps.values() == [0.0, 2.0, 4.0]

    def test_package_counts_non_decreasing(self, tiny):
        packages, _ = growth_series(tiny, (2020, 1), (2020, 4))
        values = packages.values()
        assert values == sorted(values)

    def test_single_package_no_deps(self):
        packages, deps = growth_series(single_package_dataset(), (2020, 2), (2020, 3))
        assert packages.values() == [1.0, 1.0]
        assert deps.values() == [0.0, 0.0]

    def test_empty_dataset_all_zero(self):
        d = Dataset(
            packages=set(), releases=[], dependencies=[], cutoff=datetime(2020, 4, 1)
        )
        packages, deps = growth_series(d, (2020, 1), (2020, 3))
        assert packages.values() == [0.0, 0.0, 0.0]
        assert deps.values() == [0.0, 0.0, 0.0]

    def test_inverted_range(self, tiny):
        with pytest.raises(ValueError):
            growth_series(tiny, (2020, 4), (2020, 2))


class TestRatio:
    def test_tiny_april(self, tiny):
        series = dependency_ratio_series(tiny, (2020, 4), (2020, 4))
        assert series.points == [((2020, 4), 0.8)]

    def test_tiny_march(self, tiny):
        series = dependency_ratio_series(tiny, (2020, 3), (2020, 3))
        assert series.points == [((2020, 3), 0.5)]

    def test_edgeless_month_zero(self, tiny):
        series = dependency_ratio_series(tiny, (2020, 2), (2020, 2))
        assert series.points == [((2020, 2), 0.0)]

    def test_empty_months_omitted(self, tiny):
        # The first release lands on Jan 5, so the Jan 1 snapshot is empty.
        series = dependency_ratio_series(tiny, (2019, 11), (2020, 2))
        assert [m for m, _ in series.points] == [(2020, 2)]


class TestUpdateCounts:
    def test_tiny_monthly(self, tiny):
        series = update_counts_series(tiny, (2020, 1), (2020, 3))
        assert [(m, v) for m, v in series.points] == [
            ((2020, 1), 0.0),
            ((2020, 2), 1.0),
            ((2020, 3), 1.0),
        ]

    def test_only_first_releases(self):
        series = update_counts_series(single_package_dataset(), (2020, 1), (2020, 2))
        assert series.values() == [0.0, 0.0]

    def test_three_releases_in_one_month(self):
        d = Dataset(
            packages={PackageRecord("p", "x")},
            releases=[
                ReleaseRecord("p", "1.0.0", datetime(2020, 1, 5)),
                ReleaseRecord("p", "1.1.0", datetime(2020, 1, 12)),
                ReleaseRecord("p", "1.2.0", datetime(2020, 1, 20)),
            ],
            dependencies=[],
            cutoff=datetime(2020, 2, 1),
        )
        series = update_counts_series(d, (2020, 1), (2020, 1))
        assert series.values() == [2.0]

    def test_include_first_flag(self, tiny):
        series = update_counts_series(tiny, (2020, 1), (2020, 3), include_first=True)
        assert series.values() == [3.0, 2.0, 2.0]

    def test_total_updates_identity(self, tiny):
        series = update_counts_series(tiny, (2020, 1), (2020, 4))
        n_packages_with_release = len({r.package for r in tiny.releases})
        assert sum(series.values()) == len(tiny.releases) - n_packages_with_release


class TestUpdateDistribution:
    def test_tiny(self, tiny):
        bins = update_distribution(tiny, TINY_CUTOFF)
        assert (bins.never, bins.low, bins.high) == (3, 2, 0)
        assert bins.never + bins.low + bins.high == bins.total == 5

    def test_all_single_release(self):
        bins = update_distribution(single_package_dataset(), datetime(2020, 2, 1))
        assert bins.never == bins.total == 1

    def test_six_releases_is_high(self):
        releases = [
            ReleaseRecord("p", f"1.{i}.0", datetime(2020, 1, 1 + i)) for i in range(6)
        ]
        d = Dataset(
            packages={PackageRecord("p", "x")},
            releases=releases,
            dependencies=[],
            cutoff=datetime(2020, 2, 1),
        )
        bins = update_distribution(d, datetime(2020, 2, 1))
        assert bins.high == 1 and bins.total == 1


class TestActivePackages:
    def test_tiny_year(self, tiny):
        assert active_packages(tiny, datetime(2020, 1, 1), datetime(2021, 1, 1)) == {
            "a",
            "c",
        }

    def test_window_before_history(self, tiny):
        assert active_packages(tiny, datetime(2018, 1, 1), datetime(2019, 1, 1)) == set()

    def test_march_only(self, tiny):
        assert active_packages(tiny, datetime(2020, 3, 1), datetime(2020, 4, 1)) == {"c"}

    def test_inverted_window(self, tiny):
        with pytest.raises(ValueError):
            active_packages(tiny, datetime(2021, 1, 1), datetime(2020, 1, 1))


class TestUpdateInequality:
    def test_tiny_equal_counts(self, tiny):
        result = update_inequality(tiny, datetime(2020, 1, 1), datetime(2021, 1, 1))
        assert result.counts == {"a": 1, "c": 1}
        assert result.gini == 0.0
        for x, y in result.lorenz.points:
            assert y == pytest.approx(x)

    def test_single_dominant_package(self):
        releases = [ReleaseRecord("p", f"1.{i}.0", datetime(2020, 1, 1 + i)) for i in range(5)]
        releases.append(ReleaseRecord("q", "1.0.0", datetime(2020, 1, 2)))
        releases.append(ReleaseRecord("q", "1.1.0", datetime(2020, 1, 9)))
        d = Dataset(
            packages={PackageRecord("p", "x"), PackageRecord("q", "x")},
            releases=releases,
            dependencies=[],
            cutoff=datetime(2020, 3, 1),
        )
        # p: 4 updates, q: 1 update. Narrowing the window to [Jan 3, Jan 9)
        # leaves p as the single active package.
        result = update_inequality(d, datetime(2020, 1, 3), datetime(2020, 2, 1))
        assert result.counts == {"p": 3, "q": 1}
        result_p_only = update_inequality(d, datetime(2020, 1, 3), datetime(2020, 1, 9))
        assert set(result_p_only.counts) == {"p"}

    def test_no_active_packages_rejected(self, tiny):
        with pytest.raises(ValueError, match="active"):
            update_inequality(tiny, datetime(2018, 1, 1), datetime(2019, 1, 1))

    def test_normalized_gini_one_when_one_holder(self):
        releases = [
            ReleaseRecord("p", "1.0.0", datetime(2020, 1, 1)),
            ReleaseRecord("p", "1.1.0", datetime(2020, 1, 5)),
            ReleaseRecord("p", "1.2.0", datetime(2020, 1, 9)),
            ReleaseRecord("q", "1.0.0", datetime(2020, 1, 2)),
            ReleaseRecord("q", "1.1.0", datetime(2020, 1, 20)),
        ]
        d = Dataset(
            packages={PackageRecord("p", "x"), PackageRecord("q", "x")},
            releases=releases,
            dependencies=[],
            cutoff=datetime(2020, 2, 1),
        )
        # q's update is outside the window, so p holds all updates; with
        # one active package only, inequality degenerates to zero.
        result = update_inequality(d, datetime(2020, 1, 3), datetime(2020, 1, 15))
        assert result.counts == {"p": 2}
        assert result.gini == 0.0


class TestUpdatesByAge:
    def test_tiny_all_young(self, tiny):
        hist = updates_by_age(tiny, datetime(2020, 1, 1), datetime(2021, 1, 1))
        assert hist.counts["0-3"] == 2
        assert hist.total == 2
        assert hist.proportions["0-3"] == 1.0

    def test_empty_window(self, tiny):
        hist = updates_by_age(tiny, datetime(2018, 1, 1), datetime(2019, 1, 1))
        assert hist.total == 0

    def test_exact_boundary_goes_to_upper_bin(self):
        first = datetime(2020, 1, 1)
        boundary_age = timedelta(days=3 * DAYS_PER_MONTH)
        d = Dataset(
            packages={PackageRecord("p", "x")},
            releases=[
                ReleaseRecord("p", "1.0.0", first),
                ReleaseRecord("p", "1.1.0", first + boundary_age),
            ],
            dependencies=[],
            cutoff=datetime(2021, 1, 1),
        )
        hist = updates_by_age(d, datetime(2020, 1, 1), datetime(2021, 1, 1))
        assert hist.counts["3-6"] == 1
        assert hist.counts["0-3"] == 0

    def test_proportions_sum_to_one(self, tiny):
        hist = updates_by_age(tiny, datetime(2020, 1, 1), datetime(2021, 1, 1))
        assert sum(hist.proportions.values()) == pytest.approx(1.0)


class TestSurvival:
    def test_tiny_unsplit(self, tiny):
        sample = survival_dataset(tiny)
        assert len(sample) == 7
        events = sorted(t for t, c in sample.observations if not c)
        censored = sorted(t for t, c in sample.observations if c)
        assert events == [31.0, 36.0]
        assert censored == [22.0, 27.0, 46.0, 72.0, 87.0]

    def test_single_release(self):
        sample = survival_dataset(single_package_dataset())
        assert sample.observations == [(51.0, True)]

    def test_tiny_split(self, tiny):
        required, not_required = survival_dataset(tiny, split_by_required=True)
        # a@1.0.0 has no dependents on 2020-01-10 -> not required;
        # a@1.1.0 (2020-02-15) is required through c@1.0.0 -> a.
        assert (36.0, False) in not_required.observations
        assert required.observations == [(46.0, True)]
        assert len(required) + len(not_required) == 7

    def test_one_censored_observation_per_package(self, tiny):
        sample = survival_dataset(tiny)
        n_packages = len({r.package for r in tiny.releases})
        assert sum(1 for _, c in sample.observations if c) == n_packages

    def test_km_on_tiny_is_monotone(self, tiny):
        curve = kaplan_meier(survival_dataset(tiny))
        values = [s for _, s in curve.steps]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_required_status_uses_release_instant(self):
        # q is depended on by p from 2020-02-01; q's first release predates
        # that edge, its second comes after.
        d = Dataset(
            packages={PackageRecord("p", "x"), PackageRecord("q", "x")},
            releases=[
                ReleaseRecord("q", "1.0.0", datetime(2020, 1, 1)),
                ReleaseRecord("p", "1.0.0", datetime(2020, 2, 1)),
                ReleaseRecord("q", "1.1.0", datetime(2020, 3, 1)),
            ],
            dependencies=[DependencyRecord("p", "1.0.0", "q", "*", "runtime")],
            cutoff=datetime(2020, 4, 1),
        )
        required, not_required = survival_dataset(d, split_by_required=True)
        req_durations = sorted(t for t, _ in required.observations)
        notreq_durations = sorted(t for t, _ in not_required.observations)
        assert req_durations == [31.0]  # q@1.1.0 censored at cutoff
        assert notreq_durations == [60.0, 60.0]  # q@1.0.0 event, p@1.0.0 censored

    def test_required_matches_snapshot_in_degree(self):
        # Oracle: a release is required iff its package has an in-edge in
        # the snapshot at the release instant. The random datasets have
        # timestamp ties, self-dependencies, duplicate rows and targets
        # whose first release comes later.
        rng = random.Random(20170401)
        for _ in range(400):
            d = random_release_dataset(rng)
            observations = survival_dataset(d).observations
            expected = {True: [], False: []}
            releases = (
                rel for rels in d.index().releases_by_package.values() for rel in rels
            )
            for rel, obs in zip(releases, observations, strict=True):
                required = build_snapshot(d, rel.timestamp).in_degree(rel.package) > 0
                expected[required].append(obs)
            required, not_required = survival_dataset(d, split_by_required=True)
            assert required.observations == expected[True], d
            assert not_required.observations == expected[False], d

    def test_same_instant_dependency_counts(self):
        # p and q released at the same instant; p -> q is visible to both
        # observations taken at that instant.
        ts = datetime(2020, 1, 15)
        d = Dataset(
            packages={PackageRecord("p", "x"), PackageRecord("q", "x")},
            releases=[
                ReleaseRecord("p", "1.0.0", ts),
                ReleaseRecord("q", "1.0.0", ts),
            ],
            dependencies=[DependencyRecord("p", "1.0.0", "q", "*", "runtime")],
            cutoff=datetime(2020, 2, 1),
        )
        required, not_required = survival_dataset(d, split_by_required=True)
        assert {o.label for o in ()} == set()  # no-op, keeps structure clear
        assert [t for t, _ in required.observations] == [17.0]  # q
        assert [t for t, _ in not_required.observations] == [17.0]  # p


class TestTransitiveRatio:
    def test_tiny_april(self, tiny):
        series = transitive_ratio_series(tiny, (2020, 4), (2020, 4))
        assert series.points == [((2020, 4), 1.5)]

    def test_single_edge(self):
        d = Dataset(
            packages={PackageRecord("p", "x"), PackageRecord("q", "x")},
            releases=[
                ReleaseRecord("p", "1.0.0", datetime(2020, 1, 1)),
                ReleaseRecord("q", "1.0.0", datetime(2020, 1, 2)),
            ],
            dependencies=[DependencyRecord("p", "1.0.0", "q", "*", "runtime")],
            cutoff=datetime(2020, 2, 1),
        )
        series = transitive_ratio_series(d, (2020, 2), (2020, 2))
        assert series.points == [((2020, 2), 1.0)]

    def test_chain(self):
        d = Dataset(
            packages={PackageRecord(n, "x") for n in "xyz"},
            releases=[
                ReleaseRecord("x", "1.0.0", datetime(2020, 1, 1)),
                ReleaseRecord("y", "1.0.0", datetime(2020, 1, 2)),
                ReleaseRecord("z", "1.0.0", datetime(2020, 1, 3)),
            ],
            dependencies=[
                DependencyRecord("x", "1.0.0", "y", "*", "runtime"),
                DependencyRecord("y", "1.0.0", "z", "*", "runtime"),
            ],
            cutoff=datetime(2020, 2, 1),
        )
        series = transitive_ratio_series(d, (2020, 2), (2020, 2))
        assert series.points == [((2020, 2), 1.5)]

    def test_ratio_at_least_one(self, tiny):
        series = transitive_ratio_series(tiny, (2020, 1), (2020, 4))
        assert all(v >= 1.0 for _, v in series.points)

    def test_edgeless_months_omitted(self, tiny):
        series = transitive_ratio_series(tiny, (2020, 1), (2020, 2))
        assert series.points == []


class TestDepthDistribution:
    def test_tiny(self, tiny):
        g = build_snapshot(tiny, TINY_CUTOFF)
        assert depth_distribution(g) == {2: 1}

    def test_edgeless(self):
        assert depth_distribution(make_graph(["x", "y"], [])) == {}


class TestIndexSeries:
    def test_changeability_tiny(self, tiny):
        series = index_series(tiny, (2020, 2), (2020, 4), "changeability")
        assert series.values() == [0.0, 1.0, 1.0]

    def test_p_impact_tiny(self, tiny):
        series = index_series(tiny, (2020, 4), (2020, 4), "p_impact", parameter=50)
        assert series.values() == [1.0]

    def test_reusability_tiny(self, tiny):
        series = index_series(tiny, (2020, 4), (2020, 4), "reusability")
        assert series.values() == [1.0]

    def test_unknown_index(self, tiny):
        with pytest.raises(ValueError, match="unknown index"):
            index_series(tiny, (2020, 2), (2020, 4), "verbosity")


class TestScanAndParallel:
    def test_scan_matches_individual_series(self, tiny):
        scan = ecosystem_scan(tiny, (2020, 1), (2020, 4), p_percent=50)
        packages, deps = growth_series(tiny, (2020, 1), (2020, 4))
        assert [m.n_packages for m in scan] == [int(v) for v in packages.values()]
        assert [m.n_dependencies for m in scan] == [int(v) for v in deps.values()]
        chg = index_series(tiny, (2020, 1), (2020, 4), "changeability")
        assert [m.changeability for m in scan] == [int(v) for v in chg.values()]
        imp = index_series(tiny, (2020, 1), (2020, 4), "p_impact", parameter=50)
        assert [m.p_impact for m in scan] == [int(v) for v in imp.values()]

    def test_parallel_identical_to_serial(self):
        cfg = GeneratorConfig(
            n_packages=300, months=12, seed=99, mean_deps=2.0, update_rate=0.2
        )
        d = generate(cfg)
        drivers = [
            ecosystem_scan,
            transitive_ratio_series,
            growth_series,
            dependency_ratio_series,
            partial(index_series, which="reusability"),
            partial(index_series, which="p_impact"),
        ]
        for driver in drivers:
            serial = driver(d, (2015, 1), (2016, 1), jobs=1)
            assert driver(d, (2015, 1), (2016, 1), jobs=4) == serial, driver

    def test_pool_capped_at_month_count(self, monkeypatch, tiny):
        started = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs, **kwargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(evolution, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(evolution, "_DATASET", None)
        packages, _ = growth_series(tiny, (2020, 3), (2020, 4), jobs=64)
        assert started == [2]
        assert packages.values() == [4.0, 5.0]

from __future__ import annotations

import random
from datetime import datetime

import pytest

from depnet.indices import (
    changeability_index,
    h_index,
    p_impact_index,
    reusability_index,
    update_counts_in_window,
)
from depnet.ingest import Dataset, PackageRecord, ReleaseRecord
from depnet.snapshot import build_snapshot

from conftest import make_graph, random_graph

TINY_CUTOFF = datetime(2020, 4, 1)


def h_index_sorted_scan(counts):
    """Sort-descending-and-scan oracle."""
    best = 0
    for i, c in enumerate(sorted(counts, reverse=True), start=1):
        if c >= i:
            best = i
        else:
            break
    return best


class TestHIndex:
    def test_empty(self):
        assert h_index([]) == 0

    def test_examples(self):
        assert h_index([5, 3, 2, 1]) == 2
        assert h_index([1, 1, 1]) == 1

    def test_matches_oracle_on_random_vectors(self):
        rng = random.Random(1000)
        for _ in range(1000):
            counts = [rng.randint(0, 1000) for _ in range(rng.randint(0, 200))]
            assert h_index(counts) == h_index_sorted_scan(counts)

    def test_bounds_and_monotonicity(self):
        rng = random.Random(55)
        for _ in range(200):
            counts = [rng.randint(0, 50) for _ in range(rng.randint(0, 60))]
            h = h_index(counts)
            assert h <= min(len(counts), max(counts, default=0))
            assert h_index(counts + [rng.randint(0, 50)]) >= h

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h_index([1, -2])


class TestChangeability:
    def test_tiny_march_window(self, tiny):
        report = changeability_index(tiny, datetime(2020, 3, 31), 30)
        assert report.value == 1
        assert report.index_name == "changeability"
        assert report.parameter == 30.0
        assert report.ecosystem == "tiny"

    def test_tiny_january_no_updates(self, tiny):
        assert changeability_index(tiny, datetime(2020, 1, 31), 30).value == 0

    def test_before_history(self, tiny):
        assert changeability_index(tiny, datetime(2019, 6, 1), 30).value == 0

    def test_monotone_in_window_length(self, tiny):
        t = datetime(2020, 3, 31)
        values = [changeability_index(tiny, t, w).value for w in (7, 30, 90)]
        assert values == sorted(values)

    def test_invalid_window(self, tiny):
        with pytest.raises(ValueError):
            changeability_index(tiny, TINY_CUTOFF, 0)

    def test_window_past_the_earliest_instant(self, tiny):
        # A window that starts before datetime.min counts every update up
        # to t, as one reaching back to the first release does.
        t = datetime(2020, 3, 31)
        full = changeability_index(tiny, t, (t - datetime(1900, 1, 1)).days).value
        assert changeability_index(tiny, t, 999_999_999).value == full == 1
        assert changeability_index(tiny, datetime(1, 1, 15), 30).value == 0
        with pytest.raises(ValueError, match="after the dataset cutoff"):
            changeability_index(tiny, datetime(2020, 4, 2), 999_999_999)

    def test_update_at_the_earliest_instant_counts(self):
        # Two updates of one package at datetime.min itself, after its
        # first release there.
        earliest = datetime.min
        d = Dataset(
            packages={PackageRecord("a", "default")},
            releases=[ReleaseRecord("a", v, earliest) for v in ("1.0", "1.1", "1.2")],
            dependencies=[],
            cutoff=datetime(1, 2, 1),
        )
        assert update_counts_in_window(d, datetime(1, 1, 2), 30) == {"a": 2}
        assert changeability_index(d, datetime(1, 1, 2), 10**6).value == 1


class TestReusability:
    def test_tiny(self, tiny):
        g = build_snapshot(tiny, TINY_CUTOFF)
        report = reusability_index(g)
        assert report.value == 1
        assert report.index_name == "reusability"

    def test_edgeless(self):
        assert reusability_index(make_graph(["x", "y"], [])).value == 0

    def test_star_and_double_hub(self):
        star = make_graph(
            ["hub", "s1", "s2", "s3"],
            [("s1", "hub"), ("s2", "hub"), ("s3", "hub")],
        )
        assert reusability_index(star).value == 1
        double = make_graph(
            ["h1", "h2", "s1", "s2"],
            [("s1", "h1"), ("s2", "h1"), ("s1", "h2"), ("s2", "h2")],
        )
        assert reusability_index(double).value == 2

    def test_bounded_by_required_count(self):
        rng = random.Random(77)
        for _ in range(50):
            nodes, edges = random_graph(rng, max_nodes=30)
            g = make_graph(nodes, edges)
            required = {t for _, t in g.edges}
            assert reusability_index(g).value <= len(required)

    def test_matches_h_index_of_in_degree_counts(self):
        rng = random.Random(78)
        for _ in range(100):
            nodes, edges = random_graph(rng)
            g = make_graph(nodes, edges)
            expected = h_index(g.in_degree_counts().values())
            assert reusability_index(g).value == expected

    def test_transitive_variant(self, tiny):
        g = build_snapshot(tiny, TINY_CUTOFF)
        # Transitive dependent counts on TINY: b:3, a:2, c:1 -> h = 2.
        assert reusability_index(g, transitive=True).value == 2
        assert reusability_index(g).value == 1


class TestPImpact:
    def test_tiny_50(self, tiny):
        g = build_snapshot(tiny, TINY_CUTOFF)
        report = p_impact_index(g, 50)
        assert report.value == 1
        assert report.parameter == 50

    def test_tiny_80_empty(self, tiny):
        g = build_snapshot(tiny, TINY_CUTOFF)
        assert p_impact_index(g, 80).value == 0

    def test_tiny_5_counts_all_required(self, tiny):
        g = build_snapshot(tiny, TINY_CUTOFF)
        assert p_impact_index(g, 5).value == 3

    def test_monotone_non_increasing_in_p(self):
        rng = random.Random(3000)
        for _ in range(100):
            nodes, edges = random_graph(rng, max_nodes=40)
            g = make_graph(nodes, edges)
            values = [p_impact_index(g, p).value for p in (1, 2, 5, 10, 20)]
            assert values == sorted(values, reverse=True)

    def test_invalid_p(self, tiny):
        g = build_snapshot(tiny, TINY_CUTOFF)
        for p in (0, -5, 101):
            with pytest.raises(ValueError):
                p_impact_index(g, p)

    def test_empty_graph_is_zero(self):
        # No package reaches any share of none, as in the month series.
        g = make_graph([], [])
        assert p_impact_index(g, 5).value == 0
        assert p_impact_index(g, 5, dependent_counts={}).value == 0


class TestRelabelInvariance:
    def test_indices_invariant_under_renaming(self, tiny):
        rng = random.Random(8)
        for _ in range(10):
            nodes, edges = random_graph(rng, max_nodes=25)
            g = make_graph(nodes, edges)
            mapping = {n: f"renamed-{i}" for i, n in enumerate(reversed(nodes))}
            g2 = make_graph(
                [mapping[n] for n in nodes],
                [(mapping[s], mapping[t]) for s, t in edges],
            )
            assert reusability_index(g).value == reusability_index(g2).value
            if nodes:
                assert p_impact_index(g, 10).value == p_impact_index(g2, 10).value

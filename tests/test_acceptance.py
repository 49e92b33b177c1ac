"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The large-scale performance criterion generates a
100k-package fixture and takes a few minutes; deselect it with
``-m 'not perf'`` during development.
"""

from __future__ import annotations

import math
import os
import random
import resource
import time
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path

import pytest

from depnet.evolution import ecosystem_scan, transitive_ratio_series, update_distribution
from depnet.fixtures import GeneratorConfig, generate, tiny_dataset
from depnet.graphops import (
    connected_packages,
    dependency_depth,
    top_level_packages,
    transitive_dependencies,
    transitive_dependents,
    weakly_connected_components,
)
from depnet.indices import changeability_index, h_index, p_impact_index, reusability_index
from depnet.ingest import load_dataset_dir
from depnet.snapshot import build_snapshot, monthly_snapshots
from depnet.stats import (
    SurvivalSample,
    fit_exponential,
    fit_linear,
    gini,
    kaplan_meier,
    log_rank,
    normalized_gini,
)

from conftest import make_graph, random_graph
from test_graphops import UnionFind, closure_matrix
from test_indices import h_index_sorted_scan
from test_stats import gini_pairwise


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


TINY_CUTOFF = datetime(2020, 4, 1)

# Perf fixture: 100k packages over 60 months, ~471k dependency rows.
PERF_CFG = GeneratorConfig(
    n_packages=100_000,
    months=60,
    seed=20170401,
    attachment_bias=1.0,
    mean_deps=2.5,
    update_rate=0.03,
)
# Regression baseline measured once at the fixed seed.
PERF_IN_DEGREE_GINI = 0.8513781112328933


def test_tiny_end_to_end():
    with criterion("tiny-end-to-end"):
        start = time.perf_counter()
        tiny = tiny_dataset()

        series = monthly_snapshots(tiny, (2020, 2), (2020, 4))
        assert [(g.n_nodes, g.n_edges) for g in series] == [(3, 0), (4, 2), (5, 4)]

        g = build_snapshot(tiny, TINY_CUTOFF)
        assert top_level_packages(g) == {"d"}
        assert dependency_depth(g, "d") == 2
        assert len(connected_packages(g)) / g.n_nodes == 0.8
        assert p_impact_index(g, 50).value == 1
        assert reusability_index(g).value == 1
        assert changeability_index(tiny, datetime(2020, 3, 31), 30).value == 1

        bins = update_distribution(tiny, TINY_CUTOFF)
        assert (bins.never, bins.low, bins.high) == (3, 2, 0)

        ratio = transitive_ratio_series(tiny, (2020, 4), (2020, 4))
        assert ratio.points == [((2020, 4), 1.5)]

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"TINY end-to-end took {elapsed:.2f}s"


def test_closure_oracle():
    with criterion("closure-oracle"):
        start = time.perf_counter()
        rng = random.Random(987654321)
        for _ in range(500):
            nodes, edges = random_graph(rng, max_nodes=50, density=0.3)
            g = make_graph(nodes, edges)
            idx, reach = closure_matrix(nodes, edges)
            for p in nodes:
                expected = {q for q in nodes if reach[idx[p], idx[q]] and q != p}
                assert transitive_dependencies(g, p) == expected
                expected_rev = {q for q in nodes if reach[idx[q], idx[p]] and q != p}
                assert transitive_dependents(g, p) == expected_rev

            uf = UnionFind(nodes)
            for s, t in edges:
                uf.union(s, t)
            expected_parts: dict[str, set[str]] = {}
            for n in nodes:
                expected_parts.setdefault(uf.find(n), set()).add(n)
            got = {frozenset(c) for c in weakly_connected_components(g).components}
            assert got == {frozenset(c) for c in expected_parts.values()}
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"closure oracle took {elapsed:.2f}s"


def test_h_index_oracle():
    with criterion("h-index-oracle"):
        start = time.perf_counter()
        rng = random.Random(31337)
        for _ in range(1000):
            counts = [rng.randint(0, 1000) for _ in range(rng.randint(0, 200))]
            assert h_index(counts) == h_index_sorted_scan(counts)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"h-index oracle took {elapsed:.2f}s"


def test_gini_criteria():
    with criterion("gini"):
        rng = random.Random(5150)
        for n in (2, 3, 7, 50, 211):
            value = rng.uniform(0.5, 100.0)
            assert gini([value] * n) == pytest.approx(0.0, abs=1e-12)
            single = [0.0] * (n - 1) + [value]
            assert gini(single) == pytest.approx(1 - 1 / n, abs=1e-12)
            assert normalized_gini(single) == pytest.approx(1.0, abs=1e-12)

        for _ in range(200):
            values = [rng.uniform(0, 1000) for _ in range(rng.randint(1, 100))]
            assert gini(values) == pytest.approx(gini_pairwise(values), abs=1e-9)

        values = [rng.uniform(0, 50) for _ in range(40)]
        base = gini(values)
        assert gini([v * 123.5 for v in values]) == pytest.approx(base, abs=1e-12)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(base, abs=1e-12)


def test_kaplan_meier_criteria():
    with criterion("kaplan-meier"):
        rng = random.Random(777)
        for _ in range(60):
            durations = [rng.randint(1, 60) for _ in range(rng.randint(1, 50))]
            curve = kaplan_meier(SurvivalSample([(t, False) for t in durations]))
            n = len(durations)
            for t, s in curve.steps:
                assert s == pytest.approx(
                    sum(1 for x in durations if x > t) / n, abs=1e-12
                )

        curve = kaplan_meier(SurvivalSample([(2, False), (4, False), (5, True)]))
        values = dict(curve.steps)
        assert values[2] == pytest.approx(2 / 3)
        assert values[4] == pytest.approx(1 / 3)
        assert values[5] == pytest.approx(1 / 3)

        for _ in range(200):
            obs = [
                (rng.randint(0, 80), rng.random() < 0.35)
                for _ in range(rng.randint(1, 70))
            ]
            steps = kaplan_meier(SurvivalSample(obs)).steps
            assert all(a[1] >= b[1] for a, b in zip(steps, steps[1:]))


def test_log_rank_criteria():
    with criterion("log-rank"):
        obs = [(float(t), t % 3 == 0) for t in range(1, 40)]
        result = log_rank(SurvivalSample(list(obs)), SurvivalSample(list(obs)), 0.01)
        assert result.statistic < 1e-9
        assert not result.significant

        rng = random.Random(20230501)
        fast = SurvivalSample([(rng.expovariate(10.0), False) for _ in range(200)])
        slow = SurvivalSample([(rng.expovariate(1.0), False) for _ in range(200)])
        result = log_rank(slow, fast, alpha=0.01)
        assert result.significant
        assert result.statistic > result.critical_value


def test_regression_criteria():
    with criterion("regression"):
        linear_points = [(t, 3.5 * t + 2.0) for t in range(10)]
        assert fit_linear(linear_points).r_squared == pytest.approx(1.0, abs=1e-9)

        exp_points = [(t, 1.5 * math.exp(0.6 * t)) for t in range(10)]
        exp_fit = fit_exponential(exp_points)
        assert exp_fit.r_squared == pytest.approx(1.0, abs=1e-6)

        lin_fit = fit_linear(exp_points)
        assert exp_fit.r_squared > lin_fit.r_squared


def test_monotonicity_criteria():
    with criterion("monotonicity"):
        rng = random.Random(1618)
        for _ in range(100):
            nodes, edges = random_graph(rng, max_nodes=40)
            g = make_graph(nodes, edges)
            values = [p_impact_index(g, p).value for p in (1, 2, 5, 10, 20)]
            assert values == sorted(values, reverse=True)

        d = generate(GeneratorConfig(n_packages=500, months=18, seed=11, update_rate=0.3))
        months = [(2015, 6), (2015, 12), (2016, 6)]
        for month in months:
            t = datetime(month[0], month[1], 1)
            values = [changeability_index(d, t, w).value for w in (7, 30, 90)]
            assert values == sorted(values)


@pytest.mark.perf
def test_performance_at_scale():
    with criterion("performance-100k"):
        gen_start = time.perf_counter()
        d = generate(PERF_CFG)
        gen_elapsed = time.perf_counter() - gen_start
        assert len(d.packages) == 100_000
        assert 400_000 <= len(d.dependencies) <= 600_000

        first = (2015, 1)
        last = (2020, 1)

        # Full monthly snapshot series + per-month transitive-dependent
        # counts + all three index series, in one scan per month. The
        # single-worker run must fit the budget on its own, which bounds
        # any multi-core run from above.
        start = time.perf_counter()
        serial = ecosystem_scan(d, first, last, p_percent=5.0, window_days=30, jobs=1)
        serial_elapsed = time.perf_counter() - start
        assert serial_elapsed < 120.0, f"scan took {serial_elapsed:.1f}s"

        start = time.perf_counter()
        parallel = ecosystem_scan(d, first, last, p_percent=5.0, window_days=30, jobs=4)
        parallel_elapsed = time.perf_counter() - start
        assert parallel == serial

        assert serial[-1].n_packages == 100_000
        assert serial[-1].p_impact > 0

        # Generator regression baseline: heavy-tailed in-degrees.
        g = build_snapshot(d, d.cutoff)
        in_counts: dict[str, int] = {}
        for p in g.latest:
            for q in g.out_neighbors(p):
                in_counts[q] = in_counts.get(q, 0) + 1
        degrees = [in_counts.get(p, 0) for p in g.latest]
        observed = normalized_gini(degrees)
        assert observed > 0.5
        assert observed == pytest.approx(PERF_IN_DEGREE_GINI, rel=1e-9)

        max_rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        max_rss_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        for label, kb in (("self", max_rss_self), ("worker", max_rss_child)):
            assert kb * 1024 < 4 * 1024**3, f"{label} peak RSS {kb} kB exceeds 4 GB"

        print(
            f"\n  generate={gen_elapsed:.1f}s scan(jobs=1)={serial_elapsed:.1f}s "
            f"scan(jobs=4)={parallel_elapsed:.1f}s "
            f"rss self={max_rss_self / 1e6:.2f}GB worker={max_rss_child / 1e6:.2f}GB"
        )


@pytest.mark.skipif(
    "DEPNET_LIBRARIESIO_DIR" not in os.environ,
    reason="optional: set DEPNET_LIBRARIESIO_DIR to a directory of per-ecosystem "
    "CSV datasets converted from a libraries.io 2017 dump",
)
def test_libraries_io_spot_check():
    """Optional large-data check against published 2017 reference counts.

    Expects ``$DEPNET_LIBRARIESIO_DIR/cargo/{packages,releases,dependencies}.csv``
    in this package's ingest schema, cut at 2017-04-01.
    """
    with criterion("libraries-io-spot-check"):
        root = Path(os.environ["DEPNET_LIBRARIESIO_DIR"])
        d = load_dataset_dir(root / "cargo", cutoff=datetime(2017, 4, 1), ecosystem="cargo")
        reference = {"packages": 9_000, "releases": 48_000, "dependencies": 150_000}
        observed = {
            "packages": len(d.packages),
            "releases": len(d.releases),
            "dependencies": len(d.dependencies),
        }
        for key, expected in reference.items():
            assert abs(observed[key] - expected) / expected <= 0.10, (key, observed[key])

        from depnet.ingest import filter_dependencies

        filtered = filter_dependencies(d)
        g = build_snapshot(filtered, datetime(2017, 1, 1))
        impact = p_impact_index(g, 5.0).value
        assert abs(impact - 99) / 99 <= 0.15, impact

"""Longitudinal drivers: every metric series swept over monthly snapshots.

Months are mutually independent, so the heavy series (anything touching
the transitive closure) can fan out over worker processes; results are
merged back in month order and are bit-identical regardless of the worker
count. Forked workers share the parsed dataset read-only.
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import partial
from itertools import accumulate
from typing import Callable, Optional

from .graphops import (
    dependency_depths,
    top_level_packages,
    transitive_dependent_counts,
)
from .indices import h_index, p_impact_index, reusability_index, update_counts_in_window
from .ingest import Dataset
from .snapshot import SnapshotGraph, build_snapshot, check_instant, checked_months
from .stats import LorenzCurve, SurvivalSample, gini, lorenz_points, normalized_gini
from .timeutil import (
    DAYS_PER_MONTH,
    Month,
    days_between,
    month_of,
    month_start,
)


@dataclass
class TimeSeries:
    """Named sequence of (month, value) points, strictly increasing in time."""

    name: str
    points: list[tuple[Month, float]]

    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class UpdateBins:
    """Packages split by lifetime update count: none, 1-4, or 5 and more."""

    never: int
    low: int
    high: int
    total: int


AGE_BIN_LABELS = ("0-3", "3-6", "6-12", "12-24", "24+")
# timedelta bounds compare in exact integer microseconds, so an age of
# exactly m mean-months lands in the upper (half-open) bin.
_AGE_BOUNDS = tuple(timedelta(days=m * DAYS_PER_MONTH) for m in (3, 6, 12, 24))


@dataclass
class AgeHistogram:
    """Update counts bucketed by the age of the updated package, in months."""

    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def proportions(self) -> dict[str, float]:
        total = self.total
        if total == 0:
            return {label: 0.0 for label in self.counts}
        return {label: count / total for label, count in self.counts.items()}


@dataclass
class UpdateInequality:
    """Inverted Lorenz curve and Gini over update counts of active packages."""

    lorenz: LorenzCurve
    gini: float
    normalized_gini: float
    counts: dict[str, int]


@dataclass(frozen=True, slots=True)
class MonthlyMetrics:
    """One month of the combined scan: sizes, closure totals, indices."""

    month: Month
    n_packages: int
    n_dependencies: int
    n_transitive: int
    changeability: int
    reusability: int
    p_impact: int


# ---------------------------------------------------------------------------
# Parallel month fan-out

_DATASET: Optional[Dataset] = None  # the dataset, in each forked worker


def _share_dataset(d: Dataset) -> None:
    global _DATASET
    _DATASET = d


def _measure_month(measure: Callable[[SnapshotGraph], object], month: Month):
    return measure(build_snapshot(_DATASET, month_start(month)))


def _map_months(
    d: Dataset, months: list[Month], measure: Callable[[SnapshotGraph], object], jobs: int
) -> list:
    """``measure`` of the snapshot at the start of each month, in month order.

    With ``jobs`` > 1 the months fan out over forked workers, at most one
    per month, that inherit ``d``; ``measure`` then has to pickle, so it is
    a module-level function or a ``functools.partial`` of one.
    """
    if jobs > 1 and len(months) > 1 and "fork" in multiprocessing.get_all_start_methods():
        d.index()  # build once in the parent so forked workers share it
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(months)), mp_context=ctx,
            initializer=_share_dataset, initargs=(d,),
        ) as pool:
            return list(pool.map(partial(_measure_month, measure), months, chunksize=1))
    return [measure(build_snapshot(d, month_start(m))) for m in months]


def _sizes(g: SnapshotGraph) -> tuple[int, int]:
    return g.n_nodes, g.n_edges


def _transitive_total(g: SnapshotGraph) -> tuple[int, int]:
    return sum(transitive_dependent_counts(g).values()), g.n_edges


def _reusability(g: SnapshotGraph) -> int:
    return reusability_index(g).value


def _p_impact(
    g: SnapshotGraph, p_percent: float, dependent_counts: Optional[dict[str, int]] = None
) -> int:
    if g.n_nodes == 0:
        return 0
    return p_impact_index(g, p_percent, dependent_counts=dependent_counts).value


def _graph_metrics(g: SnapshotGraph, p_percent: float) -> tuple[int, int, int, int, int]:
    # One batch closure shared by the transitive total and p_impact.
    dep_counts = transitive_dependent_counts(g)
    return (
        g.n_nodes,
        g.n_edges,
        sum(dep_counts.values()),
        _reusability(g),
        _p_impact(g, p_percent, dep_counts),
    )


def _changeability(d: Dataset, months: list[Month], window_days: int) -> list[int]:
    # Computed from the dataset alone, so no snapshot and no worker needed.
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    return [
        h_index(update_counts_in_window(d, month_start(m), window_days).values())
        for m in months
    ]


# ---------------------------------------------------------------------------
# Series over snapshots


def growth_series(
    d: Dataset, first: Month, last: Month, jobs: int = 1
) -> tuple[TimeSeries, TimeSeries]:
    """Monthly node and edge counts of the dependency network."""
    months = checked_months(d, first, last)
    sizes = _map_months(d, months, _sizes, jobs)
    packages = TimeSeries("packages", [(m, float(n)) for m, (n, _) in zip(months, sizes)])
    dependencies = TimeSeries(
        "dependencies", [(m, float(e)) for m, (_, e) in zip(months, sizes)]
    )
    return packages, dependencies


def dependency_ratio_series(d: Dataset, first: Month, last: Month, jobs: int = 1) -> TimeSeries:
    """Edges per node by month; months with no packages emit no point."""
    months = checked_months(d, first, last)
    sizes = _map_months(d, months, _sizes, jobs)
    points = [(m, e / n) for m, (n, e) in zip(months, sizes) if n > 0]
    return TimeSeries("dependency_ratio", points)


def transitive_ratio_series(d: Dataset, first: Month, last: Month, jobs: int = 1) -> TimeSeries:
    """Total transitive over total direct dependencies by month.

    Months without any direct dependency emit no point. The numerator sums
    |transitive dependencies| over all packages, which by closure symmetry
    equals the summed transitive dependent counts actually computed.
    """
    months = checked_months(d, first, last)
    results = _map_months(d, months, _transitive_total, jobs)
    points = [
        (m, total / edges) for m, (total, edges) in zip(months, results) if edges > 0
    ]
    return TimeSeries("transitive_ratio", points)


def index_series(
    d: Dataset,
    first: Month,
    last: Month,
    which: str,
    parameter: Optional[float] = None,
    jobs: int = 1,
) -> TimeSeries:
    """Evaluate one of the ecosystem indices at every month boundary.

    ``parameter`` is the window length in days for changeability
    (default 30) and the percentage threshold for p_impact (default 5).
    Months where the network is empty yield 0.
    """
    months = checked_months(d, first, last)
    if which == "changeability":
        window_days = int(parameter) if parameter is not None else 30
        values = _changeability(d, months, window_days)
    elif which == "reusability":
        values = _map_months(d, months, _reusability, jobs)
    elif which == "p_impact":
        p_percent = float(parameter) if parameter is not None else 5.0
        values = _map_months(d, months, partial(_p_impact, p_percent=p_percent), jobs)
    else:
        raise ValueError(f"unknown index name: {which!r}")
    return TimeSeries(which, [(m, float(v)) for m, v in zip(months, values)])


def ecosystem_scan(
    d: Dataset,
    first: Month,
    last: Month,
    p_percent: float = 5.0,
    window_days: int = 30,
    jobs: int = 1,
) -> list[MonthlyMetrics]:
    """Single pass computing sizes, closure totals, and all three indices
    per month, sharing one snapshot and one batch closure per month."""
    months = checked_months(d, first, last)
    graph = _map_months(d, months, partial(_graph_metrics, p_percent=p_percent), jobs)
    changeability = _changeability(d, months, window_days)
    return [
        MonthlyMetrics(
            month=m,
            n_packages=n,
            n_dependencies=e,
            n_transitive=total,
            changeability=c,
            reusability=r,
            p_impact=p,
        )
        for m, (n, e, total, r, p), c in zip(months, graph, changeability)
    ]


# ---------------------------------------------------------------------------
# Update dynamics


def update_counts_series(
    d: Dataset, first: Month, last: Month, include_first: bool = False
) -> TimeSeries:
    """Number of package updates per calendar month.

    First releases are not updates; ``include_first`` switches to counting
    all releases instead.
    """
    months = checked_months(d, first, last)
    counts: dict[Month, int] = {}
    for ts in d.release_time if include_first else d.index().update_times:
        m = month_of(ts)
        counts[m] = counts.get(m, 0) + 1
    points = [(m, float(counts.get(m, 0))) for m in months]
    return TimeSeries("updates", points)


def update_distribution(d: Dataset, t: datetime) -> UpdateBins:
    """Lifetime update counts at time t, bucketed never / 1-4 / 5+."""
    check_instant(d, t)
    idx = d.index()
    times, offsets = idx.times, idx.offsets
    never = low = high = total = 0
    for lo, hi in zip(offsets, offsets[1:]):
        n_rel = bisect_right(times, t, lo, hi) - lo
        if n_rel == 0:
            continue
        total += 1
        updates = n_rel - 1
        if updates == 0:
            never += 1
        elif updates < 5:
            low += 1
        else:
            high += 1
    return UpdateBins(never=never, low=low, high=high, total=total)


def active_packages(d: Dataset, window_start: datetime, window_end: datetime) -> set[str]:
    """Packages with at least one update in [window_start, window_end)."""
    return {pkg for _, pkg in d.index().updates_during(window_start, window_end)}


def update_inequality(
    d: Dataset, window_start: datetime, window_end: datetime
) -> UpdateInequality:
    """Inequality of update counts across packages active in
    [window_start, window_end)."""
    counts: dict[str, int] = {}
    for _, pkg in d.index().updates_during(window_start, window_end):
        counts[pkg] = counts.get(pkg, 0) + 1
    if not counts:
        raise ValueError("no active packages in the window")
    values = list(counts.values())
    return UpdateInequality(
        lorenz=lorenz_points(values, inverted=True),
        gini=gini(values),
        normalized_gini=normalized_gini(values) if len(values) >= 2 else 0.0,
        counts=counts,
    )


def updates_by_age(
    d: Dataset, window_start: datetime, window_end: datetime
) -> AgeHistogram:
    """Updates in [window_start, window_end) bucketed by package age.

    Age is the time from the package's first release to the update, in
    mean-length months; bins are half-open, so an age exactly on a
    boundary falls in the higher bin.
    """
    idx = d.index()
    counts = {label: 0 for label in AGE_BIN_LABELS}
    for ts, pkg in idx.updates_during(window_start, window_end):
        age = ts - idx.times[idx.offsets[idx.positions[pkg]]]
        bin_idx = bisect_right(_AGE_BOUNDS, age)
        counts[AGE_BIN_LABELS[bin_idx]] += 1
    return AgeHistogram(counts=counts)


# ---------------------------------------------------------------------------
# Release survival


def _required_at_release(d: Dataset) -> list[bool]:
    """Whether each release, in index order, had a direct dependent in the
    network at its own timestamp: ``build_snapshot(d, ts).in_degree(q) > 0``
    for a release of q at ts.

    Release k of package p is p's latest release on [ts_k, ts_{k+1}), the
    last one without end; a successor at the same instant leaves the interval
    empty. A release of q at ts is required iff ts lies in the interval of
    a release of some other package that declares q. q itself exists at
    ts, so that interval carries an edge to q.
    """
    idx = d.index()
    releases, times, offsets = idx.releases, idx.times, idx.offsets
    targets, target_offsets = idx.targets, idx.target_offsets
    spans: dict[int, list[tuple[datetime, datetime]]] = {}
    for p, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        ends = times[lo + 1 : hi] + [datetime.max]
        for j, end in zip(range(lo, hi), ends):
            r = releases[j]
            for q in targets[target_offsets[r] : target_offsets[r + 1]]:
                if q != p:
                    spans.setdefault(q, []).append((times[j], end))
    flags: list[bool] = []
    for q, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        # ts is covered iff the intervals starting at or before it reach
        # past it; an empty interval [s, s) never reaches past any ts >= s.
        found = sorted(spans.get(q, ()))
        starts = [start for start, _ in found]
        reach = list(accumulate((end for _, end in found), max))
        for ts in times[lo:hi]:
            i = bisect_right(starts, ts)
            flags.append(i > 0 and reach[i - 1] > ts)
    return flags


def survival_dataset(d: Dataset, split_by_required: bool = False):
    """Time-to-next-release observations, one per release.

    The duration of a release is the time until the next release of the
    same package; each package's last release is censored at the dataset
    cutoff. Observations come package by package, in the order of each
    package's first release row. With ``split_by_required``, observations
    are divided by whether the package had any direct dependent at the
    release instant, returning (required, not_required) samples; otherwise
    a single sample.
    """
    idx = d.index()
    times, offsets = idx.times, idx.offsets
    observations = []
    for lo, hi in zip(offsets, offsets[1:]):
        for j in range(lo, hi - 1):
            observations.append((days_between(times[j], times[j + 1]), False))
        observations.append((days_between(times[hi - 1], d.cutoff), True))

    if not split_by_required:
        return SurvivalSample(observations=observations, label="all")
    required = SurvivalSample(observations=[], label="required")
    not_required = SurvivalSample(observations=[], label="not_required")
    for obs, flag in zip(observations, _required_at_release(d)):
        (required if flag else not_required).observations.append(obs)
    return required, not_required


# ---------------------------------------------------------------------------
# Depth


def depth_distribution(g: SnapshotGraph) -> dict[int, int]:
    """Dependency-tree depth histogram over top-level packages."""
    hist: dict[int, int] = {}
    for depth in dependency_depths(g, top_level_packages(g)).values():
        hist[depth] = hist.get(depth, 0) + 1
    return hist

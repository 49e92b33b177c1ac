"""Longitudinal drivers: every metric series swept over monthly snapshots.

Growth, the dependency ratio and the required split of survival need only
counts, which they read from the dataset's edge spans without building a
snapshot. For the rest, months are mutually independent, so the heavy
series (anything touching the transitive closure) can fan out over worker
processes; results are merged back in month order and are bit-identical
regardless of the worker count. Forked workers share the parsed dataset
read-only. The closure kernels, the indices, the statistics and the
process pool are imported where they are used, so that a series that
reads only the edge spans does not load them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .ingest import _DAY_US, _OPEN, Dataset, _micros, _month_indices
from .snapshot import (
    SnapshotGraph,
    _edge_spans,
    _release_counts,
    _required_at_release,
    _snapshot_sizes,
    build_snapshot,
    check_instant,
    checked_months,
)
from .timeutil import DAYS_PER_MONTH, Month, month_index, month_start

if TYPE_CHECKING:
    from .stats import LorenzCurve


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
# The bin bounds of m mean-months in whole microseconds, as
# ``timedelta(days=m * DAYS_PER_MONTH)`` rounds them; an age of exactly
# a bound lands in the upper (half-open) bin.
_AGE_BOUNDS_US = np.array([round(m * DAYS_PER_MONTH * _DAY_US) for m in (3, 6, 12, 24)])


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
    """Inverted Lorenz curve and Gini over a dict of counts: the update
    counts of active packages, or the direct dependent counts of required
    ones."""

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
    if jobs > 1 and len(months) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            _edge_spans(d)  # build the index and the table once, for every worker
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(months)), mp_context=multiprocessing.get_context("fork"),
                initializer=_share_dataset, initargs=(d,),
            ) as pool:
                return list(pool.map(partial(_measure_month, measure), months, chunksize=1))
    return [measure(build_snapshot(d, month_start(m))) for m in months]


def _reusability(g: SnapshotGraph) -> int:
    from .indices import reusability_index

    return reusability_index(g).value


def _graph_metrics(g: SnapshotGraph, p_percent: float = 5.0) -> tuple[int, int, int, int, int]:
    # One batch closure over the graph's edge arrays, read as an array of
    # sizes, serves the transitive total and p_impact of every month series;
    # nothing here builds the graph's adjacency rows.
    from .graphops import _closure_sizes, _edge_list
    from .indices import _p_impact_count

    sizes = _closure_sizes(*_edge_list(g), reverse=True)
    return (
        g.n_nodes,
        g.n_edges,
        int(sizes.sum()),
        _reusability(g),
        _p_impact_count(sizes, p_percent, g.n_nodes),
    )


def _changeability(d: Dataset, months: list[Month], window_days: int) -> list[int]:
    # Computed from the dataset alone, so no snapshot and no worker needed.
    from .indices import changeability_index

    return [changeability_index(d, month_start(m), window_days).value for m in months]


# ---------------------------------------------------------------------------
# Series over snapshots


def growth_series(d: Dataset, first: Month, last: Month) -> tuple[TimeSeries, TimeSeries]:
    """Monthly node and edge counts of the dependency network: those of
    the snapshot at each month start, read from the dataset's edge spans
    for all months at once, without building the snapshots."""
    months = checked_months(d, first, last)
    nodes, edges = _snapshot_sizes(d, [month_start(m) for m in months])
    packages = TimeSeries("packages", [(m, float(n)) for m, n in zip(months, nodes)])
    dependencies = TimeSeries("dependencies", [(m, float(e)) for m, e in zip(months, edges)])
    return packages, dependencies


def dependency_ratio_series(d: Dataset, first: Month, last: Month) -> TimeSeries:
    """Edges per node by month; months with no packages emit no point."""
    months = checked_months(d, first, last)
    nodes, edges = _snapshot_sizes(d, [month_start(m) for m in months])
    points = [(m, e / n) for m, n, e in zip(months, nodes, edges) if n > 0]
    return TimeSeries("dependency_ratio", points)


def transitive_ratio_series(d: Dataset, first: Month, last: Month, jobs: int = 1) -> TimeSeries:
    """Total transitive over total direct dependencies by month.

    Months without any direct dependency emit no point. The numerator sums
    |transitive dependencies| over all packages, which by closure symmetry
    equals the summed transitive dependent counts actually computed.
    """
    months = checked_months(d, first, last)
    results = _map_months(d, months, _graph_metrics, jobs)
    points = [
        (m, total / edges) for m, (_, edges, total, *_) in zip(months, results) if edges > 0
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
    from .indices import _check_p_percent

    months = checked_months(d, first, last)
    if which == "changeability":
        window_days = int(parameter) if parameter is not None else 30
        values = _changeability(d, months, window_days)
    elif which == "reusability":
        values = _map_months(d, months, _reusability, jobs)
    elif which == "p_impact":
        p_percent = _check_p_percent(float(parameter) if parameter is not None else 5.0)
        metrics = _map_months(d, months, partial(_graph_metrics, p_percent=p_percent), jobs)
        values = [p_impact for *_, p_impact in metrics]
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
    from .indices import _check_p_percent

    months = checked_months(d, first, last)
    _check_p_percent(p_percent)
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
    times = d.release_time if include_first else d.index().update_times_us
    month = _month_indices(times)
    month -= month_index(first)
    counts = np.bincount(month[(month >= 0) & (month < len(months))], minlength=len(months))
    return TimeSeries("updates", [(m, float(c)) for m, c in zip(months, counts.tolist())])


def update_distribution(d: Dataset, t: datetime) -> UpdateBins:
    """Lifetime update counts at time t, bucketed never / 1-4 / 5+."""
    releases = _release_counts(d, t)
    releases = releases[releases > 0]
    never = int(np.count_nonzero(releases == 1))
    high = int(np.count_nonzero(releases > 5))
    return UpdateBins(never=never, low=len(releases) - never - high, high=high, total=len(releases))


def _updates_during(d: Dataset, start: datetime, end: datetime) -> tuple[np.ndarray, np.ndarray]:
    """The times and positions of the updates in [start, end); ``ValueError``
    when start is after end, or else when end is after the dataset cutoff."""
    if start > end:
        raise ValueError(f"inverted window: {start.isoformat()} > {end.isoformat()}")
    return d.index().updates_during(int(_micros([start])[0]), check_instant(d, end))


def active_packages(d: Dataset, window_start: datetime, window_end: datetime) -> set[str]:
    """Packages with at least one update in [window_start, window_end)."""
    from .indices import _package_counts

    return set(_package_counts(d, _updates_during(d, window_start, window_end)[1]))


def update_inequality(
    d: Dataset, window_start: datetime, window_end: datetime
) -> UpdateInequality:
    """Inequality of update counts across packages active in
    [window_start, window_end)."""
    from .indices import _package_counts

    counts = _package_counts(d, _updates_during(d, window_start, window_end)[1])
    if not counts:
        raise ValueError("no active packages in the window")
    return _inequality(counts)


def _inequality(counts: dict[str, int]) -> UpdateInequality:
    """The inverted Lorenz curve, the Gini and the normalized Gini of the
    values of ``counts``; the normalized Gini is 0.0 below two values."""
    from .stats import gini, lorenz_points, normalized_gini

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
    times, positions = _updates_during(d, window_start, window_end)
    idx = d.index()
    age = times - idx.times_us[idx.offset_array[positions]]
    bins = np.searchsorted(_AGE_BOUNDS_US, age, "right")
    counts = np.bincount(bins, minlength=len(AGE_BIN_LABELS))
    return AgeHistogram(counts=dict(zip(AGE_BIN_LABELS, counts.tolist())))


# ---------------------------------------------------------------------------
# Release survival


def survival_dataset(d: Dataset, split_by_required: bool = False):
    """Time-to-next-release observations, one per release.

    The duration of a release is the time until the next release of the
    same package, in days; each package's last release is censored at the
    dataset cutoff. Observations come package by package, in the order of
    each package's first release row. With ``split_by_required``,
    observations are divided by whether the package had any direct
    dependent in the snapshot at the release instant, returning (required,
    not_required) samples; otherwise a single sample. The split reads the
    dataset's edge spans and builds no snapshot.

    A release's duration ends where its interval in the dataset index ends,
    or at the cutoff for a package's last release, which is censored.

    Durations are differences of the index's int64 microsecond times over
    the microseconds in a day. Both are exact as floats for spans under
    2**53 microseconds (285 years), so each quotient is the correctly
    rounded one that ``days_between`` gives.
    """
    from .stats import SurvivalSample

    idx = d.index()
    durations = (np.minimum(idx.end_us, _micros([d.cutoff])[0]) - idx.times_us) / _DAY_US
    censored = idx.end_us == _OPEN
    if not split_by_required:
        return SurvivalSample(durations, censored, "all")
    flags = _required_at_release(d)
    return (
        SurvivalSample(durations[flags], censored[flags], "required"),
        SurvivalSample(durations[~flags], censored[~flags], "not_required"),
    )


# ---------------------------------------------------------------------------
# Depth


def depth_distribution(g: SnapshotGraph) -> dict[int, int]:
    """Dependency-tree depth histogram over top-level packages."""
    from .graphops import dependency_depths, top_level_packages

    hist: dict[int, int] = {}
    for depth in dependency_depths(g, top_level_packages(g)).values():
        hist[depth] = hist.get(depth, 0) + 1
    return hist

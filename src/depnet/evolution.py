"""Longitudinal drivers: every metric series swept over monthly snapshots.

Months are mutually independent, so the heavy series (anything touching
the transitive closure) can fan out over worker processes; results are
merged back in month order and are bit-identical regardless of the worker
count. Forked workers share the parsed dataset read-only.
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Optional

from .graphops import (
    dependency_depths,
    top_level_packages,
    transitive_dependent_counts,
)
from .indices import h_index, p_impact_index, reusability_index, update_counts_in_window
from .ingest import Dataset, version_sort_key
from .snapshot import SnapshotGraph, build_snapshot
from .stats import LorenzCurve, SurvivalSample, gini, lorenz_points, normalized_gini
from .timeutil import (
    DAYS_PER_MONTH,
    Month,
    days_between,
    format_month,
    iter_months,
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

_SHARED: Optional[tuple] = None


def _pool_entry(month: Month):
    dataset, fn_name, args = _SHARED
    return _MONTH_WORKERS[fn_name](dataset, month, args)


def _map_months(d: Dataset, months: list[Month], fn_name: str, args: tuple, jobs: int) -> list:
    worker = _MONTH_WORKERS[fn_name]
    if jobs <= 1 or len(months) <= 1:
        return [worker(d, m, args) for m in months]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [worker(d, m, args) for m in months]
    d.index()  # build once in the parent so forked workers share it
    global _SHARED
    _SHARED = (d, fn_name, args)
    try:
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            return list(pool.map(_pool_entry, months, chunksize=1))
    finally:
        _SHARED = None


def _size_month(d: Dataset, month: Month, args: tuple):
    g = build_snapshot(d, month_start(month))
    return g.n_nodes, g.n_edges


def _transitive_month(d: Dataset, month: Month, args: tuple):
    g = build_snapshot(d, month_start(month))
    return sum(transitive_dependent_counts(g).values()), g.n_edges


def _reusability_month(d: Dataset, month: Month, args: tuple):
    return reusability_index(build_snapshot(d, month_start(month))).value


def _p_impact_month(d: Dataset, month: Month, args: tuple):
    (p_percent,) = args
    g = build_snapshot(d, month_start(month))
    if g.n_nodes == 0:
        return 0
    return p_impact_index(g, p_percent).value


def _scan_month(d: Dataset, month: Month, args: tuple):
    p_percent, window_days = args
    t = month_start(month)
    g = build_snapshot(d, t)
    dep_counts = transitive_dependent_counts(g)
    if g.n_nodes:
        p_impact = p_impact_index(g, p_percent, dependent_counts=dep_counts).value
    else:
        p_impact = 0
    return MonthlyMetrics(
        month=month,
        n_packages=g.n_nodes,
        n_dependencies=g.n_edges,
        n_transitive=sum(dep_counts.values()),
        changeability=h_index(update_counts_in_window(d, t, window_days).values()),
        reusability=reusability_index(g).value,
        p_impact=p_impact,
    )


_MONTH_WORKERS = {
    "size": _size_month,
    "transitive": _transitive_month,
    "reusability": _reusability_month,
    "p_impact": _p_impact_month,
    "scan": _scan_month,
}


def _month_range(d: Dataset, first: Month, last: Month) -> list[Month]:
    if first > last:
        raise ValueError(
            f"inverted month range: {format_month(first)} > {format_month(last)}"
        )
    if last > month_of(d.cutoff):
        raise ValueError(
            f"month {format_month(last)} is beyond the dataset cutoff "
            f"{d.cutoff.isoformat()}"
        )
    return list(iter_months(first, last))


# ---------------------------------------------------------------------------
# Series over snapshots


def growth_series(
    d: Dataset, first: Month, last: Month, jobs: int = 1
) -> tuple[TimeSeries, TimeSeries]:
    """Monthly node and edge counts of the dependency network."""
    months = _month_range(d, first, last)
    sizes = _map_months(d, months, "size", (), jobs)
    packages = TimeSeries("packages", [(m, float(n)) for m, (n, _) in zip(months, sizes)])
    dependencies = TimeSeries(
        "dependencies", [(m, float(e)) for m, (_, e) in zip(months, sizes)]
    )
    return packages, dependencies


def dependency_ratio_series(d: Dataset, first: Month, last: Month, jobs: int = 1) -> TimeSeries:
    """Edges per node by month; months with no packages emit no point."""
    months = _month_range(d, first, last)
    sizes = _map_months(d, months, "size", (), jobs)
    points = [(m, e / n) for m, (n, e) in zip(months, sizes) if n > 0]
    return TimeSeries("dependency_ratio", points)


def transitive_ratio_series(d: Dataset, first: Month, last: Month, jobs: int = 1) -> TimeSeries:
    """Total transitive over total direct dependencies by month.

    Months without any direct dependency emit no point. The numerator sums
    |transitive dependencies| over all packages, which by closure symmetry
    equals the summed transitive dependent counts actually computed.
    """
    months = _month_range(d, first, last)
    results = _map_months(d, months, "transitive", (), jobs)
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
    months = _month_range(d, first, last)
    if which == "changeability":
        window_days = int(parameter) if parameter is not None else 30
        values = [
            h_index(update_counts_in_window(d, month_start(m), window_days).values())
            for m in months
        ]
    elif which == "reusability":
        values = _map_months(d, months, "reusability", (), jobs)
    elif which == "p_impact":
        p_percent = float(parameter) if parameter is not None else 5.0
        values = _map_months(d, months, "p_impact", (p_percent,), jobs)
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
    months = _month_range(d, first, last)
    return _map_months(d, months, "scan", (p_percent, window_days), jobs)


# ---------------------------------------------------------------------------
# Update dynamics


def update_counts_series(
    d: Dataset, first: Month, last: Month, include_first: bool = False
) -> TimeSeries:
    """Number of package updates per calendar month.

    First releases are not updates; ``include_first`` switches to counting
    all releases instead.
    """
    if first > last:
        raise ValueError("inverted month range")
    idx = d.index()
    counts: dict[Month, int] = {}
    if include_first:
        for rel in d.releases:
            m = month_of(rel.timestamp)
            counts[m] = counts.get(m, 0) + 1
    else:
        for ts, _ in idx.updates_sorted:
            m = month_of(ts)
            counts[m] = counts.get(m, 0) + 1
    points = [(m, float(counts.get(m, 0))) for m in iter_months(first, last)]
    return TimeSeries("updates", points)


def update_distribution(d: Dataset, t: datetime) -> UpdateBins:
    """Lifetime update counts at time t, bucketed never / 1-4 / 5+."""
    if t > d.cutoff:
        raise ValueError(f"instant {t.isoformat()} is after the dataset cutoff")
    idx = d.index()
    never = low = high = total = 0
    for pkg, times in idx.release_times.items():
        n_rel = bisect_right(times, t)
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
    if window_start > window_end:
        raise ValueError("inverted window")
    idx = d.index()
    lo = bisect_left(idx.update_times, window_start)
    hi = bisect_left(idx.update_times, window_end)
    return {pkg for _, pkg in idx.updates_sorted[lo:hi]}


def _update_counts_in_range(d: Dataset, window_start: datetime, window_end: datetime):
    idx = d.index()
    lo = bisect_left(idx.update_times, window_start)
    hi = bisect_left(idx.update_times, window_end)
    counts: dict[str, int] = {}
    for _, pkg in idx.updates_sorted[lo:hi]:
        counts[pkg] = counts.get(pkg, 0) + 1
    return counts


def update_inequality(
    d: Dataset, window_start: datetime, window_end: datetime
) -> UpdateInequality:
    """Inequality of update counts across packages active in the window."""
    if window_start > window_end:
        raise ValueError("inverted window")
    counts = _update_counts_in_range(d, window_start, window_end)
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
    if window_start > window_end:
        raise ValueError("inverted window")
    idx = d.index()
    counts = {label: 0 for label in AGE_BIN_LABELS}
    lo = bisect_left(idx.update_times, window_start)
    hi = bisect_left(idx.update_times, window_end)
    for ts, pkg in idx.updates_sorted[lo:hi]:
        age = ts - idx.first_release[pkg].timestamp
        bin_idx = bisect_right(_AGE_BOUNDS, age)
        counts[AGE_BIN_LABELS[bin_idx]] += 1
    return AgeHistogram(counts=counts)


# ---------------------------------------------------------------------------
# Release survival


def _required_at_release(d: Dataset) -> dict[tuple[str, str], bool]:
    """Whether each release's package had a direct dependent in the network
    at the release's own timestamp.

    Implemented as one chronological sweep maintaining the evolving edge
    set: equivalent to probing build_snapshot at every release instant,
    without rebuilding anything. Releases sharing a timestamp see the
    state after the whole instant has been applied.
    """
    idx = d.index()
    order = sorted(
        d.releases, key=lambda r: (r.timestamp, r.package, version_sort_key(r.version))
    )
    exists: set[str] = set()
    cur_raw: dict[str, set[str]] = {}  # declared targets of current latest
    cur_valid: dict[str, set[str]] = {}  # resolvable, deduped, non-self targets
    in_deg: dict[str, int] = {}
    pending: dict[str, set[str]] = {}  # missing target -> waiting sources
    flags: dict[tuple[str, str], bool] = {}

    def set_latest(rel) -> None:
        pkg = rel.package
        for q in cur_valid.get(pkg, ()):
            in_deg[q] -= 1
        raw = set(idx.targets_by_release.get((pkg, rel.version), ()))
        valid: set[str] = set()
        for q in raw:
            if q == pkg:
                continue
            if q in exists:
                valid.add(q)
                in_deg[q] = in_deg.get(q, 0) + 1
            else:
                pending.setdefault(q, set()).add(pkg)
        cur_raw[pkg] = raw
        cur_valid[pkg] = valid

    i = 0
    n = len(order)
    while i < n:
        j = i
        ts = order[i].timestamp
        while j < n and order[j].timestamp == ts:
            j += 1
        group = order[i:j]
        newly = [r.package for r in group if r.package not in exists]
        exists.update(newly)
        for rel in group:
            set_latest(rel)
        for q in newly:
            for src in pending.pop(q, ()):
                if q in cur_raw.get(src, ()) and src != q and q not in cur_valid[src]:
                    cur_valid[src].add(q)
                    in_deg[q] = in_deg.get(q, 0) + 1
        for rel in group:
            flags[(rel.package, rel.version)] = in_deg.get(rel.package, 0) > 0
        i = j
    return flags


def survival_dataset(d: Dataset, split_by_required: bool = False):
    """Time-to-next-release observations, one per release.

    The duration of a release is the time until the next release of the
    same package; each package's last release is censored at the dataset
    cutoff. With ``split_by_required``, observations are divided by
    whether the package had any direct dependent at the release instant,
    returning (required, not_required) samples; otherwise a single sample.
    """
    idx = d.index()
    if split_by_required:
        flags = _required_at_release(d)
        required = SurvivalSample(observations=[], label="required")
        not_required = SurvivalSample(observations=[], label="not_required")
    else:
        allsample = SurvivalSample(observations=[], label="all")

    for pkg, rels in idx.releases_by_package.items():
        for k, rel in enumerate(rels):
            if k + 1 < len(rels):
                obs = (days_between(rel.timestamp, rels[k + 1].timestamp), False)
            else:
                obs = (days_between(rel.timestamp, d.cutoff), True)
            if split_by_required:
                target = required if flags[(pkg, rel.version)] else not_required
                target.observations.append(obs)
            else:
                allsample.observations.append(obs)

    if split_by_required:
        return required, not_required
    return allsample


# ---------------------------------------------------------------------------
# Depth


def depth_distribution(g: SnapshotGraph) -> dict[int, int]:
    """Dependency-tree depth histogram over top-level packages."""
    hist: dict[int, int] = {}
    for depth in dependency_depths(g, top_level_packages(g)).values():
        hist[depth] = hist.get(depth, 0) + 1
    return hist

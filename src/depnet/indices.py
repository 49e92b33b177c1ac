"""Ecosystem-level indices built on a shared h-index core.

Each index compresses a skewed distribution into a single integer that is
largely independent of ecosystem size: changeability looks at update
counts in a trailing window, reusability at direct dependent counts, and
the impact index at the number of packages whose failure would reach a
given share of the ecosystem through transitive dependents.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Optional

from .graphops import transitive_dependent_counts
from .ingest import Dataset
from .snapshot import SnapshotGraph, check_instant


@dataclass(frozen=True, slots=True)
class IndexReport:
    ecosystem: str
    at: datetime
    index_name: str  # changeability | reusability | p_impact
    value: int
    parameter: Optional[float] = None


def h_index(counts: Iterable[int]) -> int:
    """Largest n such that at least n entries are >= n.

    Counting pass over value buckets, O(len(counts)).
    """
    items = list(counts)
    n = len(items)
    if n == 0:
        return 0
    buckets = [0] * (n + 1)
    for c in items:
        if c < 0:
            raise ValueError("h_index requires non-negative counts")
        buckets[c if c < n else n] += 1
    seen = 0
    for h in range(n, -1, -1):
        seen += buckets[h]
        if seen >= h:
            return h
    return 0


def update_counts_in_window(d: Dataset, t: datetime, window_days: int) -> dict[str, int]:
    """Updates per package with timestamp in (t - window_days, t].

    A package's first release is not an update, so packages whose only
    activity in the window is their initial release do not appear.
    """
    start = t - timedelta(days=window_days)
    counts: dict[str, int] = {}
    for _, pkg in d.index().updates_in_window(start, t):
        counts[pkg] = counts.get(pkg, 0) + 1
    return counts


def changeability_index(d: Dataset, t: datetime, window_days: int = 30) -> IndexReport:
    """h-index of per-package update counts in the trailing window."""
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    check_instant(d, t)
    counts = update_counts_in_window(d, t, window_days)
    return IndexReport(
        ecosystem=d.ecosystem,
        at=t,
        index_name="changeability",
        value=h_index(counts.values()),
        parameter=float(window_days),
    )


def reusability_index(g: SnapshotGraph, transitive: bool = False) -> IndexReport:
    """h-index of dependent counts over required packages.

    Dependents are direct (in-degree) by default; ``transitive`` switches
    to transitive dependent counts.
    """
    if transitive:
        counts = [c for c in transitive_dependent_counts(g).values() if c > 0]
    else:
        counts = list(g.in_degree_counts().values())
    return IndexReport(
        ecosystem=g.ecosystem,
        at=g.at,
        index_name="reusability",
        value=h_index(counts),
    )


def p_impact_index(
    g: SnapshotGraph,
    p_percent: float,
    dependent_counts: Optional[dict[str, int]] = None,
) -> IndexReport:
    """Number of packages transitively required by at least p_percent of
    all packages in the snapshot.

    The threshold (p_percent/100 * n_nodes) is compared without rounding.
    Precomputed ``dependent_counts`` may be passed to share the batch
    closure with other per-month metrics.
    """
    if not 0.0 < p_percent <= 100.0:
        raise ValueError("p_percent must be in (0, 100]")
    if g.n_nodes == 0:
        raise ValueError("p_impact_index requires a non-empty snapshot")
    if dependent_counts is None:
        dependent_counts = transitive_dependent_counts(g)
    threshold = (p_percent / 100.0) * g.n_nodes
    value = sum(1 for count in dependent_counts.values() if count >= threshold)
    return IndexReport(
        ecosystem=g.ecosystem,
        at=g.at,
        index_name="p_impact",
        value=value,
        parameter=p_percent,
    )

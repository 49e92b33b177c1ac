"""Ecosystem-level indices built on a shared h-index core.

Each index compresses a skewed distribution into a single integer that is
largely independent of ecosystem size: changeability looks at update
counts in a trailing window, reusability at direct dependent counts, and
the impact index at the number of packages whose failure would reach a
given share of the ecosystem through transitive dependents.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Optional

import numpy as np

from .graphops import _closure_sizes, _edge_list
from .ingest import _DAY_US, Dataset
from .snapshot import SnapshotGraph, check_instant, in_degrees


@dataclass(frozen=True, slots=True)
class IndexReport:
    ecosystem: str
    at: datetime
    index_name: str  # changeability | reusability | p_impact
    value: int
    parameter: Optional[float] = None


def h_index(counts: Iterable[int]) -> int:
    """Largest n such that at least n entries are >= n.

    One count of the entries capped at n, then its suffix sums; an int64
    array goes in as it is, O(len(counts)).
    """
    counts = counts if isinstance(counts, np.ndarray) else np.fromiter(counts, np.int64)
    n = len(counts)
    if n and counts.min() < 0:
        raise ValueError("h_index requires non-negative counts")
    # at_least[h] is the number of entries >= h, for h in 0..n.
    at_least = np.cumsum(np.bincount(np.minimum(counts, n), minlength=n + 1)[::-1])[::-1]
    return int(np.flatnonzero(at_least >= np.arange(n + 1))[-1])


def _package_counts(d: Dataset, positions: np.ndarray) -> dict[str, int]:
    """How often each package position occurs in ``positions``, by
    package name, in position order."""
    at, counts = np.unique(positions, return_counts=True)
    names = map(d.names.__getitem__, d.index().packages[at].tolist())
    return dict(zip(names, counts.tolist()))


def _window_updates(d: Dataset, t: datetime, window_days: int) -> np.ndarray:
    """The package positions of the updates in (t - window_days, t];
    ``ValueError`` when t is after the dataset cutoff."""
    # Both bounds are on the int64 microsecond timeline, the start clamped
    # at its earliest instant, so no window overflows. Times are whole
    # microseconds, so (start, t] is [start + 1, t + 1).
    end = check_instant(d, t)
    start = max(end - window_days * _DAY_US, int(np.iinfo(np.int64).min))
    return d.index().updates_during(start + 1, end + 1)[1]


def update_counts_in_window(d: Dataset, t: datetime, window_days: int) -> dict[str, int]:
    """Updates per package with timestamp in (t - window_days, t].

    A package's first release is not an update, so packages whose only
    activity in the window is their initial release do not appear.
    """
    return _package_counts(d, _window_updates(d, t, window_days))


def changeability_index(d: Dataset, t: datetime, window_days: int = 30) -> IndexReport:
    """h-index of per-package update counts in the trailing window."""
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    counts = np.unique(_window_updates(d, t, window_days), return_counts=True)[1]
    return IndexReport(
        ecosystem=d.ecosystem,
        at=t,
        index_name="changeability",
        value=h_index(counts),
        parameter=float(window_days),
    )


def reusability_index(g: SnapshotGraph, transitive: bool = False) -> IndexReport:
    """h-index of dependent counts over required packages.

    Dependents are direct (in-degree) by default; ``transitive`` switches
    to transitive dependent counts.
    """
    if transitive:
        counts = _closure_sizes(*_edge_list(g), reverse=True)
    else:
        counts = in_degrees(*g.edge_arrays())
    return IndexReport(
        ecosystem=g.ecosystem,
        at=g.at,
        index_name="reusability",
        value=h_index(counts),
    )


def _p_impact_count(sizes: np.ndarray, p_percent: float, n_nodes: int) -> int:
    """How many of the transitive dependent counts ``sizes``, an int64
    array, reach p_percent of ``n_nodes``, compared without rounding: both
    are exact in float64 below 2**53."""
    return int(np.count_nonzero(sizes >= (p_percent / 100.0) * n_nodes))


def _check_p_percent(p_percent: float) -> float:
    """``p_percent``; ``ValueError`` unless it is in (0, 100]."""
    if not 0.0 < p_percent <= 100.0:
        raise ValueError("p_percent must be in (0, 100]")
    return p_percent


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
    _check_p_percent(p_percent)
    if dependent_counts is None:
        sizes = _closure_sizes(*_edge_list(g), reverse=True)
    else:
        sizes = np.fromiter(dependent_counts.values(), np.int64, len(dependent_counts))
    return IndexReport(
        ecosystem=g.ecosystem,
        at=g.at,
        index_name="p_impact",
        value=_p_impact_count(sizes, p_percent, g.n_nodes),
        parameter=p_percent,
    )

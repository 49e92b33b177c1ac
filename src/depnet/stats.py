"""Statistical machinery: survival estimation, inequality, growth fits.

Pure functions throughout; inputs are plain sequences or the small value
types below, so everything here is safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .ingest import _run_starts
from .timeutil import month_index

# Chi-square critical values, df=1, at the two supported significance levels.
LOG_RANK_CRITICAL = {0.05: 3.841, 0.01: 6.635}


@dataclass(eq=False)
class SurvivalSample:
    """Durations in days (float64) with right-censoring flags (bool, True
    = censored), one of each per observation."""

    durations: np.ndarray
    censored: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=np.float64)
        self.censored = np.asarray(self.censored, dtype=bool)

    @property
    def n_events(self) -> int:
        return len(self) - self.n_censored

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(self.censored))

    def __len__(self) -> int:
        return len(self.durations)


@dataclass
class SurvivalCurve:
    """Step function (time, survival probability), non-increasing from 1.0."""

    steps: list[tuple[float, float]]
    label: str = ""


@dataclass
class LorenzCurve:
    points: list[tuple[float, float]]
    orientation: str = "standard"  # standard | inverted


@dataclass
class RegressionFit:
    model: str  # linear | exponential
    params: tuple[float, float]  # (a, b): y = a*t + b, or y = a*exp(b*t)
    r_squared: float
    r_squared_log: Optional[float] = None


class LogRankResult(NamedTuple):
    statistic: float
    significant: bool
    alpha: float
    critical_value: float


def _grouped(durations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct durations ascending, and the place of each duration
    among them: one sort and its run starts."""
    order = np.argsort(durations, kind="stable")
    ordered = durations[order]
    distinct = _run_starts(ordered)
    group = np.empty(len(ordered), dtype=np.int64)
    group[order] = np.cumsum(distinct) - 1
    return ordered[distinct], group


def _counts(group: np.ndarray, censored: np.ndarray, n_times: int) -> tuple[np.ndarray, np.ndarray]:
    """Events at each distinct time, and the number still at risk there:
    the observations at that time or later."""
    events = np.bincount(group[~censored], minlength=n_times)
    leaving = np.bincount(group, minlength=n_times)
    at_risk = len(group) - np.cumsum(leaving) + leaving
    return events, at_risk


def kaplan_meier(sample: SurvivalSample) -> SurvivalCurve:
    """Product-limit estimate of the survival function.

    At tied times, events are processed before censorings. The curve
    carries a step at every distinct observed time, so censoring-only
    times appear with an unchanged survival value.
    """
    times, survival = _product_limit(sample)
    return SurvivalCurve(steps=list(zip(times.tolist(), survival.tolist())), label=sample.label)


def _product_limit(sample: SurvivalSample) -> tuple[np.ndarray, np.ndarray]:
    """The steps of :func:`kaplan_meier` as two float64 arrays, the times
    and the survival at each, starting at (0.0, 1.0)."""
    if not len(sample):
        raise ValueError("cannot estimate survival from an empty sample")
    times, group = _grouped(sample.durations)
    events, at_risk = _counts(group, sample.censored, len(times))
    # accumulate multiplies in order, one factor at a time, as a loop would;
    # a time without events multiplies by exactly 1.0.
    survival = np.multiply.accumulate(1.0 - events / at_risk)
    keep = (times > 0.0) | (events > 0)
    return np.concatenate(([0.0], times[keep])), np.concatenate(([1.0], survival[keep]))


def log_rank(a: SurvivalSample, b: SurvivalSample, alpha: float = 0.01) -> LogRankResult:
    """Two-group log-rank chi-square test.

    The statistic is (sum of observed-minus-expected events in group a)
    squared over the summed hypergeometric variance. Significance is a
    comparison against the chi-square critical value (df=1) at ``alpha``;
    with no events anywhere, or no variance, the statistic is 0.
    """
    if alpha not in LOG_RANK_CRITICAL:
        raise ValueError(f"alpha must be one of {sorted(LOG_RANK_CRITICAL)}, got {alpha}")
    if not len(a) or not len(b):
        raise ValueError("log-rank requires two non-empty samples")
    critical = LOG_RANK_CRITICAL[alpha]

    times, group = _grouped(np.concatenate((a.durations, b.durations)))
    n_times, split = len(times), len(a)
    ev_a, n_a = _counts(group[:split], a.censored, n_times)
    ev_b, n_b = _counts(group[split:], b.censored, n_times)
    d_total = ev_a + ev_b
    n_total = n_a + n_b
    terms = np.flatnonzero((d_total > 0) & (n_total > 1))

    # The terms are summed one by one, in time order, over Python ints: the
    # variance numerator can pass 2**63, and a pairwise sum would change
    # the last bits.
    o_minus_e = 0.0
    variance = 0.0
    for ev, d, na, nb, nt in zip(
        *(column[terms].tolist() for column in (ev_a, d_total, n_a, n_b, n_total))
    ):
        o_minus_e += ev - d * na / nt
        variance += d * (nt - d) * na * nb / (nt * nt * (nt - 1))

    statistic = o_minus_e * o_minus_e / variance if variance > 0.0 else 0.0
    return LogRankResult(
        statistic=statistic,
        significant=statistic > critical,
        alpha=alpha,
        critical_value=critical,
    )


def _checked_values(values: Sequence[float], caller: str) -> np.ndarray:
    """``values`` as a float64 array; ``ValueError`` naming ``caller`` when
    there are none or one is negative."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError(f"{caller} requires at least one value")
    if np.any(arr < 0):
        raise ValueError(f"{caller} requires non-negative values")
    return arr


def lorenz_points(values: Sequence[float], inverted: bool = False) -> LorenzCurve:
    """Cumulative (population fraction, value fraction) curve.

    Standard orientation sorts ascending (curve under the diagonal);
    inverted sorts descending (curve above it).
    """
    arr = _checked_values(values, "lorenz_points")
    total = float(arr.sum())
    if total <= 0.0:
        raise ValueError("lorenz_points requires a positive total")
    arr = np.sort(arr)
    if inverted:
        arr = arr[::-1]
    cum_val = np.cumsum(arr) / total
    cum_pop = np.arange(1, arr.size + 1) / arr.size
    points = [(0.0, 0.0)]
    points.extend(zip(cum_pop.tolist(), cum_val.tolist()))
    points[-1] = (1.0, 1.0)
    return LorenzCurve(points=points, orientation="inverted" if inverted else "standard")


def gini(values: Sequence[float]) -> float:
    """Unnormalized Gini index in [0, 1 - 1/n].

    Mean-absolute-difference definition, computed via the sorted
    prefix-sum identity in O(n log n). All-zero input yields 0.
    """
    arr = _checked_values(values, "gini")
    total = float(arr.sum())
    if total == 0.0:
        return 0.0
    n = arr.size
    arr = np.sort(arr)
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.dot(ranks, arr)) / (n * total) - (n + 1) / n)


def normalized_gini(values: Sequence[float]) -> float:
    """Gini divided by its maximum 1 - 1/n, giving a size-comparable [0, 1]."""
    arr = list(values)
    n = len(arr)
    if n < 2:
        raise ValueError("normalized_gini requires at least two values")
    return gini(arr) / (1.0 - 1.0 / n)


def _extract_xy(ts) -> tuple[np.ndarray, np.ndarray]:
    # Month tuples become months elapsed since the first point, which keeps
    # exponential back-transforms well-conditioned and leaves R^2 unchanged.
    points = list(getattr(ts, "points", ts))
    xs = []
    ys = []
    for x, y in points:
        if isinstance(x, tuple):
            x = month_index(x)
        xs.append(float(x))
        ys.append(float(y))
    if points and isinstance(points[0][0], tuple):
        base = xs[0]
        xs = [x - base for x in xs]
    return np.asarray(xs), np.asarray(ys)


def _r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    ss_res = float(np.sum((observed - predicted) ** 2))
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    if ss_tot == 0.0:
        # Constant series: a model that reproduces it exactly fits perfectly.
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_linear(ts) -> RegressionFit:
    """Ordinary least squares y = a*t + b with R^2 on the original scale."""
    xs, ys = _extract_xy(ts)
    if xs.size < 3:
        raise ValueError("fit_linear requires at least 3 points")
    if np.ptp(xs) == 0.0:
        raise ValueError("fit_linear requires varying time values")
    x_mean = xs.mean()
    y_mean = ys.mean()
    slope = float(np.dot(xs - x_mean, ys - y_mean) / np.dot(xs - x_mean, xs - x_mean))
    intercept = float(y_mean - slope * x_mean)
    predicted = slope * xs + intercept
    return RegressionFit(
        model="linear", params=(slope, intercept), r_squared=_r_squared(ys, predicted)
    )


def fit_exponential(ts, include_log_r2: bool = False) -> RegressionFit:
    """Least squares on log y, reported as y = a*exp(b*t).

    R^2 is computed between back-transformed predictions and the raw
    observations so linear and exponential fits are directly comparable;
    ``include_log_r2`` additionally reports the fit quality in log space.
    """
    xs, ys = _extract_xy(ts)
    if xs.size < 3:
        raise ValueError("fit_exponential requires at least 3 points")
    if np.any(ys <= 0.0):
        raise ValueError("fit_exponential requires strictly positive values")
    if np.ptp(xs) == 0.0:
        raise ValueError("fit_exponential requires varying time values")
    log_ys = np.log(ys)
    x_mean = xs.mean()
    l_mean = log_ys.mean()
    b = float(np.dot(xs - x_mean, log_ys - l_mean) / np.dot(xs - x_mean, xs - x_mean))
    log_a = float(l_mean - b * x_mean)
    a = math.exp(log_a)
    predicted = a * np.exp(b * xs)
    fit = RegressionFit(model="exponential", params=(a, b), r_squared=_r_squared(ys, predicted))
    if include_log_r2:
        fit.r_squared_log = _r_squared(log_ys, b * xs + log_a)
    return fit

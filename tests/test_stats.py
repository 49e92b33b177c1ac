from __future__ import annotations

import math
import random

import numpy as np
import pytest

from depnet.stats import (
    SurvivalSample,
    fit_exponential,
    fit_linear,
    gini,
    kaplan_meier,
    log_rank,
    lorenz_points,
    normalized_gini,
)

from conftest import survival_sample


def gini_pairwise(values):
    """O(n^2) mean-absolute-difference oracle."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(np.abs(arr[:, None] - arr[None, :]).sum() / (2 * n * n * mean))


def lorenz_area_gini(curve):
    """Twice the area between the Lorenz polygon and the diagonal."""
    area = 0.0
    pts = curve.points
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * ((y0 + y1) / 2.0 - (x0 + x1) / 2.0)
    return abs(2.0 * area)


def grouped_reference(observations):
    """Distinct times ascending with (events, censorings) counts."""
    acc = {}
    for duration, censored in observations:
        slot = acc.setdefault(duration, [0, 0])
        slot[1 if censored else 0] += 1
    return sorted(acc.items())


def kaplan_meier_reference(observations):
    """The product-limit steps by one loop over the grouped times."""
    at_risk = len(observations)
    survival = 1.0
    steps = [(0.0, 1.0)]
    for time, (events, censorings) in grouped_reference(observations):
        if events:
            survival *= 1.0 - events / at_risk
        if time > 0.0 or events:
            steps.append((time, survival))
        at_risk -= events + censorings
    return steps


def log_rank_reference(obs_a, obs_b):
    """The log-rank statistic by one loop over the union of grouped times."""
    times_a = dict(grouped_reference(obs_a))
    times_b = dict(grouped_reference(obs_b))
    n_a, n_b = len(obs_a), len(obs_b)
    o_minus_e = variance = 0.0
    for time in sorted(set(times_a) | set(times_b)):
        ev_a, cen_a = times_a.get(time, (0, 0))
        ev_b, cen_b = times_b.get(time, (0, 0))
        n_total = n_a + n_b
        d_total = ev_a + ev_b
        if d_total and n_total > 1:
            o_minus_e += ev_a - d_total * n_a / n_total
            variance += (
                d_total * (n_total - d_total) * n_a * n_b / (n_total * n_total * (n_total - 1))
            )
        n_a -= ev_a + cen_a
        n_b -= ev_b + cen_b
    return o_minus_e * o_minus_e / variance if variance > 0.0 else 0.0


def random_observations(rng: random.Random) -> list:
    """A sample with tied times, zero durations, int or float durations,
    and now and then no event at all."""
    scale = rng.choice([1, 3, 7.5])
    censoring = rng.choice([0.0, 0.3, 0.8, 1.0])
    return [
        (rng.randint(0, 12) if scale == 1 else rng.randint(0, 12) / scale, rng.random() < censoring)
        for _ in range(rng.randint(1, 60))
    ]


class TestAgainstReferenceLoops:
    """The estimators equal their loop versions to the last bit."""

    def test_kaplan_meier(self):
        rng = random.Random(1958)
        for _ in range(500):
            obs = random_observations(rng)
            assert kaplan_meier(survival_sample(obs)).steps == kaplan_meier_reference(obs), obs

    def test_log_rank(self):
        rng = random.Random(1966)
        for _ in range(500):
            obs_a, obs_b = random_observations(rng), random_observations(rng)
            result = log_rank(survival_sample(obs_a), survival_sample(obs_b), 0.05)
            assert result.statistic == log_rank_reference(obs_a, obs_b), (obs_a, obs_b)


class TestKaplanMeier:
    def test_hand_example(self):
        curve = kaplan_meier(survival_sample([(2, False), (4, False), (5, True)]))
        assert curve.steps[0] == (0.0, 1.0)
        values = dict(curve.steps)
        assert values[2] == pytest.approx(2 / 3)
        assert values[4] == pytest.approx(1 / 3)
        assert values[5] == pytest.approx(1 / 3)

    def test_all_censored_stays_at_one(self):
        curve = kaplan_meier(survival_sample([(3, True), (9, True), (12, True)]))
        assert all(s == 1.0 for _, s in curve.steps)

    def test_no_censoring_equals_empirical_survival(self):
        curve = kaplan_meier(survival_sample([(1, False), (2, False), (3, False)]))
        assert dict(curve.steps) == pytest.approx(
            {0.0: 1.0, 1.0: 2 / 3, 2.0: 1 / 3, 3.0: 0.0}
        )

    def test_no_censoring_matches_empirical_on_random_samples(self):
        rng = random.Random(42)
        for _ in range(50):
            durations = [rng.randint(1, 30) for _ in range(rng.randint(1, 40))]
            sample = survival_sample([(t, False) for t in durations])
            curve = kaplan_meier(sample)
            n = len(durations)
            for t, s in curve.steps:
                empirical = sum(1 for x in durations if x > t) / n
                assert s == pytest.approx(empirical, abs=1e-12)

    def test_monotone_non_increasing(self):
        rng = random.Random(7)
        for _ in range(200):
            obs = [
                (rng.randint(0, 50), rng.random() < 0.4)
                for _ in range(rng.randint(1, 60))
            ]
            curve = kaplan_meier(survival_sample(obs))
            values = [s for _, s in curve.steps]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert curve.steps[0] == (0.0, 1.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            kaplan_meier(survival_sample([]))

    def test_tie_events_before_censorings(self):
        # Censored at 5 is still at risk for the event at 5.
        curve = kaplan_meier(survival_sample([(5, False), (5, True)]))
        assert dict(curve.steps)[5.0] == pytest.approx(0.5)


class TestSurvivalSample:
    def test_arrays_and_int_counts(self):
        sample = SurvivalSample([2, 4, 5], [0, 0, 1], "x")
        assert sample.durations.dtype == np.float64
        assert sample.censored.dtype == bool
        assert (len(sample), sample.n_events, sample.n_censored) == (3, 2, 1)
        assert type(sample.n_events) is int and type(sample.n_censored) is int


class TestLogRank:
    def test_identical_groups_zero(self):
        obs = [(3.0, False), (5.0, True), (9.0, False), (14.0, True)]
        result = log_rank(survival_sample(list(obs)), survival_sample(list(obs)), 0.01)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert not result.significant

    def test_separated_groups_hand_value(self):
        # chi-square 5.0517: significant at 0.05 but not at 0.01
        # (verified against scipy.stats.logrank).
        a = survival_sample([(1, False), (2, False), (3, False)])
        b = survival_sample([(10, False), (20, False), (30, False)])
        res05 = log_rank(a, b, alpha=0.05)
        assert res05.statistic == pytest.approx(5.051660516605167, rel=1e-12)
        assert res05.significant
        res01 = log_rank(a, b, alpha=0.01)
        assert not res01.significant

    def test_matches_scipy_on_random_samples(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(2024)
        for _ in range(25):
            def sample():
                return [
                    (rng.randint(1, 40), rng.random() < 0.3)
                    for _ in range(rng.randint(5, 40))
                ]

            obs_a, obs_b = sample(), sample()
            result = log_rank(survival_sample(obs_a), survival_sample(obs_b), 0.05)

            def censored_data(obs):
                return scipy_stats.CensoredData(
                    uncensored=[t for t, c in obs if not c],
                    right=[t for t, c in obs if c],
                )

            expected = scipy_stats.logrank(censored_data(obs_a), censored_data(obs_b))
            assert result.statistic == pytest.approx(
                float(expected.statistic) ** 2, rel=1e-9, abs=1e-12
            )

    def test_all_censored_zero(self):
        a = survival_sample([(3, True), (5, True)])
        b = survival_sample([(2, True), (9, True)])
        result = log_rank(a, b, 0.01)
        assert result.statistic == 0.0
        assert not result.significant

    def test_symmetry(self):
        a = survival_sample([(1, False), (4, False), (6, True)])
        b = survival_sample([(2, False), (9, False)])
        assert log_rank(a, b, 0.05).statistic == pytest.approx(
            log_rank(b, a, 0.05).statistic
        )

    def test_unsupported_alpha(self):
        a = survival_sample([(1, False)])
        with pytest.raises(ValueError):
            log_rank(a, a, alpha=0.10)


class TestLorenz:
    def test_inverted_pair(self):
        curve = lorenz_points([3, 1], inverted=True)
        assert curve.points == [(0.0, 0.0), (0.5, 0.75), (1.0, 1.0)]
        assert curve.orientation == "inverted"

    def test_equal_values_on_diagonal(self):
        for inverted in (False, True):
            curve = lorenz_points([2, 2, 2, 2], inverted=inverted)
            for x, y in curve.points:
                assert y == pytest.approx(x)

    def test_single_holder_inverted(self):
        curve = lorenz_points([0, 0, 0, 4], inverted=True)
        assert curve.points == [
            (0.0, 0.0),
            (0.25, 1.0),
            (0.5, 1.0),
            (0.75, 1.0),
            (1.0, 1.0),
        ]

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            lorenz_points([0.0, 0.0])

    def test_points_are_python_floats_of_the_cumulative_sums(self):
        # The points equal each numpy scalar of the cumulative fractions
        # read as a float, as Python floats and not numpy scalars.
        rng = random.Random(11)
        values = [rng.randint(0, 1000) for _ in range(2000)]
        for inverted in (False, True):
            arr = np.sort(np.asarray(values, float))[:: -1 if inverted else 1]
            cum_val = np.cumsum(arr) / arr.sum()
            cum_pop = np.arange(1, arr.size + 1) / arr.size
            expected = [(0.0, 0.0), *((float(x), float(y)) for x, y in zip(cum_pop, cum_val))]
            expected[-1] = (1.0, 1.0)
            points = lorenz_points(values, inverted=inverted).points
            assert points == expected
            assert {type(v) for point in points for v in point} == {float}

    def test_standard_below_diagonal_inverted_above(self):
        rng = random.Random(5)
        for _ in range(50):
            values = [rng.randint(0, 100) for _ in range(rng.randint(2, 50))]
            if sum(values) == 0:
                continue
            std = lorenz_points(values, inverted=False)
            inv = lorenz_points(values, inverted=True)
            assert all(y <= x + 1e-12 for x, y in std.points)
            assert all(y >= x - 1e-12 for x, y in inv.points)
            assert std.points[0] == (0.0, 0.0) and std.points[-1] == (1.0, 1.0)

    def test_area_relation_to_gini(self):
        rng = random.Random(17)
        for _ in range(100):
            values = [rng.randint(0, 50) for _ in range(rng.randint(2, 60))]
            if sum(values) == 0:
                continue
            for inverted in (False, True):
                curve = lorenz_points(values, inverted=inverted)
                assert lorenz_area_gini(curve) == pytest.approx(
                    gini(values), abs=1e-9
                )


class TestGini:
    def test_equality_zero(self):
        assert gini([1, 1, 1, 1]) == 0.0

    def test_single_holder(self):
        assert gini([0, 0, 0, 4]) == pytest.approx(0.75, abs=1e-12)

    def test_two_thirds(self):
        assert gini([0, 0, 3]) == pytest.approx(2 / 3)

    def test_all_zero(self):
        assert gini([0, 0, 0]) == 0.0

    def test_matches_pairwise_oracle(self):
        rng = random.Random(101)
        for _ in range(200):
            values = [rng.uniform(0, 100) for _ in range(rng.randint(1, 80))]
            assert gini(values) == pytest.approx(gini_pairwise(values), abs=1e-9)

    def test_scale_and_permutation_invariance(self):
        rng = random.Random(23)
        values = [rng.uniform(0, 10) for _ in range(30)]
        base = gini(values)
        assert gini([v * 7.5 for v in values]) == pytest.approx(base, abs=1e-12)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(base, abs=1e-12)

    def test_bounds(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 50)
            values = [rng.uniform(0, 100) for _ in range(n)]
            g = gini(values)
            assert -1e-12 <= g <= 1 - 1 / n + 1e-12


class TestNormalizedGini:
    def test_single_holder_is_one(self):
        assert normalized_gini([0, 0, 0, 4]) == pytest.approx(1.0)

    def test_equal_pair_zero(self):
        assert normalized_gini([5, 5]) == 0.0

    def test_requires_two_values(self):
        with pytest.raises(ValueError):
            normalized_gini([3])

    def test_range(self):
        rng = random.Random(31)
        for _ in range(100):
            values = [rng.uniform(0, 100) for _ in range(rng.randint(2, 40))]
            assert -1e-12 <= normalized_gini(values) <= 1 + 1e-12


class TestRegression:
    def test_exact_line(self):
        fit = fit_linear([(0, 1), (1, 3), (2, 5)])
        assert fit.params == pytest.approx((2.0, 1.0))
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_series_convention(self):
        fit = fit_linear([(0, 4), (1, 4), (2, 4)])
        assert fit.params == pytest.approx((0.0, 4.0))
        assert fit.r_squared == 1.0

    def test_hand_least_squares(self):
        fit = fit_linear([(0, 0), (1, 1), (2, 4)])
        assert fit.params[0] == pytest.approx(2.0)
        assert fit.params[1] == pytest.approx(-1 / 3)
        assert fit.r_squared == pytest.approx(24 / 26)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_linear([(0, 1), (1, 2)])

    def test_zero_time_variance(self):
        with pytest.raises(ValueError):
            fit_linear([(1, 1), (1, 2), (1, 3)])

    def test_exact_exponential(self):
        fit = fit_exponential([(0, 1), (1, math.e), (2, math.e**2)])
        assert fit.params == pytest.approx((1.0, 1.0))
        assert fit.r_squared == pytest.approx(1.0, abs=1e-6)

    def test_constant_positive_series(self):
        fit = fit_exponential([(0, 2), (1, 2), (2, 2)])
        assert fit.params == pytest.approx((2.0, 0.0))
        assert fit.r_squared == 1.0

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([(0, 0), (1, 1), (2, 2)])

    def test_exponential_beats_linear_on_convex_data(self):
        points = [(t, 2.0 * math.exp(0.8 * t)) for t in range(8)]
        exp_fit = fit_exponential(points)
        lin_fit = fit_linear(points)
        assert exp_fit.r_squared == pytest.approx(1.0, abs=1e-6)
        assert exp_fit.r_squared > lin_fit.r_squared

    def test_month_tuples_accepted(self):
        points = [((2020, 1), 1.0), ((2020, 2), 3.0), ((2020, 3), 5.0)]
        fit = fit_linear(points)
        assert fit.params[0] == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_month_axis_is_relative_for_exponential(self):
        # Far-from-zero month indexes must not overflow the back-transform.
        points = [((2020, m), 2.0 * math.exp(0.3 * (m - 1))) for m in range(1, 7)]
        fit = fit_exponential(points)
        assert fit.params == pytest.approx((2.0, 0.3))
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_log_space_r2_flag(self):
        points = [(t, 2.0 * math.exp(0.5 * t)) for t in range(5)]
        fit = fit_exponential(points, include_log_r2=True)
        assert fit.r_squared_log == pytest.approx(1.0, abs=1e-9)
        assert fit_exponential(points).r_squared_log is None

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.loess import loess
from relqual.ols import NonPositiveValuesError
from relqual.quality import (
    DECREASING,
    FLAT,
    INCREASING,
    RELEASE_VARIABLES,
    DailySeries,
    EmptyReleaseError,
    InsufficientDataError,
    UnsortedInputError,
    UsageRecord,
    aggregate_release,
    aggregate_usage,
    correct_new_users,
    direction_of_trend,
    log_transform,
    quality_metric,
    screen_significance,
    timeline,
)

DAY = dt.date(2016, 1, 1)


def record(day_offset=0, release="1.0", new_users=0, users=0, new_visits=0,
           visits=0, time_on_site=0.0, exceptions=0):
    return UsageRecord(DAY + dt.timedelta(days=day_offset), release, new_users,
                       users, new_visits, visits, time_on_site, exceptions)


def test_correct_new_users_forces_cumulative_floor():
    records = [record(0, new_users=5, users=5), record(1, new_users=0, users=7)]
    corrected = correct_new_users(records)
    assert [r.new_users for r in corrected] == [5, 2]


def test_correct_new_users_no_change_when_sufficient():
    records = [record(0, new_users=4, users=3), record(1, new_users=2, users=5)]
    assert correct_new_users(records) == records


def test_correct_new_users_hand_worked_three_days():
    records = [record(0, new_users=3, users=3),
               record(1, new_users=0, users=3),
               record(2, new_users=0, users=10)]
    assert [r.new_users for r in correct_new_users(records)] == [3, 0, 7]


def test_correct_new_users_rejects_unsorted():
    with pytest.raises(UnsortedInputError):
        correct_new_users([record(3), record(1)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                min_size=1, max_size=30))
def test_correct_new_users_postcondition_fuzz(day_counts):
    records = [record(i, new_users=nu, users=u)
               for i, (nu, u) in enumerate(day_counts)]
    corrected = correct_new_users(records)
    cumulative = 0
    for original, fixed in zip(records, corrected):
        cumulative += fixed.new_users
        assert cumulative >= fixed.users
        assert fixed.new_users >= original.new_users
        assert fixed.users == original.users
        assert fixed.exceptions == original.exceptions


def test_aggregate_single_day_arithmetic():
    agg = aggregate_release([record(0, new_users=10, users=10, new_visits=20,
                                    time_on_site=1000.0, exceptions=5)])
    assert agg.usage_intensity == pytest.approx(100.0)
    assert agg.usage_frequency == pytest.approx(2.0)
    assert agg.release_duration == 1
    assert agg.exceptions == 5


def test_aggregate_duration_spans_dates():
    agg = aggregate_release([record(0, new_users=1), record(6, new_users=1)])
    assert agg.release_duration == 7
    assert agg.release_date == (DAY - dt.date(1970, 1, 1)).days


def test_aggregate_zero_users_flagged():
    agg = aggregate_release([record(0, users=3, time_on_site=50.0, exceptions=2)])
    assert agg.zero_users
    assert agg.usage_intensity == 0.0 and agg.usage_frequency == 0.0


def test_aggregate_empty_release_rejected():
    with pytest.raises(EmptyReleaseError):
        aggregate_release([])


def test_aggregate_usage_order_invariant():
    records = [record(2, release="a", new_users=2, exceptions=1),
               record(0, release="a", new_users=5, users=5),
               record(1, release="b", new_users=1)]
    forward = aggregate_usage(records)
    backward = aggregate_usage(list(reversed(records)))
    assert forward == backward
    assert [a.release for a in forward] == ["a", "b"]


def test_log_transform_policies():
    aggregates = aggregate_usage([record(0, new_users=3, users=3, new_visits=6,
                                         time_on_site=30.0, exceptions=0)])
    data = log_transform(aggregates)
    assert data.variables.names == RELEASE_VARIABLES
    assert data.column("Exceptions")[0] == 0.0  # log1p(0)
    with pytest.raises(NonPositiveValuesError):
        log_transform(aggregates, policy="strict-log")


def test_log_transform_monotone_per_column():
    aggregates = aggregate_usage(
        [record(i, release=str(k), new_users=k * 2 + 1, users=k, new_visits=k,
                time_on_site=10.0 * k + 1, exceptions=k)
         for k in range(1, 6) for i in (k,)])
    data = log_transform(aggregates)
    raw = np.array([[a.value(v) for v in RELEASE_VARIABLES] for a in aggregates])
    for j in range(len(RELEASE_VARIABLES)):
        order_raw = np.argsort(raw[:, j], kind="stable")
        order_log = np.argsort(data.rows[:, j], kind="stable")
        assert np.array_equal(order_raw, order_log)


def test_quality_metric_cases():
    assert quality_metric(10, 5) == 2.0
    assert quality_metric(0, 7) == 0.0
    assert quality_metric(0, 0) == 0.0
    assert math.isinf(quality_metric(3, 0))


@given(st.integers(0, 1000), st.integers(1, 1000), st.integers(1, 50))
def test_quality_metric_scale_invariance(failures, usage, k):
    assert quality_metric(k * failures, k * usage) == pytest.approx(
        quality_metric(failures, usage))


def scalar_quality(failures, usage):
    """The metric's rule, one pair at a time."""
    if failures == 0:
        return 0.0
    if usage == 0:
        return math.inf
    return failures / usage


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=20)
       | st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**9)),
                  max_size=20))
def test_quality_metric_on_arrays_is_the_scalar_rule_per_element(pairs):
    failures = np.array([f for f, _ in pairs], dtype=np.int64)
    usage = np.array([u for _, u in pairs], dtype=np.int64)
    quality = quality_metric(failures, usage)
    assert isinstance(quality, np.ndarray) and quality.shape == (len(pairs),)
    for i, (f, u) in enumerate(pairs):
        assert quality[i] == scalar_quality(f, u)
        assert type(quality_metric(f, u)) is float
        assert quality_metric(f, u) == quality[i]


def test_quality_metric_rejects_negative_usage():
    with pytest.raises(ValueError, match="usage must be >= 0"):
        quality_metric(np.array([1, 2]), np.array([3, -1]))


def make_series(downloads, cumulative, start=DAY, package="pkg"):
    days = tuple(start + dt.timedelta(days=i) for i in range(len(downloads)))
    return DailySeries(package, days, np.array(downloads), np.array(cumulative))


@pytest.mark.parametrize("swap", ["duplicate", "decrease"])
def test_daily_series_rejects_days_out_of_order(swap):
    days = [DAY + dt.timedelta(days=i) for i in range(5)]
    if swap == "duplicate":
        days[3] = days[2]
    else:
        days[2], days[3] = days[3], days[2]
    with pytest.raises(ValueError, match="^days must be strictly increasing$"):
        DailySeries("pkg", tuple(days), np.ones(5), np.zeros(5))


@pytest.mark.parametrize("cumulative", [[-3, -3, -2, -1, 0], [0, 2, 1, 3, 4]])
def test_daily_series_rejects_falling_or_negative_counts(cumulative):
    with pytest.raises(ValueError, match="^cumulative issues must be >= 0 and "
                                         "nondecreasing$"):
        make_series([10] * 5, cumulative)


def test_timeline_quality_is_the_metric_of_new_issues_per_download():
    downloads = [0, 0, 5, 7, 0, 10, 3, 0, 8, 9, 1, 4]
    cumulative = [0, 2, 2, 5, 5, 6, 6, 7, 9, 9, 12, 12]
    line = timeline(make_series(downloads, cumulative))
    assert line.new_issues.tolist() == [0, 2, 0, 3, 0, 1, 0, 1, 2, 0, 3, 0]
    expected = quality_metric(line.new_issues, line.downloads)
    assert np.array_equal(line.quality, expected)
    assert line.flagged.tolist() == np.isinf(expected).tolist()


def test_timeline_constant_is_flat():
    n = 20
    series = make_series([100] * n, np.arange(1, n + 1) * 2)
    line = timeline(series)
    assert np.allclose(line.quality, 0.02)
    assert line.trend is not None
    assert np.allclose(line.trend, 0.02, atol=1e-9)
    assert direction_of_trend(line.trend) == FLAT


def test_timeline_linear_trend_reproduced():
    n = 30
    quality = np.linspace(0.01, 0.30, n)
    downloads = np.full(n, 1000)
    new_issues = np.round(quality * downloads).astype(int)
    series = make_series(downloads, np.cumsum(new_issues))
    line = timeline(series, span=0.4)
    realized = line.new_issues / line.downloads
    assert np.max(np.abs(line.trend[5:-5] - realized[5:-5])) < 1e-6


def test_timeline_zero_download_days_flagged_and_excluded():
    n = 15
    downloads = [50] * n
    downloads[4] = 0
    cumulative = np.arange(1, n + 1)
    series = make_series(downloads, cumulative)
    line = timeline(series)
    assert line.flagged[4] and math.isinf(line.quality[4])
    assert line.excluded_from_trend[4]
    assert line.trend is not None and np.isfinite(line.trend).all()


def test_timeline_narrow_span_bridges_a_zero_download_day():
    # r = 2: the day's two nearest usable days sit at distance 1 = h, so
    # every tricube weight is 0; the trend takes their mean
    n = 20
    downloads = [100] * n
    downloads[7] = 0
    cumulative = np.cumsum(np.arange(n) % 3)
    line = timeline(make_series(downloads, cumulative), span=0.1)
    assert np.isfinite(line.trend).all()
    assert line.trend[7] == pytest.approx(line.quality[[6, 8]].mean())


def test_timeline_short_series_has_no_trend():
    series = make_series([10] * 5, [1, 2, 3, 4, 5])
    line = timeline(series)
    assert line.trend is None
    assert line.quality.shape == (5,)


def test_screen_significance_proportional():
    rng = np.random.default_rng(0)
    downloads = rng.integers(50, 150, size=60)
    new_issues = downloads // 10
    series = make_series(downloads.tolist(), np.cumsum(new_issues))
    result = screen_significance(series)
    assert result.slope_p_value < 1e-6


def test_screen_significance_null_uniform():
    hits = 0
    for rep in range(200):
        rng = np.random.default_rng(1000 + rep)
        downloads = rng.integers(10, 100, size=40)
        new_issues = rng.poisson(3, size=40)
        series = make_series(downloads.tolist(), np.cumsum(new_issues))
        hits += screen_significance(series).slope_p_value < 0.05
    assert 0.01 <= hits / 200 <= 0.10


def test_screen_date_control_raises_r2_on_trending_series():
    n = 80
    rng = np.random.default_rng(5)
    t = np.arange(n)
    downloads = 100 + 5 * t + rng.integers(0, 10, size=n)  # bot-driven drift
    new_issues = 2 + (t // 10) + rng.integers(0, 2, size=n)
    series = make_series(downloads.tolist(), np.cumsum(new_issues))
    plain = screen_significance(series, with_date_control=False)
    controlled = screen_significance(series, with_date_control=True)
    assert controlled.r_squared > plain.r_squared


@pytest.mark.parametrize("with_date_control", [False, True])
def test_screen_of_a_window_without_new_issues_finds_nothing(with_date_control):
    downloads = np.random.default_rng(3).integers(10, 100, size=30)
    series = make_series(downloads.tolist(), [0] * 30)
    result = screen_significance(series, with_date_control)
    assert result.slope_p_value == 1.0
    assert result.r_squared == 0.0


def test_screen_requires_ten_days():
    series = make_series([10] * 9, list(range(1, 10)))
    with pytest.raises(InsufficientDataError):
        screen_significance(series)


def test_direction_of_trend():
    assert direction_of_trend(np.linspace(0, 1, 10)) == INCREASING
    assert direction_of_trend(np.linspace(1, 0, 10)) == DECREASING
    assert direction_of_trend(np.full(10, 3.0)) == FLAT
    wiggle = np.array([0.0, 1.0, 0.0, 1.0, 0.0005])
    assert direction_of_trend(wiggle, flat_band=1e-3) == FLAT


def test_loess_interior_exactness_on_line():
    x = np.linspace(0, 10, 50)
    y = 3 * x + 2
    fitted = loess(x, y, span=0.3)
    assert np.max(np.abs(fitted - y)) < 1e-9

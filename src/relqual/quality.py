"""Usage preprocessing and the usage-normalized quality metric.

Raw per-day usage records are corrected (cumulative new users can never
trail the concurrent user count), aggregated to one row per release, and
log transformed into the six modeling variables.  Quality itself is
failures per unit of usage: exceptions per new user for releases, issues
per download for packages, with zero-usage days flagged rather than
silently dropped.
"""

from __future__ import annotations

import datetime as dt
import operator
from dataclasses import dataclass, replace

import numpy as np

from .dag import VariableSet
from .data import Dataset
from .loess import loess
from .ols import NonPositiveValuesError, fit_ols

EPOCH = dt.date(1970, 1, 1)

RELEASE_VARIABLES = (
    "Release.Date",
    "Release.Duration",
    "Exceptions",
    "New.Users",
    "Usage.Intensity",
    "Usage.Frequency",
)

LOG1P = "log1p"
STRICT_LOG = "strict-log"

INCREASING = "increasing"
DECREASING = "decreasing"
FLAT = "flat"


class UnsortedInputError(ValueError):
    """Records for a release must arrive in chronological order."""


class EmptyReleaseError(ValueError):
    """A release with no usage records cannot be aggregated."""


class InsufficientDataError(ValueError):
    """Too few days for the requested trend or screen."""


@dataclass(frozen=True)
class UsageRecord:
    date: dt.date
    release: str
    new_users: int
    users: int
    new_visits: int
    visits: int
    time_on_site: float
    exceptions: int

    def __post_init__(self):
        for name in ("new_users", "users", "new_visits", "visits", "exceptions"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.time_on_site < 0:
            raise ValueError("time_on_site must be >= 0")


@dataclass(frozen=True)
class ReleaseAggregate:
    release: str
    release_date: int          # days since 1970-01-01
    release_duration: int      # last day - first day + 1
    exceptions: int
    new_users: int
    usage_intensity: float     # seconds on site per new user
    usage_frequency: float     # new visits per new user
    zero_users: bool = False

    def value(self, variable: str) -> float:
        return {
            "Release.Date": float(self.release_date),
            "Release.Duration": float(self.release_duration),
            "Exceptions": float(self.exceptions),
            "New.Users": float(self.new_users),
            "Usage.Intensity": self.usage_intensity,
            "Usage.Frequency": self.usage_frequency,
        }[variable]


def correct_new_users(records: list[UsageRecord]) -> list[UsageRecord]:
    """Raise daily new-user counts just enough that their running total
    never falls below the day's concurrent user count."""
    for earlier, later in zip(records, records[1:]):
        if later.date < earlier.date:
            raise UnsortedInputError("records must be sorted by date")
    corrected = []
    cumulative = 0
    for record in records:
        deficit = record.users - (cumulative + record.new_users)
        if deficit > 0:
            record = replace(record, new_users=record.new_users + deficit)
        cumulative += record.new_users
        corrected.append(record)
    return corrected


def aggregate_release(records: list[UsageRecord]) -> ReleaseAggregate:
    """Collapse one release's corrected daily records into a single row."""
    if not records:
        raise EmptyReleaseError("release has no records")
    first = min(r.date for r in records)
    last = max(r.date for r in records)
    new_users = sum(r.new_users for r in records)
    time_on_site = sum(r.time_on_site for r in records)
    new_visits = sum(r.new_visits for r in records)
    zero_users = new_users == 0
    return ReleaseAggregate(
        release=records[0].release,
        release_date=(first - EPOCH).days,
        release_duration=(last - first).days + 1,
        exceptions=sum(r.exceptions for r in records),
        new_users=new_users,
        usage_intensity=0.0 if zero_users else time_on_site / new_users,
        usage_frequency=0.0 if zero_users else new_visits / new_users,
        zero_users=zero_users,
    )


def aggregate_usage(records: list[UsageRecord]) -> list[ReleaseAggregate]:
    """Correct and aggregate a mixed-release record stream."""
    by_release: dict[str, list[UsageRecord]] = {}
    for record in records:
        by_release.setdefault(record.release, []).append(record)
    aggregates = []
    for release in by_release:
        chronological = sorted(by_release[release], key=lambda r: r.date)
        aggregates.append(aggregate_release(correct_new_users(chronological)))
    aggregates.sort(key=lambda a: (a.release_date, a.release))
    return aggregates


def log_transform(aggregates: list[ReleaseAggregate],
                  policy: str = LOG1P) -> Dataset:
    """Dataset of the six per-release variables on the log scale.

    The release date is its numeric day count before transforming.  log1p
    tolerates the zeros this data genuinely contains; strict-log refuses
    them.
    """
    if policy not in (LOG1P, STRICT_LOG):
        raise ValueError(f"unknown policy {policy!r}")
    if not aggregates:
        raise EmptyReleaseError("no aggregates to transform")
    rows = np.array([[a.value(v) for v in RELEASE_VARIABLES] for a in aggregates])
    if policy == STRICT_LOG:
        if np.any(rows <= 0):
            raise NonPositiveValuesError("strict-log requires positive values")
        rows = np.log(rows)
    else:
        if np.any(rows < 0):
            raise NonPositiveValuesError("log1p requires non-negative values")
        rows = np.log1p(rows)
    return Dataset(VariableSet(RELEASE_VARIABLES), rows)


def quality_metric(failures: float | np.ndarray,
                   usage: float | np.ndarray) -> float | np.ndarray:
    """Failures per unit usage; 0 whenever failures are 0, +inf as a
    flagged sentinel when usage is 0 but failures are not.

    Scalars give a float; arrays give the rule element by element.
    """
    failures = np.asarray(failures, dtype=float)
    usage = np.asarray(usage, dtype=float)
    if np.any(usage < 0):
        raise ValueError("usage must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        quality = np.where(failures == 0, 0.0,
                           np.where(usage == 0, np.inf, failures / usage))
    return quality if quality.ndim else float(quality)


@dataclass(frozen=True)
class DailySeries:
    """Per-day downloads and cumulative issue counts for one package."""

    package: str
    days: tuple[dt.date, ...]
    downloads: np.ndarray
    cumulative_issues: np.ndarray

    def __post_init__(self):
        downloads = np.asarray(self.downloads, dtype=np.int64)
        issues = np.asarray(self.cumulative_issues, dtype=np.int64)
        if not (len(self.days) == downloads.shape[0] == issues.shape[0]):
            raise ValueError("days, downloads and issues must align")
        if not all(map(operator.lt, self.days, self.days[1:])):
            raise ValueError("days must be strictly increasing")
        if np.any(np.diff(issues, prepend=0) < 0):
            raise ValueError("cumulative issues must be >= 0 and nondecreasing")
        if np.any(downloads < 0):
            raise ValueError("downloads must be >= 0")
        object.__setattr__(self, "downloads", downloads)
        object.__setattr__(self, "cumulative_issues", issues)

    @property
    def n_days(self) -> int:
        return len(self.days)


MIN_TREND_DAYS = 10


@dataclass(frozen=True)
class Timeline:
    package: str
    days: tuple[dt.date, ...]
    downloads: np.ndarray
    new_issues: np.ndarray
    quality: np.ndarray            # inf on flagged days
    flagged: np.ndarray            # zero-download day with new issues
    excluded_from_trend: np.ndarray
    trend: np.ndarray | None       # None when too few usable days


def timeline(series: DailySeries, span: float = 0.3) -> Timeline:
    """Daily quality (new issues per download) plus a smooth trend.

    New issues are first differences of the cumulative count.  Zero-download
    days cannot be rated, so they are flagged and left out of the trend
    fit; the trend is still evaluated at every day.
    """
    if not 0 < span <= 1:
        raise ValueError("span must be in (0, 1]")
    new_issues = np.diff(series.cumulative_issues, prepend=0)
    downloads = series.downloads
    quality = quality_metric(new_issues, downloads)
    flagged = np.isinf(quality)
    usable = downloads > 0
    trend = None
    if int(usable.sum()) >= MIN_TREND_DAYS:
        x = np.arange(series.n_days, dtype=float)
        trend = loess(x[usable], quality[usable], x_eval=x, span=span)
    return Timeline(series.package, series.days, downloads, new_issues, quality,
                    flagged, ~usable, trend)


@dataclass(frozen=True)
class ScreenResult:
    slope_p_value: float
    r_squared: float
    n_days: int
    date_controlled: bool


def screen_significance(series: DailySeries,
                        with_date_control: bool = False) -> ScreenResult:
    """Does download volume predict that day's new issues?

    OLS of daily new issues on downloads, optionally with the calendar day
    as a control (soaking up slow drifts such as automated download
    traffic); reports the downloads p-value and the model R^2.
    """
    if series.n_days < MIN_TREND_DAYS:
        raise InsufficientDataError(
            f"need at least {MIN_TREND_DAYS} days, got {series.n_days}")
    new_issues = np.diff(series.cumulative_issues, prepend=0).astype(float)
    x = series.downloads.astype(float)[:, None]
    if with_date_control:
        day_numbers = np.array([(d - EPOCH).days for d in series.days], dtype=float)
        x = np.column_stack([x, day_numbers])
    fit = fit_ols(new_issues, x)
    return ScreenResult(float(fit.p_values[0]), fit.r_squared, series.n_days,
                        with_date_control)


def direction_of_trend(trend: np.ndarray, flat_band: float = 1e-3) -> str:
    """Sign of the end-to-end trend change, with a flatness band of
    ``flat_band`` times the trend's range."""
    trend = np.asarray(trend, dtype=float)
    if trend.size < 2:
        return FLAT
    delta = float(trend[-1] - trend[0])
    band = flat_band * float(np.ptp(trend))
    if abs(delta) <= band:
        return FLAT
    return INCREASING if delta > 0 else DECREASING

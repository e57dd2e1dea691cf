"""Data acquisition: usage CSVs, registry download counts, issue timelines.

Every HTTP response is cached content-addressed on disk, so a warm cache
replays analyses bit for bit with zero network traffic.  Live calls go
through a pluggable transport; tests plug in recorded fixtures, the CLI
plugs in requests only when explicitly asked to go live.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import logging
import math
import re
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Callable
from urllib.parse import quote

import numpy as np

from .quality import DailySeries, UsageRecord

log = logging.getLogger(__name__)

USAGE_HEADER = ("date", "release", "new_users", "users", "new_visits",
                "visits", "time_on_site", "exceptions")


class SchemaMismatchError(ValueError):
    """CSV header does not match the usage-record schema."""


class ParseError(ValueError):
    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


class HttpError(RuntimeError):
    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} for {url}")
        self.status = status
        self.url = url


class RateLimitedError(RuntimeError):
    """Retries exhausted while the server kept rate limiting."""


class OfflineCacheMissError(RuntimeError):
    """Cold cache and no live transport; rerun with live fetching enabled."""


class TruncatedPaginationError(RuntimeError):
    """Pagination broke off before the advertised last page."""


class MalformedBodyError(ValueError):
    """A 200 response whose body is not JSON, or not JSON of the shape the
    endpoint promises."""


class GapInSeriesError(ValueError):
    """Downloads do not cover the requested date range."""


def load_usage_csv(path: str | Path) -> list[UsageRecord]:
    """Typed usage records from CSV; bad rows are rejected by file and line."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != USAGE_HEADER:
            raise SchemaMismatchError(
                f"{path}: expected header {','.join(USAGE_HEADER)}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(USAGE_HEADER):
                raise ParseError(path, lineno, f"expected {len(USAGE_HEADER)} fields")
            try:
                records.append(UsageRecord(
                    date=dt.date.fromisoformat(row[0]),
                    release=row[1],
                    new_users=int(row[2]),
                    users=int(row[3]),
                    new_visits=int(row[4]),
                    visits=int(row[5]),
                    time_on_site=float(row[6]),
                    exceptions=int(row[7]),
                ))
            except (ValueError, TypeError) as exc:
                raise ParseError(path, lineno, str(exc)) from None
    return records


def write_usage_csv(path: str | Path, records: list[UsageRecord]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(USAGE_HEADER)
        for r in records:
            writer.writerow([r.date.isoformat(), r.release, r.new_users,
                             r.users, r.new_visits, r.visits,
                             ("%g" % r.time_on_site), r.exceptions])


# ---------------------------------------------------------------------------
# transport and cache


@dataclass(frozen=True)
class TransportResponse:
    status: int
    headers: dict[str, str]
    body: bytes


Transport = Callable[[str, dict, dict], TransportResponse]


def requests_transport(timeout: float = 30.0) -> Transport:
    """Live transport; imported lazily so offline use never needs it."""
    import requests

    def fetch(url: str, params: dict, headers: dict) -> TransportResponse:
        response = requests.get(url, params=params, headers=headers,
                                timeout=timeout)
        return TransportResponse(response.status_code,
                                 {k.lower(): v for k, v in response.headers.items()},
                                 response.content)
    return fetch


class HttpCache:
    """Content-addressed response store: write-once, never evicted.

    Bodies live under objects/<key>; a JSON sidecar, objects/<key>.meta.json,
    keeps the status and headers and records the request (url and params)
    the key stands for.  There is no shared index: a put writes only its
    own two files, each through a temp file and rename, so readers never
    see a torn entry and concurrent writers, in this process or another,
    never lose each other's entries.  ``get`` reads only the status, the
    headers and the body, so caches written with an index.json replay too;
    a sidecar without a readable status and headers is a ``MalformedBodyError``.
    """

    def __init__(self, cache_dir: str | Path):
        self.root = Path(cache_dir)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(url: str, params: dict | None) -> str:
        canonical = url + "?" + json.dumps(params or {}, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def get(self, key: str) -> TransportResponse | None:
        body_path = self.objects / key
        meta_path = self.objects / f"{key}.meta.json"
        if not body_path.exists() or not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text())
            status, headers = meta["status"], meta["headers"]
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedBodyError(f"cache sidecar {meta_path} has no status and headers: "
                                     f"{type(exc).__name__}: {exc}") from None
        return TransportResponse(status, headers, body_path.read_bytes())

    def put(self, key: str, url: str, params: dict | None,
            response: TransportResponse) -> None:
        self._atomic_write(self.objects / key, response.body)
        meta = {"status": response.status, "headers": response.headers,
                "url": url, "params": params or {},
                "fetched_at": dt.datetime.now(dt.timezone.utc).isoformat()}
        self._atomic_write(self.objects / f"{key}.meta.json",
                           json.dumps(meta, indent=2).encode())

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        # a temp name of its own, so concurrent writers of one key (other
        # HttpCache instances, other processes) never share a temp file
        tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            with tmp.open("xb") as handle:
                handle.write(payload)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


RETRYABLE = frozenset({429, 500, 502, 503, 504})


def _retry_after_seconds(value: str | None, now: float) -> float | None:
    """Seconds to wait from a ``Retry-After`` header, in either RFC 9110
    form: delay-seconds or an HTTP-date (a date in the past means no
    wait).  None when the header is absent or cannot be parsed."""
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        try:
            when = parsedate_to_datetime(value)
        except (TypeError, ValueError, IndexError):
            return None
        if when.tzinfo is None:   # the obsolete asctime form carries no zone
            when = when.replace(tzinfo=dt.timezone.utc)
        return max(0.0, when.timestamp() - now)
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


class CachedHttp:
    """Cache-first HTTP with retry, backoff, and rate-limit patience."""

    def __init__(self, cache: HttpCache, transport: Transport | None = None,
                 max_attempts: int = 5, backoff: float = 0.5,
                 sleeper: Callable[[float], None] = time.sleep):
        self.cache = cache
        self.transport = transport
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.sleeper = sleeper
        self.network_calls = 0
        self._lock = threading.Lock()

    def get_json(self, url: str, params: dict | None = None,
                 headers: dict | None = None,
                 parse: Callable[[object], object] = lambda payload: payload
                 ) -> tuple[TransportResponse, object]:
        """The response and ``parse`` of its body read as JSON, from the
        cache or fetched.  A body is parsed before it is cached: one that is
        not JSON, or that ``parse`` rejects (ValueError, TypeError,
        KeyError, AttributeError), raises ``MalformedBodyError`` and leaves
        no cache entry, so replays never meet it and a later live fetch can
        still succeed."""
        key = self.cache.key(url, params)
        response = self.cache.get(key)
        fetched = response is None
        if fetched:
            if self.transport is None:
                raise OfflineCacheMissError(
                    f"no cached response for {url} and live fetching is disabled; "
                    "rerun with live mode enabled to populate the cache")
            response = self._fetch_with_retry(url, params or {}, headers or {})
        try:
            payload = json.loads(response.body)
        except ValueError as exc:   # JSONDecodeError, or bytes that are not text
            raise MalformedBodyError(f"body of {url} is not JSON: {exc}") from None
        try:
            payload = parse(payload)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise MalformedBodyError(f"body of {url} has the wrong shape: "
                                     f"{type(exc).__name__}: {exc}") from None
        if fetched:
            self.cache.put(key, url, params, response)
        return response, payload

    def _fetch_with_retry(self, url: str, params: dict,
                          headers: dict) -> TransportResponse:
        wait = self.backoff
        for attempt in range(1, self.max_attempts + 1):
            with self._lock:
                self.network_calls += 1
            response = self.transport(url, params, headers)
            if response.status == 200:
                return response
            if response.status not in RETRYABLE:
                raise HttpError(response.status, url)
            if attempt == self.max_attempts:
                if response.status == 429:
                    raise RateLimitedError(f"rate limited at {url} "
                                           f"after {attempt} attempts")
                raise HttpError(response.status, url)
            pause = _retry_after_seconds(response.headers.get("retry-after"),
                                         time.time())
            if pause is None:
                pause = wait
            log.debug("retrying %s in %.1fs (HTTP %d)", url, pause, response.status)
            self.sleeper(pause)
            wait *= 2
    # unreachable: the loop either returns or raises


# ---------------------------------------------------------------------------
# fetch specifications and clients

NPM_DOWNLOADS_API = "https://api.npmjs.org/downloads/range"
GITHUB_API = "https://api.github.com"


@dataclass(frozen=True)
class FetchSpec:
    packages: tuple[str, ...]
    start: dt.date
    end: dt.date
    downloads_api_base: str = NPM_DOWNLOADS_API
    issues_api_base: str = GITHUB_API
    token: str | None = None
    include_pulls: bool = False
    max_window_days: int = 540   # the registry rejects longer range queries

    def __post_init__(self):
        if not self.packages:
            raise ValueError("need at least one package")
        if self.start > self.end:
            raise ValueError("start must be on or before end")
        if self.max_window_days < 1:
            raise ValueError("max_window_days must be >= 1")


def _windows(start: dt.date, end: dt.date, width: int):
    cursor = start
    while cursor <= end:
        stop = min(cursor + dt.timedelta(days=width - 1), end)
        yield cursor, stop
        cursor = stop + dt.timedelta(days=1)


@dataclass(frozen=True)
class PackageDownloads:
    package: str
    days: tuple[dt.date, ...]
    downloads: np.ndarray
    gaps: tuple[dt.date, ...]   # days the API skipped; flagged, never invented


@dataclass
class FetchResult:
    downloads: dict[str, PackageDownloads] = field(default_factory=dict)
    issues: dict[str, tuple[dt.date, ...]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.errors) and (bool(self.downloads) or bool(self.issues))


def _download_rows(payload) -> dict[dt.date, int]:
    """The count per day of a download-range body."""
    return {dt.date.fromisoformat(row["day"]): int(row["downloads"])
            for row in payload.get("downloads", [])}


def fetch_downloads(spec: FetchSpec, http: CachedHttp,
                    politeness: int = 4) -> FetchResult:
    """Per-day download counts for every package over the range.

    Ranges longer than the endpoint's window limit are chunked and merged;
    a failing package is reported in ``errors`` without sinking the batch.
    """
    all_days = [spec.start + dt.timedelta(days=i)
                for i in range((spec.end - spec.start).days + 1)]

    def one(package: str):
        per_day: dict[dt.date, int] = {}
        for lo, hi in _windows(spec.start, spec.end, spec.max_window_days):
            url = (f"{spec.downloads_api_base}/"
                   f"{lo.isoformat()}:{hi.isoformat()}/{quote(package, safe='@/')}")
            _, rows = http.get_json(url, parse=_download_rows)
            per_day.update(rows)
        days = sorted(per_day)
        gaps = tuple(d for d in all_days if d not in per_day)
        if gaps:
            log.warning("%s: %d missing days in download series",
                        package, len(gaps))
        return PackageDownloads(package, tuple(days),
                                np.array([per_day[d] for d in days], dtype=np.int64),
                                gaps)

    downloads, errors = _fetch_each(spec.packages, one, politeness)
    return FetchResult(downloads=downloads, errors=errors)


def _fetch_each(names: tuple[str, ...], one: Callable[[str], object],
                politeness: int) -> tuple[dict, dict[str, str]]:
    """``one(name)`` for every name on ``politeness`` threads: the results,
    and the message of each name whose fetch failed, both by name."""
    if politeness < 1:
        raise ValueError(f"politeness must be >= 1, got {politeness}")
    with ThreadPoolExecutor(max_workers=politeness) as pool:
        futures = {name: pool.submit(one, name) for name in names}
    results, errors = {}, {}
    for name, future in futures.items():
        try:
            results[name] = future.result()
        except (HttpError, RateLimitedError, OfflineCacheMissError,
                MalformedBodyError, TruncatedPaginationError) as exc:
            errors[name] = str(exc)
    return results, errors


_LINK_NEXT = re.compile(r'<([^>]+)>\s*;\s*rel="next"')


def _next_link(headers: dict[str, str]) -> str | None:
    match = _LINK_NEXT.search(headers.get("link", ""))
    return match.group(1) if match else None


def _issue_rows(items) -> list[tuple[dt.date, bool]]:
    """(creation day, is a pull request) per item of an issue-list page."""
    rows = []
    for item in items:
        if not isinstance(item, dict):
            raise TypeError(f"issue item is a {type(item).__name__}, not an object")
        created = dt.datetime.fromisoformat(item["created_at"].replace("Z", "+00:00"))
        rows.append((created.date(), "pull_request" in item))
    return rows


def fetch_issues(spec: FetchSpec, http: CachedHttp,
                 politeness: int = 4) -> FetchResult:
    """Issue creation dates per repository, paginated to exhaustion.

    Open and closed issues both count (resolution speed says little about
    how many problems users hit); pull requests are excluded unless asked
    for.  A page failing mid-stream surfaces as truncated pagination.
    """
    def one(repo: str):
        headers = {"accept": "application/vnd.github+json"}
        if spec.token:
            headers["authorization"] = f"Bearer {spec.token}"
        url = f"{spec.issues_api_base}/repos/{repo}/issues"
        params = {"state": "all", "per_page": 100, "page": 1}
        dates: list[dt.date] = []
        page = 1
        while True:
            try:
                response, rows = http.get_json(url, params=params, headers=headers,
                                               parse=_issue_rows)
            except (HttpError, RateLimitedError, MalformedBodyError) as exc:
                if page == 1:
                    raise
                raise TruncatedPaginationError(
                    f"{repo}: pagination broke at page {page}: {exc}") from exc
            dates += [day for day, pull in rows if spec.include_pulls or not pull]
            nxt = _next_link(response.headers)
            if not nxt:
                break
            url, params = nxt, None
            page += 1
        return tuple(dates)

    issues, errors = _fetch_each(spec.packages, one, politeness)
    return FetchResult(issues=issues, errors=errors)


def build_daily_series(package: str, downloads: PackageDownloads,
                       issue_dates: tuple[dt.date, ...],
                       start: dt.date, end: dt.date) -> DailySeries:
    """Align downloads with a running issue count over [start, end].

    The cumulative count on a day is the number of issues created on or
    before it; days before the first issue sit at zero.
    """
    n_days = (end - start).days + 1
    # each download's offset into the span; days outside it are ignored
    offset = _ordinals(downloads.days) - start.toordinal()
    inside = (offset >= 0) & (offset < n_days)
    column = np.zeros(n_days, dtype=np.int64)
    column[offset[inside]] = np.asarray(downloads.downloads)[inside]
    covered = np.zeros(n_days, dtype=bool)
    covered[offset[inside]] = True
    if not covered.all():
        missing = np.flatnonzero(~covered)
        raise GapInSeriesError(
            f"{package}: downloads missing for {missing.size} days "
            f"(first: {start + dt.timedelta(days=int(missing[0]))})")
    cumulative = np.searchsorted(np.sort(_ordinals(issue_dates)),
                                 np.arange(n_days) + start.toordinal(),
                                 side="right")
    span = np.arange(start, end + dt.timedelta(days=1), dtype="datetime64[D]")
    return DailySeries(package, tuple(span.tolist()), column, cumulative)


def _ordinals(days) -> np.ndarray:
    """Proleptic Gregorian ordinals of a sequence of dates."""
    return np.fromiter((d.toordinal() for d in days), dtype=np.int64,
                       count=len(days))


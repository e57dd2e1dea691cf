import datetime as dt
import json
import threading
from email.utils import format_datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.ingest import (
    CachedHttp,
    FetchSpec,
    GapInSeriesError,
    HttpCache,
    HttpError,
    OfflineCacheMissError,
    ParseError,
    RateLimitedError,
    SchemaMismatchError,
    TransportResponse,
    build_daily_series,
    fetch_downloads,
    fetch_issues,
    filter_popular,
    load_usage_csv,
    write_usage_csv,
)
from relqual.quality import UsageRecord

START = dt.date(2018, 1, 1)


class FixtureTransport:
    """Recorded responses keyed by (url, params); counts live hits."""

    def __init__(self, fixtures):
        self.fixtures = fixtures
        self.calls = 0

    def __call__(self, url, params, headers):
        self.calls += 1
        key = (url, json.dumps(params or {}, sort_keys=True))
        if key not in self.fixtures:
            return TransportResponse(404, {}, b"{}")
        value = self.fixtures[key]
        if isinstance(value, TransportResponse):
            return value
        return TransportResponse(200, value[0], json.dumps(value[1]).encode())


def downloads_fixture(package, start, days, base="https://api.npmjs.org/downloads/range"):
    end = start + dt.timedelta(days=days - 1)
    payload = {"downloads": [
        {"day": (start + dt.timedelta(days=i)).isoformat(), "downloads": 100 + i}
        for i in range(days)
    ]}
    url = f"{base}/{start.isoformat()}:{end.isoformat()}/{package}"
    return url, payload


# --- usage CSV -------------------------------------------------------------


def test_usage_csv_round_trip(tmp_path):
    records = [
        UsageRecord(START, "1.0", 5, 5, 10, 12, 300.5, 2),
        UsageRecord(START + dt.timedelta(days=1), "1.0", 0, 4, 3, 3, 120.0, 0),
    ]
    path = tmp_path / "usage.csv"
    write_usage_csv(path, records)
    assert load_usage_csv(path) == records


def test_usage_csv_empty_body(tmp_path):
    path = tmp_path / "usage.csv"
    path.write_text("date,release,new_users,users,new_visits,visits,time_on_site,exceptions\n")
    assert load_usage_csv(path) == []


def test_usage_csv_rejects_negative_counts(tmp_path):
    path = tmp_path / "usage.csv"
    path.write_text(
        "date,release,new_users,users,new_visits,visits,time_on_site,exceptions\n"
        "2018-01-01,1.0,5,-1,0,0,10,0\n")
    with pytest.raises(ParseError) as err:
        load_usage_csv(path)
    assert err.value.line == 2


def test_usage_csv_header_mismatch(tmp_path):
    path = tmp_path / "usage.csv"
    path.write_text("date,release,users\n")
    with pytest.raises(SchemaMismatchError):
        load_usage_csv(path)


# --- cache and transport ----------------------------------------------------


def test_warm_cache_replays_without_network(tmp_path):
    url, payload = downloads_fixture("left-pad", START, 31)
    transport = FixtureTransport({(url, "{}"): ({}, payload)})
    spec = FetchSpec(("left-pad",), START, START + dt.timedelta(days=30),
                     cache_dir=tmp_path)

    http = CachedHttp(HttpCache(tmp_path), transport)
    first = fetch_downloads(spec, http)
    assert first.downloads["left-pad"].downloads.shape == (31,)
    assert transport.calls == 1

    # fresh client, same cache dir, no transport at all
    offline = CachedHttp(HttpCache(tmp_path), transport=None)
    second = fetch_downloads(spec, offline)
    assert offline.network_calls == 0
    assert np.array_equal(second.downloads["left-pad"].downloads,
                          first.downloads["left-pad"].downloads)
    assert second.downloads["left-pad"].days == first.downloads["left-pad"].days


def test_cold_cache_offline_raises_with_instruction(tmp_path):
    http = CachedHttp(HttpCache(tmp_path), transport=None)
    with pytest.raises(OfflineCacheMissError, match="live"):
        http.get_json("https://api.npmjs.org/downloads/range/x:y/pkg")


def test_chunked_fetch_equals_whole_range(tmp_path):
    days = 20
    end = START + dt.timedelta(days=days - 1)
    url_whole, payload = downloads_fixture("pkg", START, days)
    # the same series split at day 12
    split = START + dt.timedelta(days=11)
    rows = payload["downloads"]
    url_a = f"https://api.npmjs.org/downloads/range/{START}:{split}/pkg"
    url_b = f"https://api.npmjs.org/downloads/range/{split + dt.timedelta(days=1)}:{end}/pkg"
    fixtures = {
        (url_whole, "{}"): ({}, payload),
        (url_a, "{}"): ({}, {"downloads": rows[:12]}),
        (url_b, "{}"): ({}, {"downloads": rows[12:]}),
    }
    whole = fetch_downloads(
        FetchSpec(("pkg",), START, end, cache_dir=tmp_path / "a"),
        CachedHttp(HttpCache(tmp_path / "a"), FixtureTransport(fixtures)))
    chunked = fetch_downloads(
        FetchSpec(("pkg",), START, end, cache_dir=tmp_path / "b",
                  max_window_days=12),
        CachedHttp(HttpCache(tmp_path / "b"), FixtureTransport(fixtures)))
    assert whole.downloads["pkg"].days == chunked.downloads["pkg"].days
    assert np.array_equal(whole.downloads["pkg"].downloads,
                          chunked.downloads["pkg"].downloads)
    assert whole.downloads["pkg"].gaps == chunked.downloads["pkg"].gaps == ()


def test_unknown_package_surfaces_per_package(tmp_path):
    url, payload = downloads_fixture("good", START, 3)
    transport = FixtureTransport({(url, "{}"): ({}, payload)})
    spec = FetchSpec(("good", "missing"), START, START + dt.timedelta(days=2),
                     cache_dir=tmp_path)
    result = fetch_downloads(spec, CachedHttp(HttpCache(tmp_path), transport))
    assert "good" in result.downloads
    assert "missing" in result.errors and "404" in result.errors["missing"]
    assert result.partial


def test_gap_in_downloads_flagged_not_invented(tmp_path):
    end = START + dt.timedelta(days=4)
    url = f"https://api.npmjs.org/downloads/range/{START}:{end}/pkg"
    rows = [{"day": (START + dt.timedelta(days=i)).isoformat(), "downloads": 5}
            for i in (0, 1, 3, 4)]  # day 2 missing
    transport = FixtureTransport({(url, "{}"): ({}, {"downloads": rows})})
    result = fetch_downloads(FetchSpec(("pkg",), START, end, cache_dir=tmp_path),
                             CachedHttp(HttpCache(tmp_path), transport))
    pkg = result.downloads["pkg"]
    assert pkg.gaps == (START + dt.timedelta(days=2),)
    assert pkg.downloads.shape == (4,)


def test_rate_limit_honors_retry_after_then_succeeds(tmp_path):
    url = "https://api.npmjs.org/downloads/range/2018-01-01:2018-01-01/pkg"
    payload = {"downloads": [{"day": "2018-01-01", "downloads": 7}]}
    responses = [TransportResponse(429, {"retry-after": "3"}, b""),
                 TransportResponse(200, {}, json.dumps(payload).encode())]
    calls = {"i": 0}

    def transport(u, params, headers):
        response = responses[min(calls["i"], 1)]
        calls["i"] += 1
        return response

    naps = []
    http = CachedHttp(HttpCache(tmp_path), transport, sleeper=naps.append)
    _, body = http.get_json(url)
    assert body == payload
    assert naps == [3.0]


def _retry_once(retry_after):
    """A transport that answers 429 with ``retry_after`` once, then 200."""
    payload = {"downloads": [{"day": "2018-01-01", "downloads": 7}]}
    responses = [TransportResponse(429, {"retry-after": retry_after}, b""),
                 TransportResponse(200, {}, json.dumps(payload).encode())]
    calls = {"i": 0}

    def transport(u, params, headers):
        response = responses[min(calls["i"], 1)]
        calls["i"] += 1
        return response
    return transport


@pytest.mark.parametrize("retry_after, expected", [
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),       # IMF-fixdate, in the past
    ("Sunday, 06-Nov-94 08:49:37 GMT", 0.0),      # obsolete RFC 850 form
    ("Sun Nov  6 08:49:37 1994", 0.0),            # obsolete asctime form
    ("soon", 0.5),                                # unparseable: backoff
    ("-3", 0.5),
    ("nan", 0.5),
])
def test_retry_after_http_date_and_garbage(tmp_path, retry_after, expected):
    naps = []
    http = CachedHttp(HttpCache(tmp_path), _retry_once(retry_after),
                      backoff=0.5, sleeper=naps.append)
    http.get_json("https://api.example/x")
    assert naps == [expected]


def test_retry_after_future_http_date_waits_until_then(tmp_path):
    when = dt.datetime.now(dt.timezone.utc) + dt.timedelta(seconds=120)
    naps = []
    http = CachedHttp(HttpCache(tmp_path),
                      _retry_once(format_datetime(when, usegmt=True)),
                      sleeper=naps.append)
    http.get_json("https://api.example/x")
    assert len(naps) == 1 and 110 <= naps[0] <= 120


def test_http_date_retry_after_does_not_sink_the_batch(tmp_path):
    url, payload = downloads_fixture("pkg", START, 3)
    attempts = {"n": 0}

    def transport(u, params, headers):
        attempts["n"] += 1
        if attempts["n"] == 1:
            return TransportResponse(429, {"retry-after": "Wed, 21 Oct 2015 07:28:00 GMT"}, b"")
        return FixtureTransport({(url, "{}"): ({}, payload)})(u, params, headers)

    spec = FetchSpec(("pkg",), START, START + dt.timedelta(days=2), cache_dir=tmp_path)
    result = fetch_downloads(spec, CachedHttp(HttpCache(tmp_path), transport,
                                              sleeper=lambda s: None), politeness=1)
    assert result.errors == {}
    assert result.downloads["pkg"].downloads.tolist() == [100, 101, 102]


def test_concurrent_puts_of_one_key_from_two_caches(tmp_path):
    caches = [HttpCache(tmp_path), HttpCache(tmp_path)]
    key = HttpCache.key("https://api.example/x", None)
    response = TransportResponse(200, {}, b"x" * 4096)
    errors = []

    def writer(cache):
        try:
            for _ in range(100):
                cache.put(key, "https://api.example/x", None, response)
        except Exception as exc:  # collected and asserted below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(c,)) for c in caches * 2]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert list(tmp_path.rglob("*.tmp")) == []
    assert caches[0].get(key).body == response.body


def test_concurrent_puts_from_two_caches_record_every_request(tmp_path):
    caches = [HttpCache(tmp_path), HttpCache(tmp_path)]
    errors = []

    def requests(t):
        return [(f"https://api.example/{t}/{i}", {"page": i}) for i in range(100)]

    def writer(t):
        try:
            for url, params in requests(t):
                caches[t].put(HttpCache.key(url, params), url, params,
                              TransportResponse(200, {}, url.encode()))
        except Exception as exc:  # collected and asserted below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for t in (0, 1):
        for url, params in requests(t):
            key = HttpCache.key(url, params)
            meta = json.loads((tmp_path / "objects" / f"{key}.meta.json").read_text())
            assert (meta["url"], meta["params"]) == (url, params)
            assert caches[1 - t].get(key).body == url.encode()
    assert not (tmp_path / "index.json").exists()


def test_cache_written_with_an_index_still_replays(tmp_path):
    # the older layout: a sidecar without the request, plus index.json
    key = HttpCache.key("https://api.example/x", None)
    objects = tmp_path / "objects"
    objects.mkdir()
    (objects / key).write_bytes(b'{"x": 1}')
    (objects / f"{key}.meta.json").write_text(json.dumps(
        {"status": 200, "headers": {"etag": "1"}, "fetched_at": "2020-01-01"}))
    (tmp_path / "index.json").write_text(json.dumps(
        {key: {"url": "https://api.example/x", "params": {}}}))
    http = CachedHttp(HttpCache(tmp_path), transport=None)
    assert http.get_json("https://api.example/x") == (
        TransportResponse(200, {"etag": "1"}, b'{"x": 1}'), {"x": 1})


def test_rate_limit_exhaustion_raises(tmp_path):
    def transport(u, params, headers):
        return TransportResponse(429, {}, b"")

    naps = []
    http = CachedHttp(HttpCache(tmp_path), transport, max_attempts=3,
                      sleeper=naps.append)
    with pytest.raises(RateLimitedError):
        http.get_json("https://api.example/x")
    assert len(naps) == 2  # no sleep after the final attempt
    assert naps[1] > naps[0]  # exponential backoff


def test_hard_http_error_not_retried(tmp_path):
    transport = FixtureTransport({})
    http = CachedHttp(HttpCache(tmp_path), transport)
    with pytest.raises(HttpError):
        http.get_json("https://api.example/missing")
    assert transport.calls == 1


# --- issues -----------------------------------------------------------------


def issue_items(n, start_day, pulls=0):
    items = []
    for i in range(n):
        item = {"created_at": (start_day + dt.timedelta(days=i % 30)).isoformat()
                + "T10:00:00Z", "number": i}
        items.append(item)
    for i in range(pulls):
        items.append({"created_at": start_day.isoformat() + "T11:00:00Z",
                      "pull_request": {"url": "x"}, "number": 1000 + i})
    return items


def test_issue_pagination_three_pages(tmp_path):
    base = "https://api.github.com/repos/o/r/issues"
    page2 = base + "?page=2"
    page3 = base + "?page=3"
    fixtures = {
        (base, json.dumps({"page": 1, "per_page": 100, "state": "all"}, sort_keys=True)):
            ({"link": f'<{page2}>; rel="next"'}, issue_items(100, START)),
        (page2, "{}"): ({"link": f'<{page3}>; rel="next"'}, issue_items(100, START)),
        (page3, "{}"): ({}, issue_items(37, START)),
    }
    spec = FetchSpec(("o/r",), START, START + dt.timedelta(days=30),
                     cache_dir=tmp_path)
    result = fetch_issues(spec, CachedHttp(HttpCache(tmp_path),
                                           FixtureTransport(fixtures)))
    assert len(result.issues["o/r"]) == 237


def test_issue_pull_requests_excluded_by_default(tmp_path):
    base = "https://api.github.com/repos/o/r/issues"
    fixtures = {
        (base, json.dumps({"page": 1, "per_page": 100, "state": "all"}, sort_keys=True)):
            ({}, issue_items(5, START, pulls=3)),
    }
    spec = FetchSpec(("o/r",), START, START + dt.timedelta(days=5),
                     cache_dir=tmp_path)
    result = fetch_issues(spec, CachedHttp(HttpCache(tmp_path),
                                           FixtureTransport(fixtures)))
    assert len(result.issues["o/r"]) == 5

    spec_pulls = FetchSpec(("o/r",), START, START + dt.timedelta(days=5),
                           cache_dir=tmp_path / "p", include_pulls=True)
    result_pulls = fetch_issues(spec_pulls,
                                CachedHttp(HttpCache(tmp_path / "p"),
                                           FixtureTransport(fixtures)))
    assert len(result_pulls.issues["o/r"]) == 8


def test_issue_zero_issue_repo(tmp_path):
    base = "https://api.github.com/repos/o/empty/issues"
    fixtures = {
        (base, json.dumps({"page": 1, "per_page": 100, "state": "all"}, sort_keys=True)):
            ({}, []),
    }
    spec = FetchSpec(("o/empty",), START, START + dt.timedelta(days=5),
                     cache_dir=tmp_path)
    result = fetch_issues(spec, CachedHttp(HttpCache(tmp_path),
                                           FixtureTransport(fixtures)))
    assert result.issues["o/empty"] == ()


def test_issue_truncated_pagination_detected(tmp_path):
    base = "https://api.github.com/repos/o/r/issues"
    page2 = base + "?page=2"
    fixtures = {
        (base, json.dumps({"page": 1, "per_page": 100, "state": "all"}, sort_keys=True)):
            ({"link": f'<{page2}>; rel="next"'}, issue_items(100, START)),
        # page2 missing -> fixture transport answers 404
    }
    spec = FetchSpec(("o/r",), START, START + dt.timedelta(days=5),
                     cache_dir=tmp_path)
    result = fetch_issues(spec, CachedHttp(HttpCache(tmp_path),
                                           FixtureTransport(fixtures)))
    assert "o/r" in result.errors
    assert "page 2" in result.errors["o/r"]


# --- bodies that are not JSON, or not of the promised shape --------------------

# JSON that a download-range endpoint never sends: a day that is no date, a
# row without its count, a list in place of the object
WRONG_SHAPE_DOWNLOADS = [b'{"downloads": [{"day": "soon", "downloads": 1}]}',
                         b'{"downloads": [{"day": "2020-01-01"}]}',
                         b'[{"day": "2020-01-01", "downloads": 1}]']


@pytest.mark.parametrize("bad_body", [b"<html>502 Bad Gateway</html>", b"",
                                      b"\xff\xfe{}", b'{"downloads": [',
                                      *WRONG_SHAPE_DOWNLOADS])
def test_non_json_body_is_reported_and_never_cached(tmp_path, bad_body):
    calm_url, payload = downloads_fixture("calm", START, 3)
    bad_url, _ = downloads_fixture("bad-body", START, 3)
    fixtures = {(calm_url, "{}"): ({}, payload),
                (bad_url, "{}"): TransportResponse(200, {}, bad_body)}
    spec = FetchSpec(("calm", "bad-body"), START, START + dt.timedelta(days=2),
                     cache_dir=tmp_path)
    result = fetch_downloads(spec, CachedHttp(HttpCache(tmp_path),
                                              FixtureTransport(fixtures)))
    assert result.downloads["calm"].downloads.tolist() == [100, 101, 102]
    assert set(result.errors) == {"bad-body"}
    reason = "wrong shape" if bad_body in WRONG_SHAPE_DOWNLOADS else "not JSON"
    assert reason in result.errors["bad-body"]
    key = HttpCache.key(bad_url, None)
    assert not (tmp_path / "objects" / key).exists()
    assert not (tmp_path / "objects" / f"{key}.meta.json").exists()

    # a replay finds only the healthy package; the bad one is a plain miss
    replay = fetch_downloads(spec, CachedHttp(HttpCache(tmp_path), None))
    assert replay.downloads["calm"].downloads.tolist() == [100, 101, 102]
    assert "live" in replay.errors["bad-body"]

    # once the server answers properly, a live fetch succeeds and is cached
    fixtures[bad_url, "{}"] = ({}, payload)
    later = fetch_downloads(spec, CachedHttp(HttpCache(tmp_path),
                                             FixtureTransport(fixtures)))
    assert later.errors == {}
    assert later.downloads["bad-body"].downloads.tolist() == [100, 101, 102]
    assert (tmp_path / "objects" / key).exists()


def test_non_json_body_in_an_older_cache_is_reported_on_replay(tmp_path):
    calm_url, payload = downloads_fixture("calm", START, 3)
    bad_url, _ = downloads_fixture("bad-body", START, 3)
    cache = HttpCache(tmp_path)
    cache.put(HttpCache.key(calm_url, None), calm_url, None,
              TransportResponse(200, {}, json.dumps(payload).encode()))
    cache.put(HttpCache.key(bad_url, None), bad_url, None,
              TransportResponse(200, {}, b"<html></html>"))
    spec = FetchSpec(("calm", "bad-body"), START, START + dt.timedelta(days=2),
                     cache_dir=tmp_path)
    replay = fetch_downloads(spec, CachedHttp(HttpCache(tmp_path), None))
    assert replay.downloads["calm"].downloads.tolist() == [100, 101, 102]
    assert "not JSON" in replay.errors["bad-body"]


# JSON that an issue-list endpoint never sends: an item without its creation
# time, an item that is not an object, a creation time that is no date
WRONG_SHAPE_ISSUES = [b'[{"title": "x"}]', b'[{"created_at": "2020-01-01"}, 7]',
                      b'[{"created_at": "yesterday"}]']


@pytest.mark.parametrize("bad_body", [b"rate limit page", *WRONG_SHAPE_ISSUES])
def test_non_json_issue_pages_are_reported(tmp_path, bad_body):
    params = {"page": 1, "per_page": 100, "state": "all"}
    first = json.dumps(params, sort_keys=True)
    bad = "https://api.github.com/repos/o/bad/issues"
    cut = "https://api.github.com/repos/o/cut/issues"
    fixtures = {
        (bad, first): TransportResponse(200, {}, bad_body),
        (cut, first): ({"link": f'<{cut}?page=2>; rel="next"'}, issue_items(100, START)),
        (cut + "?page=2", "{}"): TransportResponse(200, {}, bad_body),
    }
    spec = FetchSpec(("o/bad", "o/cut"), START, START + dt.timedelta(days=5),
                     cache_dir=tmp_path)
    result = fetch_issues(spec, CachedHttp(HttpCache(tmp_path),
                                           FixtureTransport(fixtures)))
    assert result.issues == {}
    reason = "wrong shape" if bad_body in WRONG_SHAPE_ISSUES else "not JSON"
    assert reason in result.errors["o/bad"]
    assert "page 2" in result.errors["o/cut"]
    assert not (tmp_path / "objects" / HttpCache.key(bad, params)).exists()
    assert not (tmp_path / "objects" / HttpCache.key(cut + "?page=2", None)).exists()
    assert (tmp_path / "objects" / HttpCache.key(cut, params)).exists()


# --- series building ---------------------------------------------------------


def constant_downloads(days):
    return [(START + dt.timedelta(days=i)) for i in range(days)]


def test_build_daily_series_counting_example():
    from relqual.ingest import PackageDownloads

    days = constant_downloads(6)
    downloads = PackageDownloads("p", tuple(days),
                                 np.full(6, 10, dtype=np.int64), ())
    issue_dates = (days[1], days[1], days[4])
    series = build_daily_series("p", downloads, issue_dates, days[0], days[-1])
    assert series.cumulative_issues.tolist() == [0, 2, 2, 2, 3, 3]


def test_build_daily_series_no_issues_all_zero():
    from relqual.ingest import PackageDownloads

    days = constant_downloads(4)
    downloads = PackageDownloads("p", tuple(days),
                                 np.arange(4, dtype=np.int64), ())
    series = build_daily_series("p", downloads, (), days[0], days[-1])
    assert series.cumulative_issues.tolist() == [0, 0, 0, 0]


def test_build_daily_series_requires_coverage():
    from relqual.ingest import PackageDownloads

    days = constant_downloads(4)
    downloads = PackageDownloads("p", tuple(days[:3]),
                                 np.arange(3, dtype=np.int64), (days[3],))
    with pytest.raises(GapInSeriesError):
        build_daily_series("p", downloads, (), days[0], days[-1])


def test_build_daily_series_gap_message_names_count_and_first_day():
    from relqual.ingest import PackageDownloads

    days = constant_downloads(10)
    kept = days[:2] + days[3:5] + days[7:]   # days 2, 5 and 6 are missing
    downloads = PackageDownloads("p", tuple(kept),
                                 np.arange(len(kept), dtype=np.int64), ())
    with pytest.raises(GapInSeriesError) as info:
        build_daily_series("p", downloads, (), days[0], days[-1])
    assert str(info.value) == "p: downloads missing for 3 days (first: 2018-01-03)"
    # days outside [start, end] neither fill the span nor count as gaps
    series = build_daily_series("p", downloads, (), days[7], days[9])
    assert series.downloads.tolist() == [4, 5, 6]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 20), max_size=40), st.integers(5, 30))
def test_build_daily_series_matches_filter_oracle(offsets, days):
    from relqual.ingest import PackageDownloads

    span = constant_downloads(days)
    downloads = PackageDownloads("p", tuple(span),
                                 np.full(days, 1, dtype=np.int64), ())
    issue_dates = tuple(START + dt.timedelta(days=o) for o in offsets)
    series = build_daily_series("p", downloads, issue_dates, span[0], span[-1])
    for i, day in enumerate(span):
        assert series.cumulative_issues[i] == sum(1 for d in issue_dates if d <= day)


def test_filter_popular_strict_threshold():
    downloads = {"a": 10_001.0, "b": 10_000.0, "c": 500.0}
    assert filter_popular(("a", "b", "c"), downloads) == ("a",)
    assert filter_popular((), downloads) == ()
    assert filter_popular(("a", "b"), downloads, threshold=9_999.0) == ("a", "b")

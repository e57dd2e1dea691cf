#!/usr/bin/env python3
"""Issues-per-download timelines from (replayable) fetched series.

Uses a recorded fixture transport instead of the live registry, exactly
like offline replay from a warm cache: fetch daily downloads, combine with
issue creation dates into a cumulative series, compute the daily quality
metric with its smoothed trend, and screen whether downloads predict the
daily issue inflow.
"""

import datetime as dt
import json
import tempfile

import numpy as np

from relqual.ingest import (
    CachedHttp,
    FetchSpec,
    HttpCache,
    TransportResponse,
    build_daily_series,
    fetch_downloads,
)
from relqual.quality import direction_of_trend, screen_significance, timeline

START = dt.date(2018, 1, 1)
DAYS = 120


def fixture_transport(seed=0):
    rng = np.random.default_rng(seed)
    downloads = np.maximum(
        0, (600 + 4 * np.arange(DAYS)
            + 80 * np.sin(np.arange(DAYS) / 9)
            + rng.integers(-50, 50, DAYS))).astype(int)
    end = START + dt.timedelta(days=DAYS - 1)
    url = f"https://api.npmjs.org/downloads/range/{START}:{end}/demo-pkg"
    body = {"downloads": [
        {"day": (START + dt.timedelta(days=i)).isoformat(),
         "downloads": int(downloads[i])} for i in range(DAYS)
    ]}

    def transport(u, params, headers):
        if u != url:
            return TransportResponse(404, {}, b"{}")
        return TransportResponse(200, {}, json.dumps(body).encode())

    # issue inflow proportional to that day's downloads, plus a little noise
    weights = downloads / downloads.sum()
    issue_days = rng.choice(DAYS, size=int(downloads.sum() * 0.004), p=weights)
    issue_dates = tuple(START + dt.timedelta(days=int(d)) for d in issue_days)
    return transport, issue_dates


def main():
    transport, issue_dates = fixture_transport()
    end = START + dt.timedelta(days=DAYS - 1)
    with tempfile.TemporaryDirectory() as cache_dir:
        http = CachedHttp(HttpCache(cache_dir), transport)
        spec = FetchSpec(("demo-pkg",), START, end)
        result = fetch_downloads(spec, http)
        downloads = result.downloads["demo-pkg"]
        print(f"fetched {len(downloads.days)} days "
              f"({len(downloads.gaps)} gaps, {http.network_calls} live calls)")

        series = build_daily_series("demo-pkg", downloads, issue_dates,
                                    START, end)
        line = timeline(series, span=0.3)
        print(f"flagged zero-download days: {int(line.flagged.sum())}")

        step = 14
        print("\n  date        downloads  new  quality   trend")
        for i in range(0, DAYS, step):
            print(f"  {line.days[i]}  {line.downloads[i]:>9} "
                  f"{line.new_issues[i]:>4}  {line.quality[i]:.5f}  "
                  f"{line.trend[i]:.5f}")
        print(f"\ntrend direction: {direction_of_trend(line.trend)}")

        screen = screen_significance(series, with_date_control=True)
        print(f"downloads -> daily issues screen: p={screen.slope_p_value:.2e} "
              f"R^2={screen.r_squared:.2f} (date controlled)")


if __name__ == "__main__":
    main()

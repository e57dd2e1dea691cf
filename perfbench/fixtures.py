"""Seeded inputs for the four workloads.

Everything here is a pure function of its seed arguments, so the reference
recorder and the benchmark generate identical inputs.  Only numpy and the
standard library are used: the library under test receives the generated
inputs and nothing else.
"""

from __future__ import annotations

import datetime as dt
import json
import random

import numpy as np

# Each reference-checked workload draws its operations from a fixed pool of
# inputs whose outputs were recorded at the seed commit; ``--seed`` picks the
# order in which a run walks the pool.
POOL_SIZE = 24

# simstudy: the reduced acceptance study, 2 replicates per CLI call
SIM_REPLICATES = 2

# exact-posterior: one operation is one ladder of node counts
EXACT_SIZES = (7, 8, 9)
EXACT_MAX_PARENTS = 3
EXACT_ROWS = 120

# forest-tune: three ntree levels per mtry, repeated 2-fold CV
FOREST_ROWS = 160
FOREST_NTREES = (10, 20, 40)
FOREST_MTRYS = (2, 4, 6)
FOREST_REPEATS = 2
FOREST_IMPORTANCE_REPEATS = 2
FOREST_RESPONSE = "issues"


def pool_order(seed: int, size: int = POOL_SIZE) -> list[int]:
    """The run's walk through the reference pool."""
    return random.Random(seed).sample(range(size), size)


# ---------------------------------------------------------------------------
# exact-posterior


def exact_dataset(entry: int, p: int) -> tuple[list[str], np.ndarray]:
    """Linear-Gaussian data over a random DAG with at most three parents
    per node and moderate coefficients, so posteriors are not all 0 or 1."""
    rng = np.random.default_rng([entry, p, 7])
    order = rng.permutation(p)
    x = np.zeros((EXACT_ROWS, p))
    for k, v in enumerate(order):
        earlier = order[:k]
        parents = [u for u in earlier if rng.random() < 0.4][:EXACT_MAX_PARENTS]
        x[:, v] = rng.standard_normal(EXACT_ROWS)
        for u in parents:
            x[:, v] += rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.7) * x[:, u]
    return [f"X{i}" for i in range(p)], x


# ---------------------------------------------------------------------------
# forest-tune


FOREST_COLUMNS = ("loc", "cyclomatic", "effort", "params", "maintainability",
                  "downloads", FOREST_RESPONSE)


def forest_table(entry: int) -> np.ndarray:
    """Synthetic package table: five complexity-style predictors plus
    downloads; the issue count depends on one complexity measure and on
    downloads."""
    n = FOREST_ROWS
    rng = np.random.default_rng([entry, 11])
    loc = rng.standard_normal(n)
    cyclomatic = 0.6 * loc + 0.8 * rng.standard_normal(n)
    effort = rng.standard_normal(n)
    params = rng.standard_normal(n)
    maintainability = -0.5 * loc + rng.standard_normal(n)
    downloads = rng.standard_normal(n)
    issues = -0.9 * loc + 1.1 * downloads + 0.5 * rng.standard_normal(n)
    return np.column_stack([loc, cyclomatic, effort, params, maintainability,
                            downloads, issues])


def write_forest_csv(path, rows: np.ndarray) -> None:
    lines = [",".join(FOREST_COLUMNS)]
    lines += [",".join(f"{v:.10g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def forest_argv(table_path, entry: int, out_dir) -> list[str]:
    return ["rf", str(table_path), "--response", FOREST_RESPONSE,
            "--ntree-grid", ",".join(map(str, FOREST_NTREES)),
            "--mtry-grid", ",".join(map(str, FOREST_MTRYS)),
            "--repeats", str(FOREST_REPEATS), "--folds", "2",
            "--importance-repeats", str(FOREST_IMPORTANCE_REPEATS),
            "--seed", str(entry), "--out", str(out_dir)]


def simstudy_argv(entry: int, out_dir) -> list[str]:
    return ["simstudy", "--replicates", str(SIM_REPLICATES),
            "--seed", str(entry), "--jobs", "1", "--out", str(out_dir)]


# ---------------------------------------------------------------------------
# ingest-timelines

# One batch is 300 cache entries: per package one download window and one
# issue page.  Many packages with two years of days each keep the
# per-package pipeline most of an operation, so the file system's state
# (see IngestTimelines) moves the operation's time less.
INGEST_START = dt.date(2017, 1, 2)
INGEST_DAYS = 728
INGEST_WINDOW_DAYS = 728         # one download window per package
INGEST_PACKAGES = 150            # per batch
INGEST_ISSUES = 100              # per repo: 1 page
INGEST_ISSUES_PER_PAGE = 100
INGEST_BATCHES = 1               # distinct batches rendered at set-up
DOWNLOADS_API = "https://registry.invalid/downloads/range"
ISSUES_API = "https://tracker.invalid"


def canonical(url: str, params: dict | None) -> str:
    return url + "?" + json.dumps(params or {}, sort_keys=True)


class Response:
    """What the fake server answers: attempts that fail first, then 200."""

    __slots__ = ("body", "headers", "faults")

    def __init__(self, body: bytes, headers: dict, faults=()):
        self.body = body
        self.headers = headers
        self.faults = tuple(faults)   # (status, retry_after) per early attempt


class Batch:
    """One clean batch: packages paired with repos, their responses keyed by
    canonical request, and the values the pipeline must reproduce.  The
    seed picks the values and which requests fail first; the number of
    requests, pages and first failures is the same for every seed."""

    def __init__(self, seed: int, index: int):
        rng = np.random.default_rng([seed, index, 5])
        self.start = INGEST_START
        self.end = INGEST_START + dt.timedelta(days=INGEST_DAYS - 1)
        self.packages = tuple(f"pkg-{index}-{i}" for i in range(INGEST_PACKAGES))
        self.repos = tuple(f"org{i}/repo-{index}-{i}"
                           for i in range(INGEST_PACKAGES))
        self.responses: dict[str, Response] = {}
        self.requests: list[tuple[str, dict | None, str]] = []
        self.downloads: dict[str, np.ndarray] = {}
        self.cumulative: dict[str, np.ndarray] = {}
        self.usage: dict[str, list[tuple]] = {}
        self.release_exceptions: dict[str, list[int]] = {}
        days = [self.start + dt.timedelta(days=i) for i in range(INGEST_DAYS)]
        for package, repo in zip(self.packages, self.repos):
            self._render_downloads(rng, package, days)
            self._render_issues(rng, package, repo, days)
            rows = self.usage[package] = _usage_rows(rng, self.start)
            per_release: dict[str, int] = {}
            for row in rows:
                per_release[row[1]] = per_release.get(row[1], 0) + row[7]
            self.release_exceptions[package] = list(per_release.values())
        # one request in ten first gets a 503 or a 429, one in 25 both
        order = rng.permutation(len(self.requests))
        doubles, singles = len(order) // 25, len(order) // 10
        for rank, i in enumerate(order[:doubles + singles]):
            url, params, _ = self.requests[i]
            self.responses[canonical(url, params)].faults = (
                ((503, "1"), (429, "2")) if rank < doubles
                else ((503 if rank % 2 else 429, "1"),))

    def _render_downloads(self, rng, package, days):
        level = rng.uniform(200, 5000)
        weekly = 1.0 + 0.3 * np.sin(np.arange(len(days)) * 2 * np.pi / 7)
        counts = rng.poisson(level * weekly).astype(np.int64)
        counts[rng.random(len(days)) < 0.02] = 0
        self.downloads[package] = counts
        lo = 0
        while lo < len(days):
            hi = min(lo + INGEST_WINDOW_DAYS, len(days))
            url = f"{DOWNLOADS_API}/{days[lo].isoformat()}:{days[hi - 1].isoformat()}/{package}"
            body = json.dumps({
                "start": days[lo].isoformat(), "end": days[hi - 1].isoformat(),
                "package": package,
                "downloads": [{"day": days[i].isoformat(),
                               "downloads": int(counts[i])}
                              for i in range(lo, hi)]}).encode()
            self.responses[canonical(url, None)] = Response(
                body, {"content-type": "application/json"})
            self.requests.append((url, None, package))
            lo = hi

    def _render_issues(self, rng, package, repo, days):
        offsets = np.sort(rng.integers(-120, len(days), size=INGEST_ISSUES))
        items = []
        for k, off in enumerate(offsets):
            created = INGEST_START + dt.timedelta(days=int(off))
            item = {"number": k + 1,
                    "created_at": f"{created.isoformat()}T{k % 24:02d}:00:00Z",
                    "title": f"issue {k + 1} in {repo}"}
            if rng.random() < 0.15:
                item["pull_request"] = {"url": f"{ISSUES_API}/pulls/{k + 1}"}
            items.append(item)
        kept = np.array([int(off) for off, item in zip(offsets, items)
                         if "pull_request" not in item])
        self.cumulative[package] = np.searchsorted(
            np.sort(kept), np.arange(len(days)), side="right").astype(np.int64)
        url = f"{ISSUES_API}/repos/{repo}/issues"
        pages = [items[i:i + INGEST_ISSUES_PER_PAGE]
                 for i in range(0, len(items), INGEST_ISSUES_PER_PAGE)]
        for number, page in enumerate(pages, start=1):
            headers = {"content-type": "application/json"}
            if number < len(pages):
                headers["link"] = f'<{url}?page={number + 1}>; rel="next"'
            request = (url, {"state": "all", "per_page": 100, "page": 1}) \
                if number == 1 else (f"{url}?page={number}", None)
            self.responses[canonical(*request)] = Response(
                json.dumps(page).encode(), headers)
            self.requests.append((*request, package))


def _usage_rows(rng, start: dt.date) -> list[tuple]:
    """Daily usage rows for eight consecutive releases of one package."""
    rows = []
    day = start
    for release in range(8):
        users = 0
        for _ in range(int(rng.integers(20, 40))):
            new_users = int(rng.poisson(30))
            users = max(0, users + int(rng.integers(-5, 20)))
            visits = new_users + users
            rows.append((day, f"v{release}", new_users, users,
                         int(rng.poisson(20)), visits,
                         float(rng.uniform(10, 500)),
                         int(rng.poisson(3))))
            day += dt.timedelta(days=1)
    return rows


HOSTILE_START = dt.date(2017, 1, 2)
HOSTILE_END = dt.date(2017, 1, 29)
HTTP_DATE = "Wed, 21 Oct 2015 07:28:00 GMT"

# Each call pairs a healthy package with one that trips an ingest defect
# (an HTTP-date Retry-After; a non-JSON 200 body).
HOSTILE_CALLS = (("calm-a", "retry-date"), ("calm-b", "bad-body"))


def hostile_responses() -> tuple[dict[str, Response], dict[str, list[int]]]:
    """Responses for the hostile batch and the counts a healthy package
    must come back with."""
    days = [HOSTILE_START + dt.timedelta(days=i)
            for i in range((HOSTILE_END - HOSTILE_START).days + 1)]
    responses = {}
    expected = {}
    for package in (name for call in HOSTILE_CALLS for name in call):
        counts = [100 + 3 * i for i in range(len(days))]
        url = f"{DOWNLOADS_API}/{HOSTILE_START.isoformat()}:{HOSTILE_END.isoformat()}/{package}"
        body = json.dumps({"downloads": [
            {"day": d.isoformat(), "downloads": c} for d, c in zip(days, counts)]}).encode()
        faults = ()
        if package == "retry-date":
            faults = ((429, HTTP_DATE),)
        if package == "bad-body":
            body = b"<html><body>upstream gateway error</body></html>"
        responses[canonical(url, None)] = Response(
            body, {"content-type": "application/json"}, faults)
        expected[package] = counts
    return responses, expected

"""The four workloads: set-up, one operation, and its correctness check.

An operation is what the timer brackets; its check runs outside the timed
region.  Library entry points are looked up on their modules at call time,
so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import logging
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fixtures as fx

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A float-order refactor may move a bootstrap confidence across one
# threshold, which moves one replicate's outcome in one row.  The table may
# differ from the recorded one by at most SIM_MAX_MOVED such moves in all
# (half the L1 distance, in replicates), each cell by at most 1/R; a defect
# that changes one replicate of a whole arm moves ten.
SIM_CELL_TOLERANCE = 1.0 / fx.SIM_REPLICATES
SIM_MAX_MOVED = 2
EXACT_TOLERANCE = 1e-9
IMPORTANCE_TOLERANCE = 1e-9


@dataclass
class Verdict:
    attempted: int
    failed: int
    work: float            # work units completed by the operation
    notes: tuple[str, ...] = ()


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


class _ArmFailureCounter(logging.Handler):
    """Counts the study's per-(replicate, arm) "failed" warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.failures = 0

    def emit(self, record):
        if "failed" in record.getMessage():
            self.failures += 1


class Workload:
    name = ""
    work_unit = ""
    reference = ""
    warmup_ops = 0         # checked but untimed operations before the window

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.order = fx.pool_order(seed)

    def setup(self) -> None:
        self.ref = load_reference(self.reference) if self.reference else {}
        self.prepare()

    def prepare(self) -> None:
        """Generate the inputs; the reference recorder calls only this."""

    def item(self, k: int):
        return k, self.order[k % len(self.order)]

    def close(self) -> None:
        pass

    def info(self) -> list[str]:
        """Report lines that inform without gating."""
        return []


def _quiet_cli(argv: list[str]) -> int:
    import relqual.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return relqual.cli.main(argv)


class Simstudy(Workload):
    """The reduced acceptance study through the CLI: default truth, the
    four default arms, n=200, B=100, 10 restarts, 2 replicates per call."""

    name = "simstudy"
    work_unit = "replicates"
    reference = "simstudy"

    def prepare(self):
        self.digests = [0, 0]   # matching the recorded bytes, compared
        self.failures = _ArmFailureCounter()
        logging.getLogger("relqual.simstudy").addHandler(self.failures)

    def close(self):
        logging.getLogger("relqual.simstudy").removeHandler(self.failures)

    def info(self):
        return [f"simstudy.csv byte digest equal to the recorded one in "
                f"{self.digests[0]} of {self.digests[1]} calls"]

    def run(self, item):
        k, entry = item
        out = self.work_dir / f"sim-{k}"
        before = self.failures.failures
        code = _quiet_cli(fx.simstudy_argv(entry, out))
        return code, out, self.failures.failures - before

    def check(self, item, output) -> Verdict:
        ref = self.ref[str(item[1])]
        attempted = fx.SIM_REPLICATES * len(ref["arms"])
        if output is None:
            return Verdict(attempted, attempted, 0, ("raised",))
        code, out, arm_failures = output
        if code != 0:
            return Verdict(attempted, attempted, 0, (f"exit code {code}",))
        text = (out / "simstudy.csv").read_text()
        self.digests[0] += hashlib.sha256(text.encode()).hexdigest() == ref["sha256"]
        self.digests[1] += 1
        bad_arms = simstudy_table_errors(text, ref)
        failed = min(attempted,
                     arm_failures + fx.SIM_REPLICATES * len(bad_arms))
        notes = tuple(f"arm {a} off reference" for a in sorted(bad_arms))
        shutil.rmtree(out, ignore_errors=True)
        return Verdict(attempted, failed,
                       fx.SIM_REPLICATES if failed == 0 else 0, notes)


def simstudy_table_errors(text: str, ref: dict) -> set[str]:
    """Arms whose rows break the fraction rules or leave the tolerance
    around the recorded table."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ref_rows = list(csv.DictReader(io.StringIO(ref["csv"])))
    bad = set()
    if [(r["method"], r["threshold"]) for r in rows] != \
            [(r["method"], r["threshold"]) for r in ref_rows]:
        return {r["method"] for r in ref_rows} | {r["method"] for r in rows}
    reps = fx.SIM_REPLICATES
    moved, drifted = 0.0, set()
    for row, want in zip(rows, ref_rows):
        cells = [float(row[c]) for c in ("exact", "off_by_one", "worse")]
        expected = [float(want[c]) for c in ("exact", "off_by_one", "worse")]
        if abs(sum(cells) - 1.0) > 1e-6:
            bad.add(row["method"])
        if any(abs(v * reps - round(v * reps)) > 1e-6 * reps for v in cells):
            bad.add(row["method"])
        if any(abs(v - e) > SIM_CELL_TOLERANCE + 1e-12
               for v, e in zip(cells, expected)):
            bad.add(row["method"])
        distance = sum(abs(v - e) for v, e in zip(cells, expected))
        if distance > 1e-9:
            drifted.add(row["method"])
            moved += distance * reps / 2
    if moved > SIM_MAX_MOVED + 1e-6:
        bad |= drifted
    return bad


class ExactPosterior(Workload):
    """All-edges exact posterior plus the exact MAP DAG over a ladder of
    node counts."""

    name = "exact-posterior"
    work_unit = "posteriors"
    reference = "exact_posterior"

    def prepare(self):
        from relqual.dag import VariableSet
        from relqual.data import Dataset
        self.data = {}
        for entry in range(fx.POOL_SIZE):
            for p in fx.EXACT_SIZES:
                names, rows = fx.exact_dataset(entry, p)
                self.data[entry, p] = Dataset(VariableSet(names), rows)

    def run(self, item):
        import relqual.search as search
        _, entry = item
        out = {}
        for p in fx.EXACT_SIZES:
            data = self.data[entry, p]
            conf = search.exact_map_edge_probabilities(
                data, max_parents=fx.EXACT_MAX_PARENTS)
            best = search.map_dag(data, max_parents=fx.EXACT_MAX_PARENTS)
            out[p] = (conf, best)
        return out

    def check(self, item, output) -> Verdict:
        attempted = len(fx.EXACT_SIZES)
        if output is None:
            return Verdict(attempted, attempted, 0, ("raised",))
        from relqual.gaussian import bic_g
        from relqual.search import HcConfig, hill_climb
        _, entry = item
        ref = self.ref[str(entry)]
        failed, notes = 0, []
        for p in fx.EXACT_SIZES:
            conf, best = output[p]
            want = ref[str(p)]
            gap = max(float(np.max(np.abs(conf.strength - np.array(want["strength"])))),
                      float(np.max(np.abs(conf.direction - np.array(want["direction"])))))
            data = self.data[entry, p]
            climbed = hill_climb(data, HcConfig(restarts=5, max_parents=fx.EXACT_MAX_PARENTS,
                                                seed=entry))
            map_score, hc_score = bic_g(best, data), bic_g(climbed, data)
            if not gap <= EXACT_TOLERANCE:
                failed += 1
                notes.append(f"p={p}: edge probabilities off by {gap:.3g}")
            elif map_score < hc_score - 1e-9 * abs(hc_score):
                failed += 1
                notes.append(f"p={p}: map_dag scores below hill climbing")
        return Verdict(attempted, failed, attempted - failed, tuple(notes))


class ForestTune(Workload):
    """``relqual rf``: a 3 x 3 (ntree, mtry) grid under repeated 2-fold
    CV, then the best cell's forest and its permutation importance."""

    name = "forest-tune"
    work_unit = "grid_cells"
    reference = "forest_tune"

    def prepare(self):
        self.tables = {}
        tables = self.work_dir / "tables"
        tables.mkdir(parents=True, exist_ok=True)
        for entry in range(fx.POOL_SIZE):
            path = tables / f"packages-{entry}.csv"
            fx.write_forest_csv(path, fx.forest_table(entry))
            self.tables[entry] = path

    def run(self, item):
        k, entry = item
        out = self.work_dir / f"rf-{k}"
        return _quiet_cli(fx.forest_argv(self.tables[entry], entry, out)), out

    def check(self, item, output) -> Verdict:
        cells = len(fx.FOREST_NTREES) * len(fx.FOREST_MTRYS)
        if output is None:
            return Verdict(1, 1, 0, ("raised",))
        code, out = output
        if code != 0:
            return Verdict(1, 1, 0, (f"exit code {code}",))
        notes = forest_errors(out, self.ref[str(item[1])])
        shutil.rmtree(out, ignore_errors=True)
        return Verdict(1, int(bool(notes)), 0 if notes else cells, tuple(notes))


def forest_errors(out: Path, ref: dict) -> list[str]:
    notes = []
    if (out / "tune.csv").read_text() != ref["tune_csv"]:
        notes.append("tune.csv differs from the recorded bytes")
    with (out / "importance.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    want = ref["importance"]
    if [(r["predictor"], int(r["rank"])) for r in rows] != \
            [(w["predictor"], w["rank"]) for w in want]:
        notes.append("permutation ranks differ")
    else:
        for r, w in zip(rows, want):
            for col in ("permutation_importance", "impurity_importance"):
                if abs(float(r[col]) - w[col]) > IMPORTANCE_TOLERANCE * max(1.0, abs(w[col])):
                    notes.append(f"{r['predictor']} {col} off")
    return notes


class _FakeServer:
    """In-process transport over rendered responses: a request fails with
    its scripted statuses first, then gets the body."""

    def __init__(self, responses, tracer=None):
        self.responses = responses
        self.attempts: dict[str, int] = {}
        self.tracer = tracer

    def __call__(self, url, params, headers):
        from relqual.ingest import TransportResponse
        span = self.tracer.span("bench.transport") if self.tracer \
            else contextlib.nullcontext()
        with span:
            if self.tracer:
                self.tracer.count("ingest.transport.calls")
            key = fx.canonical(url, params)
            response = self.responses.get(key)
            if response is None:
                return TransportResponse(404, {}, b"{}")
            attempt = self.attempts.get(key, 0)
            self.attempts[key] = attempt + 1
            if attempt < len(response.faults):
                status, retry_after = response.faults[attempt]
                return TransportResponse(status, {"retry-after": retry_after}, b"")
            return TransportResponse(200, dict(response.headers), response.body)


class _Sleeper:
    """Records back-off pauses instead of sleeping."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, seconds):
        if self.tracer:
            self.tracer.count("ingest.retries")
            self.tracer.count("ingest.backoff_s", seconds)


class IngestTimelines(Workload):
    """Cold fetch into a fresh cache (with 503/429 retries), offline replay
    from it, then daily series, LOESS timeline, significance screen and
    usage aggregation per package."""

    name = "ingest-timelines"
    work_unit = "package_days"
    tracer = None
    # Each operation writes ~900 files into a cache directory of its own,
    # and they stay until the run's work directory is removed after the
    # window.  On ext4 without a journal, files deleted shortly before
    # make every new file cost more kernel time: on a 2-vCPU guest,
    # deleting each operation's cache right after it raised system time
    # from 0.1 to 0.5 s per operation within one run.
    # After a pause the first operations of a run were up to 45% slower
    # than the rest, so the first one runs untimed.
    warmup_ops = 1

    def prepare(self):
        from relqual.quality import UsageRecord
        self.batches = [fx.Batch(self.seed, b) for b in range(fx.INGEST_BATCHES)]
        self.usage = [{pkg: [UsageRecord(*row) for row in rows]
                       for pkg, rows in batch.usage.items()}
                      for batch in self.batches]
        self.hostile = fx.hostile_responses()
        self.caches = itertools.count()   # the traced run repeats inputs

    def item(self, k):
        return k, k % fx.INGEST_BATCHES

    def _fetch(self, batch, http):
        import relqual.ingest as ingest
        dl = ingest.FetchSpec(batch.packages, batch.start, batch.end,
                              downloads_api_base=fx.DOWNLOADS_API,
                              max_window_days=fx.INGEST_WINDOW_DAYS)
        iss = ingest.FetchSpec(batch.repos, batch.start, batch.end,
                               issues_api_base=fx.ISSUES_API)
        return (ingest.fetch_downloads(dl, http, politeness=1),
                ingest.fetch_issues(iss, http, politeness=1))

    def run(self, item):
        import relqual.ingest as ingest
        import relqual.quality as quality
        _, b = item
        batch = self.batches[b]
        cache_dir = self.work_dir / f"cache-{next(self.caches)}"
        cold = self._fetch(batch, ingest.CachedHttp(
            ingest.HttpCache(cache_dir), _FakeServer(batch.responses, self.tracer),
            sleeper=_Sleeper(self.tracer)))
        warm = self._fetch(batch, ingest.CachedHttp(ingest.HttpCache(cache_dir), None))
        per_package = {}
        for package, repo in zip(batch.packages, batch.repos):
            if package not in warm[0].downloads or repo not in warm[1].issues:
                continue
            series = ingest.build_daily_series(
                package, warm[0].downloads[package], warm[1].issues[repo],
                batch.start, batch.end)
            per_package[package] = (
                series, quality.timeline(series),
                quality.screen_significance(series),
                quality.aggregate_usage(self.usage[b][package]))
        return cold, warm, per_package, cache_dir

    def check(self, item, output) -> Verdict:
        batch = self.batches[item[1]]
        attempted = len(batch.packages)
        if output is None:
            return Verdict(attempted, attempted, 0, ("raised",))
        cold, warm, per_package, cache_dir = output
        if self.tracer:
            self.tracer.counters["ingest.errors"] += sum(
                len(r.errors) for r in cold + warm)
        bad = ingest_errors(batch, cold, warm, per_package, cache_dir)
        failed = len(bad)
        return Verdict(attempted, failed,
                       (attempted - failed) * fx.INGEST_DAYS,
                       tuple(f"{p}: {why}" for p, why in sorted(bad.items())))

    def hostile_probe(self) -> dict:
        """Run the hostile batch in its own calls and classify each item:
        ok (correct series), reported (in ``errors``) or sunk (the whole
        call raised)."""
        import relqual.ingest as ingest
        responses, expected = self.hostile
        counts = {"items": 0, "ok": 0, "reported": 0, "sunk": 0, "wrong": 0}
        for n, call in enumerate(fx.HOSTILE_CALLS):
            counts["items"] += len(call)
            cache_dir = self.work_dir / f"hostile-{n}"
            shutil.rmtree(cache_dir, ignore_errors=True)
            http = ingest.CachedHttp(ingest.HttpCache(cache_dir),
                                     _FakeServer(responses), sleeper=_Sleeper())
            spec = ingest.FetchSpec(call, fx.HOSTILE_START, fx.HOSTILE_END,
                                    downloads_api_base=fx.DOWNLOADS_API)
            try:
                result = ingest.fetch_downloads(spec, http, politeness=1)
            except Exception:  # noqa: BLE001 - the defect under measurement
                counts["sunk"] += len(call)
                continue
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            for package in call:
                if package in result.downloads:
                    got = result.downloads[package].downloads.tolist()
                    counts["ok" if got == expected[package] else "wrong"] += 1
                elif package in result.errors:
                    counts["reported"] += 1
                else:
                    counts["wrong"] += 1
        return counts


def ingest_errors(batch, cold, warm, per_package, cache_dir) -> dict[str, str]:
    """Packages whose fetched, replayed or derived values are wrong."""
    from relqual.ingest import HttpCache
    bad: dict[str, str] = {}
    cache = HttpCache(cache_dir)
    for url, params, package in batch.requests:
        got = cache.get(HttpCache.key(url, params))
        if got is None or got.body != batch.responses[fx.canonical(url, params)].body:
            bad.setdefault(package, "replayed body differs from its fixture")
    for package, repo in zip(batch.packages, batch.repos):
        if package in bad:
            continue
        fetched = [r.downloads.get(package) for r in (cold[0], warm[0])]
        issues = [r.issues.get(repo) for r in (cold[1], warm[1])]
        if any(f is None for f in fetched) or any(i is None for i in issues):
            bad[package] = "missing from a fetch pass"
            continue
        want = batch.downloads[package]
        if any(not np.array_equal(f.downloads, want) for f in fetched) \
                or issues[0] != issues[1]:
            bad[package] = "cold and warm passes disagree with the fixture"
            continue
        series, line, screen, aggregates = per_package[package]
        if series.n_days != fx.INGEST_DAYS \
                or not np.array_equal(series.downloads, want) \
                or not np.array_equal(series.cumulative_issues,
                                      batch.cumulative[package]):
            bad[package] = "daily series incomplete or wrong"
        elif line.trend is None or len(line.trend) != fx.INGEST_DAYS \
                or not np.all(np.isfinite(line.trend)):
            bad[package] = "trend missing or not finite"
        elif not 0.0 <= screen.slope_p_value <= 1.0:
            bad[package] = "screen p-value outside [0, 1]"
        elif [a.exceptions for a in aggregates] != \
                batch.release_exceptions[package] \
                or not all(math.isfinite(a.usage_intensity) for a in aggregates):
            bad[package] = "release aggregates wrong"
    return bad


WORKLOADS = {w.name: w for w in (Simstudy, ExactPosterior, ForestTune,
                                 IngestTimelines)}

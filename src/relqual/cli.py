"""Command-line entry point: reproducible batch runs over the library.

A command runs in two steps.  The read step reads every setting, a flag's
text and a config file's value alike, through ``_read``, loads the inputs,
and builds the library's own objects (``SimStudyConfig``, ``HcConfig``,
``MethodSpec``, ``ForestConfig``, ``FetchSpec``), whose checks are the one
bound on each field they hold; it writes nothing.  ``main`` makes ``--out``
only once that step has passed, so a refused run leaves no directory.  The
run step then does the work and writes its outputs plus a manifest
(resolved configuration, seed, input digests, wall time; for a study, the
failures per arm), so any result can be replayed bit for bit from a warm
cache and the same seed.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dag import VariableSet
from .data import Dataset, load_numeric_csv, write_numeric_csv
from .discretize import DiscretizationSpec
from .forest import ForestConfig, cv_r2_without, default_grid, fit_forest, \
    permutation_importance, tune_forest
from .gaussian import GaussianBn, edge_inference
from .ingest import GITHUB_API, NPM_DOWNLOADS_API, CachedHttp, FetchSpec, \
    GapInSeriesError, HttpCache, build_daily_series, fetch_downloads, \
    fetch_issues, load_usage_csv, requests_transport
from .ols import InsufficientRowsError, RankDeficientError, fit_power_law
from .quality import DailySeries, InsufficientDataError, aggregate_usage, \
    direction_of_trend, log_transform, quality_metric, screen_significance, timeline
from .search import HcConfig, averaged_network, bootstrap_average
from .simstudy import SEARCH_KINDS, MethodSpec, SimStudyConfig, build_learner, \
    default_methods, default_truth, run_simstudy

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARTIAL = 2

log = logging.getLogger(__name__)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class _Run:
    """What a command ran and wrote: the manifest's fields (``counts`` are
    extra top-level entries) and the exit code."""

    config: dict
    seed: int
    inputs: list[Path]
    outputs: list[Path]
    counts: dict = field(default_factory=dict)
    code: int = EXIT_OK


def _write_manifest(out: Path, command: str, run: _Run, started: float) -> None:
    manifest = {
        **run.counts,
        "command": command,
        "config": run.config,
        "seed": run.seed,
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in run.inputs},
        "outputs": [str(p) for p in run.outputs],
        "wall_time_s": round(time.time() - started, 3),
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True))
    log.info("%s: %d outputs and run_manifest.json written to %s in %.3f s",
             command, len(run.outputs), out, manifest["wall_time_s"])


def _write_csv(path: Path, header, rows) -> Path:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# how a refusal names a value of each kind ``_read`` reads, alone and in a list
_NOUNS = {int: ("a whole number", "whole numbers"), float: ("a number", "numbers"),
          str: ("a string", "strings"), dt.date: ("a date (YYYY-MM-DD)", "dates"),
          dict: ("a JSON object", "JSON objects")}

# A setting that fills no dataclass field carries its bound in its kind:
# the kind it reads as, the bound as a refusal words it, and the test.
_COUNT = (int, ">= 1", lambda v: v >= 1)
_SEED = (int, "a non-negative whole number", lambda v: v >= 0)
_FRACTION = (float, "in [0, 1]", lambda v: 0 <= v <= 1)
_SPAN = (float, "in (0, 1]", lambda v: 0 < v <= 1)


def _read(value, kind, name: str):
    """``value``, a flag's text or a config file's JSON value, read as
    ``kind``: a key of ``_NOUNS``; ``[kind]``, a tuple read from a comma
    list (empty entries skipped) or a JSON array; or a bounded kind such as
    ``_COUNT``.  A string that reads as a number is that number, a whole
    float is an int and a bool is no number.  Anything else is a ValueError
    that names ``name``, the flag or the config key."""
    if isinstance(kind, tuple):
        kind, bound, ok = kind
        value = _read(value, kind, name)
        if not ok(value):
            raise ValueError(f"{name} must be {bound}, not {value}")
        return value
    if isinstance(kind, list):
        if isinstance(value, str):
            value = [entry for entry in map(str.strip, value.split(",")) if entry]
        if not isinstance(value, list):
            raise ValueError(f"{name}: {value!r} is not an array of {_NOUNS[kind[0]][1]}")
        return tuple(_read(entry, kind[0], name) for entry in value)
    read = value
    if isinstance(value, str) and kind is not str:
        try:
            read = (dt.date.fromisoformat(value) if kind is dt.date else
                    int(value) if value.strip().lstrip("+-").isdecimal() else float(value))
        except ValueError:
            pass
    if kind is int and isinstance(read, float) and read.is_integer():
        read = int(read)
    elif kind is float and type(read) is int:
        read = float(read)
    if type(read) is not kind:
        raise ValueError(f"{name}: {value!r} is not {_NOUNS[kind][0]}")
    return read


def _fields(entry, kinds: dict, what: str) -> dict:
    """The JSON object ``entry``, each key read as its kind in ``kinds`` (one
    of None kept as given); else a ValueError that says it is no object or
    names the keys that ``kinds`` lacks."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be a JSON object, not {entry!r}")
    unknown = sorted(set(entry) - set(kinds))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(kinds)}")
    return {key: value if kinds[key] is None else
            _read(value, kinds[key], f"{what} key {key!r}") for key, value in entry.items()}


# ---------------------------------------------------------------------------
# simstudy

_METHOD_SHORTHAND = {m.name.upper(): m for m in default_methods() + (
    MethodSpec("Hybrid-GS", "hybrid-gs"),
    MethodSpec("Hybrid-MMPC", "hybrid-mmpc"),
    MethodSpec("HC-D-I", "hc", DiscretizationSpec("equal-interval", 3)),
    MethodSpec("HC-D-K", "hc", DiscretizationSpec("kmeans", 3)),
)}


def _spec(cls, entry, what: str):
    """``cls`` from the entry's own keys, each read as its default's type."""
    return cls(**_fields(entry, {f.name: type(f.default) if type(f.default) in _NOUNS
                                 else None for f in fields(cls)}, what))


def _method(entry) -> MethodSpec:
    """The arm a ``--methods`` name or a config ``methods`` object gives."""
    if isinstance(entry, str):
        if entry.upper() not in _METHOD_SHORTHAND:
            raise ValueError(f"unknown arm {entry!r}; known arms: "
                             f"{', '.join(_METHOD_SHORTHAND)}")
        return _METHOD_SHORTHAND[entry.upper()]
    entry = dict(entry)
    disc = entry.pop("discretization", None)
    if disc is not None:
        entry["discretization"] = _spec(DiscretizationSpec, disc, "discretization")
    return _spec(MethodSpec, entry, "method")


def cmd_simstudy(args):
    """The step that runs the study of the settings given, a flag winning over
    the config file; ``SimStudyConfig`` and ``HcConfig`` supply the rest."""
    settings: dict = {}
    inputs: list[Path] = []
    if args.config:
        inputs.append(Path(args.config))
        # the keys are the flags' own, --jobs apart, each read as its flag is
        kinds = {key: kind for key, (_, kind) in args.kinds.items() if key != "jobs"}
        settings = _fields(json.loads(inputs[0].read_text()),
                           {**kinds, "methods": [dict]}, "config")
    settings.update((key, value) for key in args.kinds
                    if (value := getattr(args, key)) is not None)

    truth = settings.pop("truth", None)
    if truth:
        inputs.append(Path(truth))
    settings["truth"] = (GaussianBn.from_json(inputs[-1].read_text()) if truth
                         else default_truth())
    if "methods" in settings:
        settings["methods"] = tuple(map(_method, settings["methods"]))
    # each setting fills the field of its name
    cfg = SimStudyConfig(**{f.name: settings[f.name] for f in fields(SimStudyConfig)
                            if f.name in settings})
    cfg = replace(cfg, hc=replace(cfg.hc, **{f.name: settings[f.name] for f in
                                             fields(HcConfig) if f.name in settings}))
    resolved = {"replicates": cfg.replicates, "sample_size": cfg.sample_size,
                "boot_samples": cfg.boot_samples, "restarts": cfg.hc.restarts,
                "max_parents": cfg.hc.max_parents, "thresholds": list(cfg.thresholds),
                "methods": [m.name for m in cfg.methods],
                "truth": str(inputs[-1]) if truth else "default"}

    def run(out: Path) -> _Run:
        report = run_simstudy(cfg, jobs=args.jobs)
        csv_path = out / "simstudy.csv"
        report.write_csv(csv_path)
        table_path = out / "simstudy.txt"
        table_path.write_text(report.format_table())
        print(report.format_table())
        return _Run(resolved, cfg.seed, inputs, [csv_path, table_path],
                    {"arm_failures": report.metadata["arm_failures"]})
    return run


# ---------------------------------------------------------------------------
# learn


def _standardized(data: Dataset) -> Dataset:
    rows = data.rows
    sd = rows.std(axis=0)
    if np.any(sd == 0):
        constant = [data.variables.names[i] for i in np.flatnonzero(sd == 0)]
        raise ValueError(f"constant columns cannot be scaled: {constant}")
    return Dataset(data.variables, (rows - rows.mean(axis=0)) / sd)


def cmd_learn(args):
    method = MethodSpec(args.method, args.method, alpha=args.alpha)
    hc = HcConfig(restarts=args.restarts, max_parents=args.max_parents, seed=args.seed)
    data_path = Path(args.data)
    data = load_numeric_csv(data_path)
    search_data = data if args.no_scale else _standardized(data)
    learner = build_learner(method.search, hc, method.alpha)

    def run(out: Path) -> _Run:
        conf = bootstrap_average(search_data, learner, args.boot_samples, seed=args.seed)
        net = averaged_network(conf, args.threshold, strict=args.strict_threshold)

        arcs_path = out / "arcs.csv"
        conf.write_csv(arcs_path)
        network_path = out / "network.json"
        network_path.write_text(net.dag.to_json())

        # coefficients and p-values reported from the unscaled fit
        inference = edge_inference(net.dag, data)
        inference_path = _write_csv(
            out / "inference.csv", ["from", "to", "coefficient", "p_value"],
            ([u, v, f"{coef:.10g}", f"{p:.6g}"] for u, v, coef, p in inference.rows()))
        nodes_path = _write_csv(
            out / "nodes.csv", ["node", "adjusted_r2"],
            ([name, f"{inference.adjusted_r2[i]:.6g}"]
             for i, name in enumerate(data.variables.names)))

        config = {"data": str(data_path), "method": method.search,
                  "threshold": args.threshold, "boot_samples": args.boot_samples,
                  "restarts": hc.restarts, "max_parents": hc.max_parents,
                  "alpha": method.alpha, "scaled_search": not args.no_scale,
                  "strict_threshold": args.strict_threshold}
        print(f"kept {len(net.dag.edges)} arcs at threshold {args.threshold}")
        return _Run(config, args.seed, [data_path],
                    [arcs_path, network_path, inference_path, nodes_path])
    return run


# ---------------------------------------------------------------------------
# quality


def _load_series_csv(path: Path, package: str) -> DailySeries:
    days, downloads, cumulative = [], [], []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"date", "downloads", "cumulative_issues"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: need columns {sorted(required)}")
        for row in reader:
            try:
                days.append(dt.date.fromisoformat(row["date"]))
                downloads.append(int(row["downloads"]))
                cumulative.append(int(row["cumulative_issues"]))
            except (ValueError, TypeError) as exc:
                # a short row reads None for each field it lacks
                if None in row.values():
                    exc = f"expected {len(reader.fieldnames)} fields"
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    try:
        return DailySeries(package, tuple(days), np.array(downloads),
                           np.array(cumulative))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_quality(args):
    if not args.usage and not args.series:
        raise ValueError("give --usage and/or --series")
    inputs = [Path(path) for path in (args.usage, args.series) if path]
    records = load_usage_csv(Path(args.usage)) if args.usage else None
    series = (_load_series_csv(Path(args.series), args.package or Path(args.series).stem)
              if args.series else None)

    def run(out: Path) -> _Run:
        outputs: list[Path] = []
        if records is not None:
            aggregates = aggregate_usage(records)
            rows = []
            for a in aggregates:
                q = quality_metric(a.exceptions, a.new_users)
                flagged = q == float("inf")
                rows.append([a.release, a.release_date, a.release_duration,
                             a.exceptions, a.new_users, f"{a.usage_intensity:.10g}",
                             f"{a.usage_frequency:.10g}", "" if flagged else f"{q:.10g}",
                             int(flagged), int(a.zero_users)])
            outputs.append(_write_csv(
                out / "aggregates.csv",
                ["release", "release_date", "release_duration", "exceptions",
                 "new_users", "usage_intensity", "usage_frequency", "quality",
                 "flagged_infinite", "zero_users"], rows))

            transformed = log_transform(aggregates, policy=args.log_policy)
            model_path = out / "model_data.csv"
            write_numeric_csv(model_path, transformed)
            outputs.append(model_path)

            if args.power_law:
                raw = Dataset(VariableSet(["Exceptions", "New.Users", "Release.Date"]),
                              np.array([[float(a.exceptions), float(a.new_users),
                                         float(a.release_date)] for a in aggregates]))
                fit = fit_power_law(raw, "Exceptions", "New.Users",
                                    controls=("Release.Date",))
                power_path = out / "powerlaw.json"
                power_path.write_text(json.dumps({
                    "driver": "New.Users", "response": "Exceptions",
                    "exponent": fit.exponent, "ci_low": fit.ci_low,
                    "ci_high": fit.ci_high, "p_value": fit.p_value,
                    "n": fit.n}, indent=2))
                outputs.append(power_path)

        if series is not None:
            line = timeline(series, span=args.span)
            rows = []
            for i, day in enumerate(line.days):
                flagged = bool(line.flagged[i])
                rows.append([day.isoformat(), int(line.downloads[i]),
                             int(line.new_issues[i]),
                             "" if flagged else f"{line.quality[i]:.10g}",
                             "" if line.trend is None else f"{line.trend[i]:.10g}",
                             int(flagged)])
            outputs.append(_write_csv(
                out / "timeline.csv",
                ["date", "downloads", "new_issues", "quality", "trend",
                 "flagged_infinite"], rows))

            summary = {"package": series.package,
                       "trend_direction": (direction_of_trend(line.trend)
                                           if line.trend is not None else "unavailable")}
            try:
                screen = screen_significance(series, args.with_date_control)
                summary["screen"] = {"slope_p_value": screen.slope_p_value,
                                     "r_squared": screen.r_squared,
                                     "n_days": screen.n_days,
                                     "date_controlled": screen.date_controlled}
            except (InsufficientDataError, RankDeficientError, InsufficientRowsError) as exc:
                # a series the screen cannot fit; anything else is a defect
                summary["screen_error"] = str(exc)
            trend_path = out / "trend.json"
            trend_path.write_text(json.dumps(summary, indent=2))
            outputs.append(trend_path)

        config = {"usage": args.usage, "series": args.series, "log_policy": args.log_policy,
                  "span": args.span, "power_law": args.power_law,
                  "with_date_control": args.with_date_control}
        return _Run(config, args.seed, inputs, outputs)
    return run


# ---------------------------------------------------------------------------
# rf


def cmd_rf(args):
    data_path = Path(args.data)
    data = load_numeric_csv(data_path)
    names = data.variables.names
    if args.response not in names:
        raise ValueError(f"response column {args.response!r} not in data "
                         f"(have: {', '.join(names)})")
    p = len(names) - 1
    grid = (tuple((nt, mt) for nt in args.ntree_grid or (ForestConfig.ntree,)
                  for mt in args.mtry_grid or range(1, p + 1))
            if args.ntree_grid or args.mtry_grid else default_grid(p))
    # the bounds that rest on the table: each cell's mtry, the folds, --ablate
    for ntree, mtry in grid:
        ForestConfig(ntree, mtry, args.min_leaf, args.seed).resolved_mtry(p)
    if not 2 <= args.folds <= data.n:
        raise ValueError(f"--folds must be in [2, {data.n}] (the row count), not {args.folds}")
    if args.ablate and (args.ablate == args.response or args.ablate not in names or p < 2):
        raise ValueError(f"--ablate: {args.ablate!r} is not one of two or more predictors")

    def run(out: Path) -> _Run:
        tuned = tune_forest(data, args.response, grid, k_repeats=args.repeats,
                            k_folds=args.folds, seed=args.seed, min_leaf=args.min_leaf)
        tune_path = out / "tune.csv"
        tune_path.write_text(tuned.to_csv())

        best_cfg = ForestConfig(ntree=tuned.best.ntree, mtry=tuned.best.mtry,
                                min_leaf=args.min_leaf, seed=args.seed)
        model = fit_forest(data, args.response, best_cfg)
        report = permutation_importance(model, repeats=args.importance_repeats,
                                        seed=args.seed)
        importance_path = _write_csv(
            out / "importance.csv",
            ["predictor", "permutation_importance", "impurity_importance", "rank"],
            ([name, f"{perm:.10g}", f"{impurity:.10g}", rank]
             for name, perm, impurity, rank in report.rows()))

        outputs = [tune_path, importance_path]
        config = {"data": str(data_path), "response": args.response,
                  "grid_cells": len(grid), "repeats": args.repeats,
                  "folds": args.folds, "min_leaf": args.min_leaf,
                  "best": {"ntree": tuned.best.ntree, "mtry": tuned.best.mtry,
                           "mean_r2": tuned.best.mean_r2, "sd_r2": tuned.best.sd_r2},
                  "oob_r2": model.oob_r2()}

        if args.ablate:
            # the "with" run of the paired CV is the tuned best cell's own
            without_r2 = cv_r2_without(
                data, args.response, args.ablate, best_cfg,
                k_repeats=args.repeats, k_folds=args.folds, seed=args.seed)
            ablate_path = out / "ablate.json"
            ablate_path.write_text(json.dumps({
                "dropped": args.ablate, "r2_with": tuned.best.mean_r2,
                "r2_without": without_r2}, indent=2))
            outputs.append(ablate_path)
            config["ablate"] = args.ablate

        print(f"best: ntree={tuned.best.ntree} mtry={tuned.best.mtry} "
              f"mean R2={tuned.best.mean_r2:.3f} (sd: {tuned.best.sd_r2:.3f})")
        return _Run(config, args.seed, [data_path], outputs)
    return run


# ---------------------------------------------------------------------------
# fetch


def _safe_name(name: str) -> str:
    return name.replace("/", "__").replace("@", "_at_")


def cmd_fetch(args):
    packages, repos = args.packages or (), args.repos or ()
    pairs = _read(args.pairs or "", [str], "--pairs")
    if not packages and not repos:
        raise ValueError("--pairs needs both --packages and --repos" if pairs
                         else "give --packages and/or --repos")
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--pairs entry {pair!r} is not package=owner/name")
    start, end = args.start, args.end
    token = os.environ.get(args.token_env) if args.token_env else None
    downloads_spec = FetchSpec(packages, start, end, downloads_api_base=args.downloads_api,
                               max_window_days=args.max_window_days) if packages else None
    issues_spec = FetchSpec(repos, start, end, issues_api_base=args.issues_api, token=token,
                            include_pulls=args.include_pulls) if repos else None

    def run(out: Path) -> _Run:
        http = CachedHttp(HttpCache(args.cache_dir),
                          requests_transport() if args.live else None)

        outputs: list[Path] = []
        errors: dict[str, str] = {}
        downloads: dict = {}
        issues: dict = {}

        if downloads_spec:
            result = fetch_downloads(downloads_spec, http, politeness=args.politeness)
            downloads, gap_rows = result.downloads, []
            errors.update(result.errors)
            for package, series in sorted(downloads.items()):
                outputs.append(_write_csv(
                    out / f"downloads_{_safe_name(package)}.csv", ["date", "downloads"],
                    ([day.isoformat(), int(count)]
                     for day, count in zip(series.days, series.downloads))))
                gap_rows += [(package, day.isoformat()) for day in series.gaps]
            outputs.append(_write_csv(out / "gaps.csv", ["package", "missing_date"], gap_rows))

        if issues_spec:
            result = fetch_issues(issues_spec, http, politeness=args.politeness)
            issues = result.issues
            errors.update(result.errors)
            for repo, dates in sorted(issues.items()):
                outputs.append(_write_csv(out / f"issues_{_safe_name(repo)}.csv",
                                          ["created"], ([d.isoformat()] for d in dates)))

        # a pair that cannot give a series is reported, never sinks the others
        for pair in pairs:
            package, _, repo = pair.partition("=")
            if package not in downloads:
                errors[pair] = f"no downloads fetched for {package!r}"
                continue
            if repo not in issues:
                errors[pair] = f"no issues fetched for {repo!r}"
                continue
            try:
                series = build_daily_series(package, downloads[package], issues[repo],
                                            start, end)
            except GapInSeriesError as exc:
                errors[pair] = str(exc)
                continue
            outputs.append(_write_csv(
                out / f"series_{_safe_name(package)}.csv",
                ["date", "downloads", "cumulative_issues"],
                ([day.isoformat(), int(series.downloads[i]),
                  int(series.cumulative_issues[i])] for i, day in enumerate(series.days))))

        if errors:
            errors_path = out / "errors.json"
            errors_path.write_text(json.dumps(errors, indent=2, sort_keys=True))
            outputs.append(errors_path)

        config = {"packages": list(packages), "repos": list(repos),
                  "start": start.isoformat(), "end": end.isoformat(),
                  "cache_dir": str(args.cache_dir), "live": args.live,
                  "downloads_api": args.downloads_api, "issues_api": args.issues_api,
                  "include_pulls": args.include_pulls, "pairs": args.pairs}
        done = _Run(config, args.seed, [], outputs)
        if errors and (downloads or issues):
            print(f"partial failure: {len(errors)} item(s) failed, "
                  f"see {out / 'errors.json'}", file=sys.stderr)
            done.code = EXIT_PARTIAL
        elif errors:
            print(f"all items failed, see {out / 'errors.json'}", file=sys.stderr)
            done.code = EXIT_FAILURE
        return done
    return run


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relqual",
        description="Bayesian-network release-quality analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="least severe log messages to print on stderr")
    parser.add_argument("--debug", action="store_true",
                        help="let an error escape with its traceback instead "
                             "of a one-line message")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, seed=0):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, kinds={})
        p.add_argument("--out", default="out")
        setting(p, "--seed", _SEED, default=seed)
        return p

    def setting(p, flag, kind, **options):
        # a flag given as text and read by ``main`` as ``kind``
        p.get_default("kinds")[p.add_argument(flag, **options).dest] = (flag, kind)

    p = command("simstudy", cmd_simstudy, "structure-recovery simulation study", None)
    p.add_argument("--config", help="JSON config file (flags override it)")
    setting(p, "--truth", str, help="ground-truth network JSON (default: built-in)")
    setting(p, "--replicates", int)
    setting(p, "--sample-size", int)
    setting(p, "--boot-samples", int)
    setting(p, "--restarts", int)
    setting(p, "--max-parents", int)
    setting(p, "--thresholds", [float], help="comma-separated list in [0,1]")
    setting(p, "--methods", [str],
            help=f"comma-separated subset of {','.join(_METHOD_SHORTHAND)}")
    setting(p, "--jobs", _COUNT, default=1)

    p = command("learn", cmd_learn, "bootstrap-averaged structure learning", HcConfig.seed)
    p.add_argument("data", help="numeric CSV with one column per variable")
    p.add_argument("--method", default="hc", choices=SEARCH_KINDS)
    setting(p, "--threshold", _FRACTION, default=0.85)
    p.add_argument("--strict-threshold", action="store_true")
    setting(p, "--boot-samples", _COUNT, default=100)
    setting(p, "--restarts", int, default=HcConfig.restarts)
    setting(p, "--max-parents", int, default=HcConfig.max_parents)
    setting(p, "--alpha", float, default=0.05)
    p.add_argument("--no-scale", action="store_true",
                   help="search on the raw columns instead of unit scale")

    p = command("quality", cmd_quality, "aggregate usage and build quality tables")
    p.add_argument("--usage", help="usage-record CSV")
    p.add_argument("--series", help="daily series CSV (date,downloads,cumulative_issues)")
    p.add_argument("--package", help="name for the series input")
    p.add_argument("--log-policy", default="log1p", choices=["log1p", "strict-log"])
    setting(p, "--span", _SPAN, default=0.3)
    p.add_argument("--power-law", action="store_true")
    p.add_argument("--with-date-control", action="store_true")

    p = command("rf", cmd_rf, "tune a regression forest and rank predictors",
                ForestConfig.seed)
    p.add_argument("data")
    p.add_argument("--response", required=True)
    setting(p, "--ntree-grid", [int], help="comma-separated ntree values")
    setting(p, "--mtry-grid", [int], help="comma-separated mtry values")
    setting(p, "--repeats", _COUNT, default=10)
    setting(p, "--folds", int, default=2)
    setting(p, "--min-leaf", int, default=ForestConfig.min_leaf)
    setting(p, "--importance-repeats", _COUNT, default=5)
    p.add_argument("--ablate", help="predictor to drop for the paired CV run")

    p = command("fetch", cmd_fetch, "download counts and issue timelines")
    setting(p, "--packages", [str], help="comma-separated registry package names")
    setting(p, "--repos", [str], help="comma-separated owner/name repo slugs")
    p.add_argument("--pairs", help="package=owner/name pairs for daily series")
    setting(p, "--start", dt.date, required=True)
    setting(p, "--end", dt.date, required=True)
    p.add_argument("--cache-dir", default=".relqual-cache")
    p.add_argument("--live", action="store_true",
                   help="allow network fetches on cache misses")
    p.add_argument("--downloads-api", default=NPM_DOWNLOADS_API)
    p.add_argument("--issues-api", default=GITHUB_API)
    p.add_argument("--token-env", help="environment variable holding the issues API token")
    p.add_argument("--include-pulls", action="store_true")
    setting(p, "--max-window-days", int, default=FetchSpec.max_window_days)
    setting(p, "--politeness", _COUNT, default=4)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the library's loggers print through one handler for this run only,
    # so calls in one process (tests, benchmarks) leave no handler behind
    package_log = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_log.addHandler(handler)
    package_log.setLevel(args.log_level)
    try:
        started = time.time()
        for dest, (flag, kind) in args.kinds.items():
            if getattr(args, dest) is not None:
                setattr(args, dest, _read(getattr(args, dest), kind, flag))
        run = args.func(args)       # the read step: a refusal leaves no --out
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        done = run(out)
        _write_manifest(out, args.command, done, started)
        return done.code
    except Exception as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(logging.NOTSET)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: reproducible batch runs over the library.

Every run writes its outputs plus a manifest (resolved configuration, seed,
input digests, wall time; for a study, the failures per arm) into the
output directory, so any result can be replayed bit for bit from a warm
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


def _checked(entry: dict, known, what: str) -> dict:
    """``entry`` if it is a JSON object whose every key is in ``known``;
    else a ValueError that says so or names the keys that are not."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be a JSON object, not {entry!r}")
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(known)}")
    return entry


def _whole(value, key: str, what: str) -> int:
    """``value`` as an int if it is a whole number, a bool not counting as
    one; else a ValueError naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} key {key!r} must be a whole number, not {value!r}")
    return int(value)


def _array(settings: dict, key: str, entries: str, entry_ok) -> list:
    """The config's ``key`` if it is a JSON array of ``entries``, each one
    passing ``entry_ok``; else a ValueError naming the key."""
    value = settings[key]
    if not isinstance(value, list) or not all(map(entry_ok, value)):
        raise ValueError(f"config key {key!r} must be an array of {entries}, "
                         f"not {value!r}")
    return value


def _parse_numbers(text: str, flag: str, kind=float) -> tuple:
    """The comma-separated entries of ``flag`` read as ``kind``, empty ones
    skipped; else a ValueError naming the flag and the entry."""
    values = []
    for entry in filter(str.strip, text.split(",")):
        try:
            values.append(kind(entry))
        except ValueError:
            noun = "a whole number" if kind is int else "a number"
            raise ValueError(f"{flag}: {entry.strip()!r} is not {noun}") from None
    return tuple(values)


# ---------------------------------------------------------------------------
# simstudy

_METHOD_SHORTHAND = {m.name.upper(): m for m in default_methods() + (
    MethodSpec("Hybrid-GS", "hybrid-gs"),
    MethodSpec("Hybrid-MMPC", "hybrid-mmpc"),
    MethodSpec("HC-D-I", "hc", DiscretizationSpec("equal-interval", 3)),
    MethodSpec("HC-D-K", "hc", DiscretizationSpec("kmeans", 3)),
)}


def _spec(cls, entry: dict, what: str):
    """``cls`` from the entry's own keys; the value of a field whose default
    is an int must be a whole number, and that of a float field is read as
    a float."""
    defaults = {f.name: f.default for f in fields(cls)}

    def read(key, value):
        kind = type(defaults[key])
        if kind is int:
            return _whole(value, key, what)
        return float(value) if kind is float else value

    return cls(**{key: read(key, value)
                  for key, value in _checked(entry, list(defaults), what).items()})


def _method(entry: dict) -> MethodSpec:
    entry = dict(entry)
    disc = entry.pop("discretization", None)
    if disc is not None:
        entry["discretization"] = _spec(DiscretizationSpec, disc, "discretization")
    return _spec(MethodSpec, entry, "method")


def _simstudy_config(args) -> tuple[SimStudyConfig, dict, list[Path]]:
    """The study from the settings given, a flag winning over the config
    file; ``SimStudyConfig`` and ``HcConfig`` supply every other value."""
    # the settings a config file may give, each also a flag of its own
    keys = ("truth", "replicates", "sample_size", "boot_samples", "restarts",
            "max_parents", "thresholds", "methods", "seed")
    settings: dict = {}
    inputs: list[Path] = []
    if args.config:
        path = Path(args.config)
        inputs.append(path)
        settings.update(_checked(json.loads(path.read_text()), keys, "config"))
    settings.update({key: getattr(args, key) for key in keys
                     if getattr(args, key) is not None})

    truth, truth_name = default_truth(), "default"
    if settings.get("truth"):
        truth_path = Path(settings["truth"])
        inputs.append(truth_path)
        truth, truth_name = GaussianBn.from_json(truth_path.read_text()), str(truth_path)

    study = {key: _whole(settings[key], key, "config") for key in
             ("replicates", "sample_size", "boot_samples", "seed") if key in settings}
    hc = {key: _whole(settings[key], key, "config") for key in
          ("restarts", "max_parents", "seed") if key in settings}
    if args.methods is not None:
        try:
            study["methods"] = tuple(_METHOD_SHORTHAND[name.strip().upper()]
                                     for name in args.methods.split(",") if name.strip())
        except KeyError as exc:
            raise ValueError(f"unknown arm {exc.args[0]!r}; known arms: "
                             f"{', '.join(_METHOD_SHORTHAND)}") from None
    elif "methods" in settings:
        methods = _array(settings, "methods", "objects", lambda m: isinstance(m, dict))
        study["methods"] = tuple(_method(m) for m in methods)
    if args.thresholds is not None:
        study["thresholds"] = _parse_numbers(args.thresholds, "--thresholds")
    elif "thresholds" in settings:
        study["thresholds"] = tuple(_array(settings, "thresholds", "numbers",
                                           lambda t: type(t) in (int, float)))

    cfg = SimStudyConfig(truth=truth, **study)
    if hc:
        cfg = replace(cfg, hc=replace(cfg.hc, **hc))
    resolved = {
        "replicates": cfg.replicates, "sample_size": cfg.sample_size,
        "boot_samples": cfg.boot_samples, "restarts": cfg.hc.restarts,
        "max_parents": cfg.hc.max_parents, "thresholds": list(cfg.thresholds),
        "methods": [m.name for m in cfg.methods],
        "truth": truth_name,
    }
    return cfg, resolved, inputs


def cmd_simstudy(args, out: Path) -> _Run:
    cfg, resolved, inputs = _simstudy_config(args)
    report = run_simstudy(cfg, jobs=args.jobs)
    csv_path = out / "simstudy.csv"
    report.write_csv(csv_path)
    table_path = out / "simstudy.txt"
    table_path.write_text(report.format_table())
    print(report.format_table())
    return _Run(resolved, cfg.seed, inputs, [csv_path, table_path],
                {"arm_failures": report.metadata["arm_failures"]})


# ---------------------------------------------------------------------------
# learn


def _standardized(data: Dataset) -> Dataset:
    rows = data.rows
    sd = rows.std(axis=0)
    if np.any(sd == 0):
        constant = [data.variables.names[i] for i in np.flatnonzero(sd == 0)]
        raise ValueError(f"constant columns cannot be scaled: {constant}")
    return Dataset(data.variables, (rows - rows.mean(axis=0)) / sd)


def cmd_learn(args, out: Path) -> _Run:
    data_path = Path(args.data)
    data = load_numeric_csv(data_path)
    if not 0.0 <= args.threshold <= 1.0:
        raise ValueError(f"--threshold must be in [0,1], got {args.threshold}")

    hc = HcConfig(restarts=args.restarts, max_parents=args.max_parents,
                  seed=args.seed)
    search_data = data if args.no_scale else _standardized(data)
    conf = bootstrap_average(search_data, build_learner(args.method, hc, args.alpha),
                             args.boot_samples, seed=args.seed)
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

    config = {"data": str(data_path), "method": args.method,
              "threshold": args.threshold, "boot_samples": args.boot_samples,
              "restarts": args.restarts, "max_parents": args.max_parents,
              "alpha": args.alpha, "scaled_search": not args.no_scale,
              "strict_threshold": args.strict_threshold}
    print(f"kept {len(net.dag.edges)} arcs at threshold {args.threshold}")
    return _Run(config, args.seed, [data_path],
                [arcs_path, network_path, inference_path, nodes_path])


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


def cmd_quality(args, out: Path) -> _Run:
    inputs: list[Path] = []
    outputs: list[Path] = []

    if not args.usage and not args.series:
        raise ValueError("give --usage and/or --series")

    if args.usage:
        usage_path = Path(args.usage)
        inputs.append(usage_path)
        aggregates = aggregate_usage(load_usage_csv(usage_path))
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

    if args.series:
        series_path = Path(args.series)
        inputs.append(series_path)
        series = _load_series_csv(series_path, args.package or series_path.stem)
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

    config = {"usage": args.usage, "series": args.series,
              "log_policy": args.log_policy, "span": args.span,
              "power_law": args.power_law,
              "with_date_control": args.with_date_control}
    return _Run(config, args.seed, inputs, outputs)


# ---------------------------------------------------------------------------
# rf


def cmd_rf(args, out: Path) -> _Run:
    data_path = Path(args.data)
    data = load_numeric_csv(data_path)
    if args.response not in data.variables.names:
        raise ValueError(f"response column {args.response!r} not in data "
                         f"(have: {', '.join(data.variables.names)})")
    p = len(data.variables) - 1

    if args.ntree_grid or args.mtry_grid:
        ntrees = (_parse_numbers(args.ntree_grid, "--ntree-grid", int) if args.ntree_grid
                  else (ForestConfig.ntree,))
        mtrys = (_parse_numbers(args.mtry_grid, "--mtry-grid", int) if args.mtry_grid
                 else tuple(range(1, p + 1)))
        grid = tuple((nt, mt) for nt in ntrees for mt in mtrys)
    else:
        grid = default_grid(p)

    tuned = tune_forest(data, args.response, grid, k_repeats=args.repeats,
                        k_folds=args.folds, seed=args.seed,
                        min_leaf=args.min_leaf)
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


# ---------------------------------------------------------------------------
# fetch


def _safe_name(name: str) -> str:
    return name.replace("/", "__").replace("@", "_at_")


def cmd_fetch(args, out: Path) -> _Run:
    packages = tuple(p for p in (args.packages or "").split(",") if p)
    repos = tuple(r for r in (args.repos or "").split(",") if r)
    if not packages and not repos:
        raise ValueError("give --packages and/or --repos")
    pairs = tuple(pair for pair in (args.pairs or "").split(",") if pair)
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--pairs entry {pair!r} is not package=owner/name")
    start = dt.date.fromisoformat(args.start)
    end = dt.date.fromisoformat(args.end)
    token = os.environ.get(args.token_env) if args.token_env else None

    cache = HttpCache(args.cache_dir)
    transport = requests_transport() if args.live else None
    http = CachedHttp(cache, transport)

    outputs: list[Path] = []
    errors: dict[str, str] = {}
    downloads: dict = {}
    issues: dict = {}

    if packages:
        spec = FetchSpec(packages, start, end, downloads_api_base=args.downloads_api,
                         max_window_days=args.max_window_days)
        result = fetch_downloads(spec, http, politeness=args.politeness)
        downloads, gap_rows = result.downloads, []
        errors.update(result.errors)
        for package, series in sorted(downloads.items()):
            outputs.append(_write_csv(
                out / f"downloads_{_safe_name(package)}.csv", ["date", "downloads"],
                ([day.isoformat(), int(count)]
                 for day, count in zip(series.days, series.downloads))))
            gap_rows += [(package, day.isoformat()) for day in series.gaps]
        outputs.append(_write_csv(out / "gaps.csv", ["package", "missing_date"],
                                  gap_rows))

    if repos:
        spec = FetchSpec(repos, start, end, issues_api_base=args.issues_api,
                         token=token, include_pulls=args.include_pulls)
        result = fetch_issues(spec, http, politeness=args.politeness)
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
            ([day.isoformat(), int(series.downloads[i]), int(series.cumulative_issues[i])]
             for i, day in enumerate(series.days))))

    if errors:
        errors_path = out / "errors.json"
        errors_path.write_text(json.dumps(errors, indent=2, sort_keys=True))
        outputs.append(errors_path)

    config = {"packages": list(packages), "repos": list(repos),
              "start": args.start, "end": args.end,
              "cache_dir": str(args.cache_dir), "live": args.live,
              "downloads_api": args.downloads_api, "issues_api": args.issues_api,
              "include_pulls": args.include_pulls, "pairs": args.pairs}
    run = _Run(config, args.seed, [], outputs)
    if errors and (downloads or issues):
        print(f"partial failure: {len(errors)} item(s) failed, "
              f"see {out / 'errors.json'}", file=sys.stderr)
        run.code = EXIT_PARTIAL
    elif errors:
        print(f"all items failed, see {out / 'errors.json'}", file=sys.stderr)
        run.code = EXIT_FAILURE
    return run


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relqual",
        description="Bayesian-network release-quality analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        dest="log_level",
                        help="least severe log messages to print on stderr")
    parser.add_argument("--debug", action="store_true",
                        help="let an error escape with its traceback instead "
                             "of a one-line message")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default="out")
        p.set_defaults(func=func)
        return p

    p = command("simstudy", cmd_simstudy, "structure-recovery simulation study")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--truth", help="ground-truth network JSON (default: built-in)")
    p.add_argument("--replicates", type=int)
    p.add_argument("--sample-size", type=int, dest="sample_size")
    p.add_argument("--boot-samples", type=int, dest="boot_samples")
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-parents", type=int, dest="max_parents")
    p.add_argument("--thresholds", help="comma-separated list in [0,1]")
    p.add_argument("--methods", help=f"comma-separated subset of "
                                     f"{','.join(_METHOD_SHORTHAND)}")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)

    p = command("learn", cmd_learn, "bootstrap-averaged structure learning")
    p.add_argument("data", help="numeric CSV with one column per variable")
    p.add_argument("--method", default="hc", choices=SEARCH_KINDS)
    p.add_argument("--threshold", type=float, default=0.85)
    p.add_argument("--strict-threshold", action="store_true",
                   dest="strict_threshold")
    p.add_argument("--boot-samples", type=int, default=100, dest="boot_samples")
    p.add_argument("--restarts", type=int, default=HcConfig.restarts)
    p.add_argument("--max-parents", type=int, default=HcConfig.max_parents,
                   dest="max_parents")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--no-scale", action="store_true", dest="no_scale",
                   help="search on the raw columns instead of unit scale")
    p.add_argument("--seed", type=int, default=HcConfig.seed)

    p = command("quality", cmd_quality, "aggregate usage and build quality tables")
    p.add_argument("--usage", help="usage-record CSV")
    p.add_argument("--series", help="daily series CSV "
                                    "(date,downloads,cumulative_issues)")
    p.add_argument("--package", help="name for the series input")
    p.add_argument("--log-policy", default="log1p",
                   choices=["log1p", "strict-log"], dest="log_policy")
    p.add_argument("--span", type=float, default=0.3)
    p.add_argument("--power-law", action="store_true", dest="power_law")
    p.add_argument("--with-date-control", action="store_true",
                   dest="with_date_control")
    p.add_argument("--seed", type=int, default=0)

    p = command("rf", cmd_rf, "tune a regression forest and rank predictors")
    p.add_argument("data")
    p.add_argument("--response", required=True)
    p.add_argument("--ntree-grid", dest="ntree_grid",
                   help="comma-separated ntree values")
    p.add_argument("--mtry-grid", dest="mtry_grid",
                   help="comma-separated mtry values")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--min-leaf", type=int, default=ForestConfig.min_leaf,
                   dest="min_leaf")
    p.add_argument("--importance-repeats", type=int, default=5,
                   dest="importance_repeats")
    p.add_argument("--ablate", help="predictor to drop for the paired CV run")
    p.add_argument("--seed", type=int, default=ForestConfig.seed)

    p = command("fetch", cmd_fetch, "download counts and issue timelines")
    p.add_argument("--packages", help="comma-separated registry package names")
    p.add_argument("--repos", help="comma-separated owner/name repo slugs")
    p.add_argument("--pairs", help="package=owner/name pairs for daily series")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--cache-dir", default=".relqual-cache", dest="cache_dir")
    p.add_argument("--live", action="store_true",
                   help="allow network fetches on cache misses")
    p.add_argument("--downloads-api", dest="downloads_api",
                   default=NPM_DOWNLOADS_API)
    p.add_argument("--issues-api", dest="issues_api", default=GITHUB_API)
    p.add_argument("--token-env", dest="token_env",
                   help="environment variable holding the issues API token")
    p.add_argument("--include-pulls", action="store_true", dest="include_pulls")
    p.add_argument("--max-window-days", type=int,
                   default=FetchSpec.max_window_days, dest="max_window_days")
    p.add_argument("--politeness", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        run = args.func(args, out)
        _write_manifest(out, args.command, run, started)
        return run.code
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

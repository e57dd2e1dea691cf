"""Command-line entry point: reproducible batch runs over the library.

Every run writes its outputs plus a manifest (resolved configuration, seed,
input digests, wall time) into the output directory, so any result can be
replayed bit for bit from a warm cache and the same seed.
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
from pathlib import Path

import numpy as np

from . import __version__
from .dag import VariableSet
from .data import Dataset, load_numeric_csv
from .discretize import DiscretizationSpec
from .forest import ForestConfig, ablate_predictor, default_grid, fit_forest, \
    permutation_importance, tune_forest
from .gaussian import GaussianBn, edge_inference
from .ingest import CachedHttp, FetchSpec, HttpCache, build_daily_series, \
    fetch_downloads, fetch_issues, load_usage_csv, requests_transport
from .ols import fit_power_law
from .quality import DailySeries, aggregate_usage, direction_of_trend, \
    log_transform, quality_metric, screen_significance, timeline
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


def _write_manifest(out: Path, command: str, config: dict, seed: int,
                    inputs: list[Path], outputs: list[Path],
                    started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.time() - started, 3),
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True))
    log.info("%s: %d outputs and run_manifest.json written to %s in %.3f s",
             command, len(outputs), out, manifest["wall_time_s"])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


# ---------------------------------------------------------------------------
# simstudy

_METHOD_SHORTHAND = {
    "HC": MethodSpec("HC", "hc"),
    "MAP": MethodSpec("MAP", "map"),
    "HYBRID-GS": MethodSpec("Hybrid-GS", "hybrid-gs"),
    "HYBRID-MMPC": MethodSpec("Hybrid-MMPC", "hybrid-mmpc"),
    "HC-D-F": MethodSpec("HC-D-F", "hc", DiscretizationSpec("equal-frequency", 3)),
    "HC-D-H": MethodSpec("HC-D-H", "hc", DiscretizationSpec("hartemink", 3, 20)),
    "HC-D-I": MethodSpec("HC-D-I", "hc", DiscretizationSpec("equal-interval", 3)),
    "HC-D-K": MethodSpec("HC-D-K", "hc", DiscretizationSpec("kmeans", 3)),
}


def _method_from_dict(entry: dict) -> MethodSpec:
    disc = entry.get("discretization")
    spec = None
    if disc:
        spec = DiscretizationSpec(
            method=disc["method"], bins=int(disc.get("bins", 3)),
            hartemink_initial_bins=int(disc.get("hartemink_initial_bins", 20)))
    return MethodSpec(entry["name"], entry.get("search", "hc"), spec,
                      float(entry.get("alpha", 0.05)))


def _simstudy_config(args) -> tuple[SimStudyConfig, dict, list[Path]]:
    settings: dict = {}
    inputs: list[Path] = []
    if args.config:
        path = Path(args.config)
        inputs.append(path)
        settings.update(json.loads(path.read_text()))

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return settings.get(key, fallback)

    truth = default_truth()
    truth_path = pick(args.truth, "truth", None)
    if truth_path:
        truth_path = Path(truth_path)
        inputs.append(truth_path)
        truth = GaussianBn.from_json(truth_path.read_text())

    methods: tuple[MethodSpec, ...]
    if args.methods is not None:
        methods = tuple(_METHOD_SHORTHAND[name.strip().upper()]
                        for name in args.methods.split(","))
    elif "methods" in settings:
        methods = tuple(_method_from_dict(m) for m in settings["methods"])
    else:
        methods = default_methods()

    thresholds = args.thresholds
    if thresholds is not None:
        thresholds = _parse_floats(thresholds)
    else:
        thresholds = tuple(settings.get("thresholds",
                                        SimStudyConfig.__dataclass_fields__[
                                            "thresholds"].default))

    seed = int(pick(args.seed, "seed", 0))
    cfg = SimStudyConfig(
        truth=truth,
        replicates=int(pick(args.replicates, "replicates", 100)),
        sample_size=int(pick(args.sample_size, "sample_size", 200)),
        methods=methods,
        thresholds=thresholds,
        boot_samples=int(pick(args.boot_samples, "boot_samples", 100)),
        hc=HcConfig(restarts=int(pick(args.restarts, "restarts", 10)),
                    max_parents=int(pick(args.max_parents, "max_parents", 5)),
                    seed=seed),
        seed=seed,
    )
    resolved = {
        "replicates": cfg.replicates, "sample_size": cfg.sample_size,
        "boot_samples": cfg.boot_samples, "restarts": cfg.hc.restarts,
        "max_parents": cfg.hc.max_parents, "thresholds": list(cfg.thresholds),
        "methods": [m.name for m in cfg.methods],
        "truth": str(truth_path) if truth_path else "default",
    }
    return cfg, resolved, inputs


def cmd_simstudy(args) -> int:
    started = time.time()
    out = _out_dir(args)
    cfg, resolved, inputs = _simstudy_config(args)
    report = run_simstudy(cfg, jobs=args.jobs)
    csv_path = out / "simstudy.csv"
    report.write_csv(csv_path)
    table_path = out / "simstudy.txt"
    table_path.write_text(report.format_table())
    print(report.format_table())
    _write_manifest(out, "simstudy", resolved, cfg.seed, inputs,
                    [csv_path, table_path], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# learn


def _standardized(data: Dataset) -> Dataset:
    rows = data.rows
    sd = rows.std(axis=0)
    if np.any(sd == 0):
        constant = [data.variables.names[i] for i in np.flatnonzero(sd == 0)]
        raise ValueError(f"constant columns cannot be scaled: {constant}")
    return Dataset(data.variables, (rows - rows.mean(axis=0)) / sd)


def cmd_learn(args) -> int:
    started = time.time()
    out = _out_dir(args)
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
    inference_path = out / "inference.csv"
    with inference_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["from", "to", "coefficient", "p_value"])
        for row in inference.rows():
            writer.writerow([row[0], row[1], f"{row[2]:.10g}", f"{row[3]:.6g}"])
    nodes_path = out / "nodes.csv"
    with nodes_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "adjusted_r2"])
        for i, name in enumerate(data.variables.names):
            writer.writerow([name, f"{inference.adjusted_r2[i]:.6g}"])

    config = {"data": str(data_path), "method": args.method,
              "threshold": args.threshold, "boot_samples": args.boot_samples,
              "restarts": args.restarts, "max_parents": args.max_parents,
              "alpha": args.alpha, "scaled_search": not args.no_scale,
              "strict_threshold": args.strict_threshold}
    _write_manifest(out, "learn", config, args.seed, [data_path],
                    [arcs_path, network_path, inference_path, nodes_path],
                    started)
    print(f"kept {len(net.dag.edges)} arcs at threshold {args.threshold}")
    return EXIT_OK


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
            days.append(dt.date.fromisoformat(row["date"]))
            downloads.append(int(row["downloads"]))
            cumulative.append(int(row["cumulative_issues"]))
    return DailySeries(package, tuple(days), np.array(downloads),
                       np.array(cumulative))


def cmd_quality(args) -> int:
    started = time.time()
    out = _out_dir(args)
    inputs: list[Path] = []
    outputs: list[Path] = []

    if not args.usage and not args.series:
        raise ValueError("give --usage and/or --series")

    if args.usage:
        usage_path = Path(args.usage)
        inputs.append(usage_path)
        aggregates = aggregate_usage(load_usage_csv(usage_path))
        agg_path = out / "aggregates.csv"
        with agg_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["release", "release_date", "release_duration",
                             "exceptions", "new_users", "usage_intensity",
                             "usage_frequency", "quality", "flagged_infinite",
                             "zero_users"])
            for a in aggregates:
                q = quality_metric(a.exceptions, a.new_users)
                flagged = q == float("inf")
                writer.writerow([a.release, a.release_date, a.release_duration,
                                 a.exceptions, a.new_users,
                                 f"{a.usage_intensity:.10g}",
                                 f"{a.usage_frequency:.10g}",
                                 "" if flagged else f"{q:.10g}",
                                 int(flagged), int(a.zero_users)])
        outputs.append(agg_path)

        transformed = log_transform(aggregates, policy=args.log_policy)
        model_path = out / "model_data.csv"
        from .data import write_numeric_csv
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
        timeline_path = out / "timeline.csv"
        with timeline_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["date", "downloads", "new_issues", "quality",
                             "trend", "flagged_infinite"])
            for i, day in enumerate(line.days):
                flagged = bool(line.flagged[i])
                trend = "" if line.trend is None else f"{line.trend[i]:.10g}"
                writer.writerow([day.isoformat(), int(line.downloads[i]),
                                 int(line.new_issues[i]),
                                 "" if flagged else f"{line.quality[i]:.10g}",
                                 trend, int(flagged)])
        outputs.append(timeline_path)

        summary = {"package": series.package,
                   "trend_direction": (direction_of_trend(line.trend)
                                       if line.trend is not None else "unavailable")}
        try:
            screen = screen_significance(series, args.with_date_control)
            summary["screen"] = {"slope_p_value": screen.slope_p_value,
                                 "r_squared": screen.r_squared,
                                 "n_days": screen.n_days,
                                 "date_controlled": screen.date_controlled}
        except Exception as exc:
            summary["screen_error"] = str(exc)
        trend_path = out / "trend.json"
        trend_path.write_text(json.dumps(summary, indent=2))
        outputs.append(trend_path)

    config = {"usage": args.usage, "series": args.series,
              "log_policy": args.log_policy, "span": args.span,
              "power_law": args.power_law,
              "with_date_control": args.with_date_control}
    _write_manifest(out, "quality", config, args.seed, inputs, outputs, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rf


def cmd_rf(args) -> int:
    started = time.time()
    out = _out_dir(args)
    data_path = Path(args.data)
    data = load_numeric_csv(data_path)
    if args.response not in data.variables.names:
        raise ValueError(f"response column {args.response!r} not in data "
                         f"(have: {', '.join(data.variables.names)})")
    p = len(data.variables) - 1

    if args.ntree_grid or args.mtry_grid:
        ntrees = _parse_ints(args.ntree_grid) if args.ntree_grid else (100,)
        mtrys = _parse_ints(args.mtry_grid) if args.mtry_grid else tuple(range(1, p + 1))
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
    importance_path = out / "importance.csv"
    with importance_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["predictor", "permutation_importance",
                         "impurity_importance", "rank"])
        for name, perm, impurity, rank in report.rows():
            writer.writerow([name, f"{perm:.10g}", f"{impurity:.10g}", rank])

    outputs = [tune_path, importance_path]
    config = {"data": str(data_path), "response": args.response,
              "grid_cells": len(grid), "repeats": args.repeats,
              "folds": args.folds, "min_leaf": args.min_leaf,
              "best": {"ntree": tuned.best.ntree, "mtry": tuned.best.mtry,
                       "mean_r2": tuned.best.mean_r2, "sd_r2": tuned.best.sd_r2},
              "oob_r2": model.oob_r2()}

    if args.ablate:
        with_r2, without_r2 = ablate_predictor(
            data, args.response, args.ablate, best_cfg,
            k_repeats=args.repeats, k_folds=args.folds, seed=args.seed)
        ablate_path = out / "ablate.json"
        ablate_path.write_text(json.dumps({
            "dropped": args.ablate, "r2_with": with_r2,
            "r2_without": without_r2}, indent=2))
        outputs.append(ablate_path)
        config["ablate"] = args.ablate

    _write_manifest(out, "rf", config, args.seed, [data_path], outputs, started)
    print(f"best: ntree={tuned.best.ntree} mtry={tuned.best.mtry} "
          f"mean R2={tuned.best.mean_r2:.3f} (sd: {tuned.best.sd_r2:.3f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fetch


def _safe_name(name: str) -> str:
    return name.replace("/", "__").replace("@", "_at_")


def cmd_fetch(args) -> int:
    started = time.time()
    out = _out_dir(args)
    packages = tuple(p for p in (args.packages or "").split(",") if p)
    repos = tuple(r for r in (args.repos or "").split(",") if r)
    if not packages and not repos:
        raise ValueError("give --packages and/or --repos")
    start = dt.date.fromisoformat(args.start)
    end = dt.date.fromisoformat(args.end)
    token = os.environ.get(args.token_env) if args.token_env else None

    cache = HttpCache(args.cache_dir)
    transport = requests_transport() if args.live else None
    http = CachedHttp(cache, transport)

    outputs: list[Path] = []
    errors: dict[str, str] = {}
    downloads_result = None

    if packages:
        spec = FetchSpec(packages, start, end, cache_dir=args.cache_dir,
                         downloads_api_base=args.downloads_api,
                         max_window_days=args.max_window_days)
        downloads_result = fetch_downloads(spec, http, politeness=args.politeness)
        errors.update(downloads_result.errors)
        gap_rows = []
        for package, series in sorted(downloads_result.downloads.items()):
            path = out / f"downloads_{_safe_name(package)}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["date", "downloads"])
                for day, count in zip(series.days, series.downloads):
                    writer.writerow([day.isoformat(), int(count)])
            outputs.append(path)
            for day in series.gaps:
                gap_rows.append((package, day.isoformat()))
        gaps_path = out / "gaps.csv"
        with gaps_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["package", "missing_date"])
            writer.writerows(gap_rows)
        outputs.append(gaps_path)

    issues_result = None
    if repos:
        spec = FetchSpec(repos, start, end, cache_dir=args.cache_dir,
                         issues_api_base=args.issues_api, token=token,
                         include_pulls=args.include_pulls)
        issues_result = fetch_issues(spec, http, politeness=args.politeness)
        errors.update(issues_result.errors)
        for repo, dates in sorted(issues_result.issues.items()):
            path = out / f"issues_{_safe_name(repo)}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["created"])
                for date in dates:
                    writer.writerow([date.isoformat()])
            outputs.append(path)

    for pair in (args.pairs or "").split(","):
        if not pair:
            continue
        package, _, repo = pair.partition("=")
        if (downloads_result and package in downloads_result.downloads
                and issues_result and repo in issues_result.issues):
            series = build_daily_series(
                package, downloads_result.downloads[package],
                issues_result.issues[repo], start, end)
            path = out / f"series_{_safe_name(package)}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["date", "downloads", "cumulative_issues"])
                for i, day in enumerate(series.days):
                    writer.writerow([day.isoformat(), int(series.downloads[i]),
                                     int(series.cumulative_issues[i])])
            outputs.append(path)

    if errors:
        errors_path = out / "errors.json"
        errors_path.write_text(json.dumps(errors, indent=2, sort_keys=True))
        outputs.append(errors_path)

    config = {"packages": list(packages), "repos": list(repos),
              "start": args.start, "end": args.end,
              "cache_dir": str(args.cache_dir), "live": args.live,
              "downloads_api": args.downloads_api, "issues_api": args.issues_api,
              "include_pulls": args.include_pulls, "pairs": args.pairs}
    _write_manifest(out, "fetch", config, args.seed, [], outputs, started)

    fetched_anything = bool(
        (downloads_result and downloads_result.downloads)
        or (issues_result and issues_result.issues))
    if errors and fetched_anything:
        print(f"partial failure: {len(errors)} item(s) failed, "
              f"see {out / 'errors.json'}", file=sys.stderr)
        return EXIT_PARTIAL
    if errors:
        print(f"all items failed, see {out / 'errors.json'}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


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

    p = sub.add_parser("simstudy", help="structure-recovery simulation study")
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
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simstudy)

    p = sub.add_parser("learn", help="bootstrap-averaged structure learning")
    p.add_argument("data", help="numeric CSV with one column per variable")
    p.add_argument("--method", default="hc", choices=SEARCH_KINDS)
    p.add_argument("--threshold", type=float, default=0.85)
    p.add_argument("--strict-threshold", action="store_true",
                   dest="strict_threshold")
    p.add_argument("--boot-samples", type=int, default=100, dest="boot_samples")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-parents", type=int, default=5, dest="max_parents")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--no-scale", action="store_true", dest="no_scale",
                   help="search on the raw columns instead of unit scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("quality", help="aggregate usage and build quality tables")
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
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("rf", help="tune a regression forest and rank predictors")
    p.add_argument("data")
    p.add_argument("--response", required=True)
    p.add_argument("--ntree-grid", dest="ntree_grid",
                   help="comma-separated ntree values")
    p.add_argument("--mtry-grid", dest="mtry_grid",
                   help="comma-separated mtry values")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--min-leaf", type=int, default=5, dest="min_leaf")
    p.add_argument("--importance-repeats", type=int, default=5,
                   dest="importance_repeats")
    p.add_argument("--ablate", help="predictor to drop for the paired CV run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_rf)

    p = sub.add_parser("fetch", help="download counts and issue timelines")
    p.add_argument("--packages", help="comma-separated registry package names")
    p.add_argument("--repos", help="comma-separated owner/name repo slugs")
    p.add_argument("--pairs", help="package=owner/name pairs for daily series")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--cache-dir", default=".relqual-cache", dest="cache_dir")
    p.add_argument("--live", action="store_true",
                   help="allow network fetches on cache misses")
    p.add_argument("--downloads-api", dest="downloads_api",
                   default="https://api.npmjs.org/downloads/range")
    p.add_argument("--issues-api", dest="issues_api",
                   default="https://api.github.com")
    p.add_argument("--token-env", dest="token_env",
                   help="environment variable holding the issues API token")
    p.add_argument("--include-pulls", action="store_true", dest="include_pulls")
    p.add_argument("--max-window-days", type=int, default=540,
                   dest="max_window_days")
    p.add_argument("--politeness", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_fetch)

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
        return args.func(args)
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

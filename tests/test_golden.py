"""Golden outputs: sha256 digests of fixed-seed CLI outputs.

The study table, the `learn` outputs and the `rf` outputs are the contract
of a refactor that keeps the arithmetic: they must stay byte-identical.
The codes and cut points of `discretize`, the `quality` tables and the
`fetch` outputs replayed from a warm cache are pinned the same way, and so
is each command's run_manifest.json, less its wall time.
The digests were recorded from these exact runs; a change that moves any
of them has changed what the program computes.
"""

import datetime as dt
import hashlib
import json

import numpy as np
import pytest

from relqual.cli import EXIT_OK, EXIT_PARTIAL, main
from relqual.dag import Dag, VariableSet
from relqual.discretize import METHODS, DiscretizationSpec, discretize
from relqual.data import Dataset, write_numeric_csv
from relqual.gaussian import GaussianBn, simulate
from relqual.ingest import CachedHttp, FetchSpec, HttpCache, TransportResponse, \
    fetch_downloads, fetch_issues
from relqual.search import DENSE_TABLE_ENTRIES
from relqual.simstudy import SEARCH_KINDS, default_truth


def run(argv):
    return main([str(a) for a in argv])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest(out, root):
    """run_manifest.json without its wall time, with ``root`` in every path
    written as ``<tmp>``."""
    payload = json.loads((out / "run_manifest.json").read_text())
    del payload["wall_time_s"]
    return json.loads(json.dumps(payload).replace(str(root), "<tmp>"))


SIMSTUDY_DIGESTS = {
    None: "e655c6d72a4c42fe514c6bfc20955d7c44708e2081563622b2c66c6630ac0b5f",
    "HYBRID-GS": "38ea20f65d336409670459efa476ec9cd7fed963aaf7ceda5d532df4a01841d9",
    "HYBRID-MMPC": "1da6ba7a0aa87f6f433e470ca57b795a185f78b039d1b28a81cb5158a647a3e9",
}


SIMSTUDY_TEXT_DIGESTS = {
    None: "4bf768a9e2f82742a11383a228b389eba445f6a381e215dc4ead197db84b1654",
    "HYBRID-GS": "5b3a2e00215f8189f86266249162955167cc541695bc055feb313f3e603fb2f6",
    "HYBRID-MMPC": "49f1057ed207c14d0e87db90dbac8acf7fb2dbe3471300b5a5458c7a3bd3c141",
}


@pytest.mark.parametrize("methods", list(SIMSTUDY_DIGESTS))
def test_simstudy_table_is_byte_identical(tmp_path, methods):
    argv = ["simstudy", "--replicates", 2, "--boot-samples", 10, "--restarts", 3,
            "--seed", 4, "--out", tmp_path]
    if methods is not None:
        argv += ["--methods", methods]
    assert run(argv) == EXIT_OK
    assert digest(tmp_path / "simstudy.csv") == SIMSTUDY_DIGESTS[methods]
    assert digest(tmp_path / "simstudy.txt") == SIMSTUDY_TEXT_DIGESTS[methods]
    arms = (["HC", "MAP", "HC-D-F", "HC-D-H"] if methods is None
            else ["Hybrid-" + methods.removeprefix("HYBRID-")])
    assert manifest(tmp_path, tmp_path) == {
        "command": "simstudy",
        "config": {"replicates": 2, "sample_size": 200, "boot_samples": 10,
                   "restarts": 3, "max_parents": 5,
                   "thresholds": [0.55, 0.6, 0.65, 0.7, 0.75,
                                  0.8, 0.85, 0.9, 0.95, 1.0],
                   "methods": arms, "truth": "default"},
        "seed": 4, "version": "0.1.0", "inputs": {},
        "outputs": ["<tmp>/simstudy.csv", "<tmp>/simstudy.txt"],
        "arm_failures": {arm: 0 for arm in arms},
    }


LEARN_DIGESTS = {
    "hc": ("815842cf21e28fe70e5f5492febd8644a123bd190194d93cf6392d4d05044fc6",
           "e41c68e14c0c44aca490d10bbe319aeaec9d03b8660cdcef3b9260e211bc83c4"),
    "map": ("f22d1ba9962c8f903207dbc3e3ee4ebb79e914555f95a136171c6d13220865b2",
            "b101f0111a4c8e9730c8d71c5fc8e0cb4e8347108d3f8dfb4e9307cda3cae755"),
    "hybrid-gs": ("cf7301b0616c83b948d9581c5241cae337236681504927fcf0e9b3b40a1ac448",
                  "b101f0111a4c8e9730c8d71c5fc8e0cb4e8347108d3f8dfb4e9307cda3cae755"),
    "hybrid-mmpc": ("0136b7fbcbd13db7010259f46f82de5dabbfc45ef71d8fe793c33d00ca0f46ab",
                    "b101f0111a4c8e9730c8d71c5fc8e0cb4e8347108d3f8dfb4e9307cda3cae755"),
}


# method -> (digest of inference.csv, digest of nodes.csv)
LEARN_TABLE_DIGESTS = {
    "hc": ("4476b79fd25c82a0f581f7f4689b2001a3a619b2cff5659079e284d189bf6cfd",
           "ffa97966b28f0b68d392c0957879c5aa18f87e58881d98c4accb00a16ccf48d2"),
    "map": ("3fb6322c5c3062fb3db8a764752af6758fdbbae14eb285c536a496f6a0ccf61a",
            "c63f77c34aa735901e16f02b3fb6687447808ece81675801a016b150dfce29ea"),
    "hybrid-gs": ("3fb6322c5c3062fb3db8a764752af6758fdbbae14eb285c536a496f6a0ccf61a",
                  "c63f77c34aa735901e16f02b3fb6687447808ece81675801a016b150dfce29ea"),
    "hybrid-mmpc": ("3fb6322c5c3062fb3db8a764752af6758fdbbae14eb285c536a496f6a0ccf61a",
                    "c63f77c34aa735901e16f02b3fb6687447808ece81675801a016b150dfce29ea"),
}


@pytest.mark.parametrize("method", SEARCH_KINDS)
def test_learn_outputs_are_byte_identical(tmp_path, method):
    data = tmp_path / "release.csv"
    write_numeric_csv(data, simulate(default_truth(), 150, seed=12))
    out = tmp_path / "out"
    assert run(["learn", data, "--method", method, "--boot-samples", 20,
                "--restarts", 4, "--threshold", "0.6", "--seed", 8,
                "--out", out]) == EXIT_OK
    assert (digest(out / "arcs.csv"), digest(out / "network.json")) == \
        LEARN_DIGESTS[method]
    assert (digest(out / "inference.csv"), digest(out / "nodes.csv")) == \
        LEARN_TABLE_DIGESTS[method]
    assert manifest(out, tmp_path) == {
        "command": "learn",
        "config": {"data": "<tmp>/release.csv", "method": method,
                   "threshold": 0.6, "boot_samples": 20, "restarts": 4,
                   "max_parents": 5, "alpha": 0.05, "scaled_search": True,
                   "strict_threshold": False},
        "seed": 8, "version": "0.1.0",
        "inputs": {"<tmp>/release.csv": digest(data)},
        "outputs": [f"<tmp>/out/{name}" for name in
                    ("arcs.csv", "network.json", "inference.csv", "nodes.csv")],
    }


def write_wide_chain_table(path):
    """520 rows of an 11-node chain x0 -> x1 -> ... -> x10: the NPM model's
    row count at a width whose bootstrap table is too big to be dense."""
    names = [f"x{i}" for i in range(11)]
    dag = Dag.from_names(VariableSet(names), list(zip(names[:-1], names[1:])))
    coefficients = (np.empty(0),) + tuple(np.array([0.9 - 0.15 * (i % 4)])
                                          for i in range(10))
    bn = GaussianBn(dag, np.zeros(11), coefficients, np.ones(11))
    write_numeric_csv(path, simulate(bn, 520, seed=31))


# method -> (digest of arcs.csv, network.json, inference.csv, nodes.csv)
WIDE_LEARN_DIGESTS = {
    "hc": ("9968f07c53e28ae26bd56025d647cfa9d2f58b9b7137dd71028169ad8c53b026",
           "3f8ea5b04624b5057f8166255b7f24d9dcd1ddd3dccdd881bda0059410d3ef55",
           "9f9762b36cefca37ec418fe3dbfe3d21dfafe4b13073857f9315165a850fdf9c",
           "20db65d53ae265632d5588ccce4f402978c5e168a09b95d21c81237cae0a7e57"),
    "map": ("a7b9a538bfaeec7d4ca38bac515316644354b3dd1f5225f9679d9b6560f13647",
            "d3d747295f4f5243f5b419effe4fae50f864b12a0f1aeaf76d838b881b0df769",
            "7b4b32356fe60dee3523227eaa24dd493754bf5eb5b257668be24b1cc87cc280",
            "62ca254370f476283581232d5efeb640b4bccc9e888716101bef8d44f899eaaa"),
}


@pytest.mark.parametrize("method", list(WIDE_LEARN_DIGESTS))
def test_learn_outputs_from_a_lazy_table_are_byte_identical(tmp_path, method):
    # 47 resamples of 11 columns do not fit a dense table, so the greedy
    # search reads the lazy table's families and the MAP search its rows
    boot_samples, p = 47, 11
    assert boot_samples * p << p > DENSE_TABLE_ENTRIES
    data = tmp_path / "wide.csv"
    write_wide_chain_table(data)
    out = tmp_path / "out"
    assert run(["learn", data, "--method", method, "--boot-samples", boot_samples,
                "--restarts", 3, "--seed", 5, "--out", out]) == EXIT_OK
    names = ("arcs.csv", "network.json", "inference.csv", "nodes.csv")
    assert tuple(digest(out / name) for name in names) == WIDE_LEARN_DIGESTS[method]
    assert manifest(out, tmp_path) == {
        "command": "learn",
        "config": {"data": "<tmp>/wide.csv", "method": method,
                   "threshold": 0.85, "boot_samples": boot_samples, "restarts": 3,
                   "max_parents": 5, "alpha": 0.05, "scaled_search": True,
                   "strict_threshold": False},
        "seed": 5, "version": "0.1.0",
        "inputs": {"<tmp>/wide.csv": digest(data)},
        "outputs": [f"<tmp>/out/{name}" for name in names],
    }


def write_rf_table(path):
    """Predictors with repeated values (one rounded column) and an exact
    copy of another, so split scans meet equal neighbours and tied
    reductions between features."""
    rng = np.random.default_rng(21)
    n = 90
    x1 = rng.standard_normal(n)
    coarse = np.round(rng.standard_normal(n), 1)
    noise = rng.standard_normal(n)
    y = 2 * x1 - coarse + 0.5 * rng.standard_normal(n)
    rows = np.column_stack([x1, coarse, coarse.copy(), noise, y])
    write_numeric_csv(path, Dataset(VariableSet(["x1", "coarse", "copy", "noise", "y"]),
                                    rows))


RF_DIGESTS = {
    "tune.csv": "2b24165a2bc5b04a56bcd342389509fab751e6753e3d0da7079bb4cf79c8c061",
    "importance.csv": "69601f789a6d43861da7866aa8c41d91a13f3da83922c1ad3ea868bbc6db7137",
    "ablate.json": "bdf167b45120dad98e0fe0d2a75a5ce9477b742d3f9172daa152a2ff0b314c1e",
}


def test_rf_outputs_are_byte_identical(tmp_path):
    data = tmp_path / "rf.csv"
    write_rf_table(data)
    out = tmp_path / "out"
    assert run(["rf", data, "--response", "y", "--ntree-grid", "8,3,12,8",
                "--mtry-grid", "3,1,2", "--repeats", 2, "--folds", 3,
                "--importance-repeats", 2, "--ablate", "coarse", "--seed", 6,
                "--out", out]) == EXIT_OK
    assert {name: digest(out / name) for name in RF_DIGESTS} == RF_DIGESTS
    assert manifest(out, tmp_path) == {
        "command": "rf",
        "config": {"data": "<tmp>/rf.csv", "response": "y", "grid_cells": 12,
                   "repeats": 2, "folds": 3, "min_leaf": 5,
                   "best": {"ntree": 12, "mtry": 3, "mean_r2": 0.7956820615596936,
                            "sd_r2": 0.0987203036085382},
                   "oob_r2": 0.8645421752828577, "ablate": "coarse"},
        "seed": 6, "version": "0.1.0",
        "inputs": {"<tmp>/rf.csv": digest(data)},
        "outputs": [f"<tmp>/out/{name}" for name in RF_DIGESTS],
    }


def write_usage_table(path):
    """Eight releases of three daily records each, all counts positive."""
    lines = ["date,release,new_users,users,new_visits,visits,time_on_site,exceptions"]
    for r in range(8):
        for j in range(3):
            day = dt.date(2016, 1, 1) + dt.timedelta(days=8 * r + j)
            new_users = 5 + 3 * r * r + j
            lines.append(f"{day},{r + 1}.0,{new_users},{new_users + r},"
                         f"{2 * new_users},{2 * new_users + j + 1},"
                         f"{100.5 * (r + 1) + j},{1 + new_users * (r % 3 + 1) // 7}")
    path.write_text("\n".join(lines) + "\n")


def write_series_table(path):
    """Forty days with one day of no downloads, so one quality value is
    flagged infinite."""
    lines = ["date,downloads,cumulative_issues"]
    cumulative = 0
    for i in range(40):
        cumulative += (i % 4 == 0) + (i % 7 == 0)
        downloads = 0 if i == 7 else 50 + (i * 37) % 90
        lines.append(f"{dt.date(2018, 3, 1) + dt.timedelta(days=i)},"
                     f"{downloads},{cumulative}")
    path.write_text("\n".join(lines) + "\n")


QUALITY_DIGESTS = {
    "aggregates.csv": "34027df7f343cf55375c370f2b994a78d861def7e1bfac4806e7b4e3982b14ab",
    "model_data.csv": "8d65133de551dd0d4796954d02c112cf3ad1fd12b14e4c24414b38f7f7d24e58",
    "powerlaw.json": "7e4d817cc99557a74c189a7f80d5aa54d5b368e5a8370f837e41ded58dd05593",
    "timeline.csv": "fcbd3f611210f4328730c0eca2437b6734f54b202c572c14b75065a61d48bf32",
    "trend.json": "445d4b4dace4708f1e970443ca5d298c7c5cfae14cc39d09e4a98bfc376659f1",
}


def test_quality_outputs_are_byte_identical(tmp_path):
    usage, series = tmp_path / "usage.csv", tmp_path / "series.csv"
    write_usage_table(usage)
    write_series_table(series)
    out = tmp_path / "out"
    assert run(["quality", "--usage", usage, "--series", series, "--package", "demo",
                "--power-law", "--with-date-control", "--span", "0.4",
                "--out", out]) == EXIT_OK
    assert {name: digest(out / name) for name in QUALITY_DIGESTS} == QUALITY_DIGESTS
    assert manifest(out, tmp_path) == {
        "command": "quality",
        "config": {"usage": "<tmp>/usage.csv", "series": "<tmp>/series.csv",
                   "log_policy": "log1p", "span": 0.4, "power_law": True,
                   "with_date_control": True},
        "seed": 0, "version": "0.1.0",
        "inputs": {"<tmp>/usage.csv": digest(usage),
                   "<tmp>/series.csv": digest(series)},
        "outputs": [f"<tmp>/out/{name}" for name in QUALITY_DIGESTS],
    }


FETCH_START, FETCH_END = dt.date(2018, 1, 1), dt.date(2018, 1, 10)


def warm_fetch_cache(cache_dir):
    """Downloads of "alpha" and of "@s/beta" (which skips one day), and the
    issues of "o/alpha" (two pages) and "o/beta" (one issue, one pull
    request), fetched once through a fake transport into ``cache_dir``."""
    days = [FETCH_START + dt.timedelta(days=i) for i in range(10)]
    downloads = "https://api.npmjs.org/downloads/range/2018-01-01:2018-01-10/"
    issues = "https://api.github.com/repos/"
    first_page = json.dumps({"state": "all", "per_page": 100, "page": 1}, sort_keys=True)
    page_two = "https://api.github.com/repositories/7/issues?page=2"
    responses = {
        (downloads + "alpha", "{}"): ({}, {"downloads": [
            {"day": str(d), "downloads": 40 + 3 * i} for i, d in enumerate(days)]}),
        (downloads + "@s/beta", "{}"): ({}, {"downloads": [
            {"day": str(d), "downloads": 7 * i} for i, d in enumerate(days) if i != 4]}),
        (issues + "o/alpha/issues", first_page): (
            {"link": f'<{page_two}>; rel="next"'},
            [{"created_at": "2018-01-02T10:00:00Z"},
             {"created_at": "2017-12-30T23:59:59Z"}]),
        (page_two, "{}"): ({}, [{"created_at": "2018-01-02T01:00:00Z"},
                               {"created_at": "2018-01-08T12:00:00Z"}]),
        (issues + "o/beta/issues", first_page): ({}, [
            {"created_at": "2018-01-03T00:00:00Z"},
            {"created_at": "2018-01-04T00:00:00Z", "pull_request": {}}]),
    }

    def transport(url, params, headers):
        headers, payload = responses[url, json.dumps(params or {}, sort_keys=True)]
        return TransportResponse(200, headers, json.dumps(payload).encode())

    http = CachedHttp(HttpCache(cache_dir), transport)
    fetched = (fetch_downloads(FetchSpec(("alpha", "@s/beta"), FETCH_START, FETCH_END), http),
               fetch_issues(FetchSpec(("o/alpha", "o/beta"), FETCH_START, FETCH_END), http))
    assert not any(result.errors for result in fetched)


FETCH_DIGESTS = {
    "downloads_alpha.csv": "fe211edee8af062d5221d918a3cfbf4ac018b2b12bfc55479840b526f3fc5f62",
    "downloads__at_s__beta.csv": "a9de946546bf1ed425230f7447d04e2fcd46b120048a74e33627a2a5e4511369",
    "gaps.csv": "2c3038e83e80aeaff34b510728b5c6f1f4a520b82504c5e74fe6ca7550ef3ce0",
    "issues_o__alpha.csv": "73f797e2b44f16532c1b2947caaf51f7ab8d67a07a2a245735bfdccd79d28e68",
    "issues_o__beta.csv": "bd672d22127d696d602c5568150a274e2cf8cd68fa514c5c845b2a698ab5d1c1",
    "series_alpha.csv": "6602ece7361c1638259c98dfa898684908a3b75777e6d00444944e7edd6041ba",
    "errors.json": "b4aa74a6c906530bad68a83c966c9ea9d690e11a67be1b31586eab4680215432",
}


def test_fetch_replay_outputs_are_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    warm_fetch_cache(cache)
    out = tmp_path / "out"
    assert run(["fetch", "--packages", "alpha,@s/beta,ghost", "--repos", "o/alpha,o/beta",
                "--pairs", "alpha=o/alpha", "--start", FETCH_START, "--end", FETCH_END,
                "--cache-dir", cache, "--out", out]) == EXIT_PARTIAL
    assert {name: digest(out / name) for name in FETCH_DIGESTS} == FETCH_DIGESTS
    assert manifest(out, tmp_path) == {
        "command": "fetch",
        "config": {"packages": ["alpha", "@s/beta", "ghost"],
                   "repos": ["o/alpha", "o/beta"],
                   "start": "2018-01-01", "end": "2018-01-10",
                   "cache_dir": "<tmp>/cache", "live": False,
                   "downloads_api": "https://api.npmjs.org/downloads/range",
                   "issues_api": "https://api.github.com",
                   "include_pulls": False, "pairs": "alpha=o/alpha"},
        "seed": 0, "version": "0.1.0", "inputs": {},
        "outputs": [f"<tmp>/out/{name}" for name in (
            "downloads__at_s__beta.csv", "downloads_alpha.csv", "gaps.csv",
            "issues_o__alpha.csv", "issues_o__beta.csv", "series_alpha.csv",
            "errors.json")],
    }


def discretize_table(seed):
    """The default truth at n=200 with one column rounded to one decimal,
    so that quantile cut points repeat and fine bins come out empty."""
    data = simulate(default_truth(), 200, seed=seed)
    rows = data.rows.copy()
    rows[:, 2] = np.round(rows[:, 2], 1)
    return Dataset(data.variables, rows)


# (seed, bins) -> method -> (digest of the codes, digest of the cut points)
DISCRETIZE_DIGESTS = {
    (5, 3): {
        "equal-interval": ("7593776fee1efc0afa0417af9e5d4e38fa82db9d4513d3096f160117bce14f78",
                          "33e8d1547013dfdf5a7fadb9373f2be58dee67daaaae01a26755257b689364c1"),
        "equal-frequency": ("b9d23c42dc29f3db806ac7dc8795995f4e0ad93dae0d9707391673a70c6bdf20",
                           "cf380d4aecced56074206c5259ac97ebb57f8e68f476a6f9cde12d990d65dbda"),
        "kmeans": ("d918380aad898fa3136a3a63893e06623645e4d17b1689c4842062f66f5e681d",
                  "8d53a599dfe29a16a3a2993a8c9111b7496b5f2735f237874ac9a4846df4e7cc"),
        "hartemink": ("cec5157cb82d5a001acea65c4930e189f31a829e283ad3f88e72c2b77339bbfb",
                     "0bf264326dcb7201b0e3758bc7054432d4abb3b0b1b2e831dacd1907bf2c03d4"),
    },
    (23, 4): {
        "equal-interval": ("b8f3814ec2f1090488ac23198c022b16ce2b21d26a636ce5ed1d7b208a654b37",
                          "294684b7fe05a28d5c6ba25dc085c90b1559eb07cf589c4752cf963c5b96f588"),
        "equal-frequency": ("10a24873fcd27116d95623970383ec4ce8535d9fc3a66b762ee21b7953acf7a1",
                           "d2bd9a44613fa5f564473e1fc6f9c02269f497554b20c6179cf2c649b786854e"),
        "kmeans": ("1f7dc7029ae17b3ddbb332ae2a5f3af6e81d5ccf8d64ba0be0713b51e99b77f4",
                  "a309e9f2b0c5925b1923e494180a51387421e5c4e35375f039fa826e4ac00097"),
        "hartemink": ("6a19e45501748ae8f96969163fb5ee4bdb64cdd48daece2d622493ceb6c1a8d8",
                     "85476b6a76741d65a0a0fa921587480e072fa5e6ee30587bbd671be912c866d9"),
    },
}


@pytest.mark.parametrize("seed,bins", [(5, 3), (23, 4)])
@pytest.mark.parametrize("method", METHODS)
def test_discretize_codes_and_edges_are_byte_identical(method, seed, bins):
    out = discretize(discretize_table(seed), DiscretizationSpec(method=method, bins=bins))
    codes = np.ascontiguousarray(out.dataset.rows, dtype="<i8").tobytes()
    edges = b"".join(np.ascontiguousarray(e, dtype="<f8").tobytes() + b"|"
                     for e in out.edges)
    assert (hashlib.sha256(codes).hexdigest(), hashlib.sha256(edges).hexdigest()) == \
        DISCRETIZE_DIGESTS[seed, bins][method]

import datetime as dt
import json
import logging

import numpy as np
import pytest

from relqual.cli import EXIT_FAILURE, EXIT_OK, EXIT_PARTIAL, main
from relqual.dag import Dag, VariableSet
from relqual.data import Dataset, load_numeric_csv, write_numeric_csv
from relqual.gaussian import GaussianBn, simulate
from relqual.ingest import CachedHttp, HttpCache, TransportResponse
from relqual.search import HcConfig, averaged_network, bootstrap_average
from relqual.simstudy import SEARCH_KINDS, build_learner, default_truth


def run(argv):
    return main([str(a) for a in argv])


def write_pair_csv(path, n=300, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = 2.0 * a + 0.1 * rng.standard_normal(n)
    with path.open("w") as handle:
        handle.write("A,B\n")
        for x, y in zip(a, b):
            handle.write(f"{x:.8f},{y:.8f}\n")


# --- simstudy ----------------------------------------------------------------


def test_simstudy_config_file_and_flags(tmp_path):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({
        "replicates": 2, "sample_size": 80, "boot_samples": 5,
        "restarts": 2, "thresholds": [0.85, 1.0],
        "methods": [{"name": "HC", "search": "hc"}],
    }))
    out = tmp_path / "out"
    assert run(["simstudy", "--config", config, "--out", out, "--seed", 3]) == EXIT_OK
    rows = (out / "simstudy.csv").read_text().strip().splitlines()
    assert rows[0] == "method,discretization,threshold,exact,off_by_one,worse"
    assert len(rows) == 1 + 1 * 2  # one method x two thresholds
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "simstudy"
    assert manifest["seed"] == 3
    assert manifest["config"]["replicates"] == 2
    assert manifest["arm_failures"] == {"HC": 0}


SMALL_STUDY = {"replicates": 1, "sample_size": 40, "boot_samples": 2, "restarts": 1,
               "thresholds": [1.0]}


@pytest.mark.parametrize("settings, key", [
    ({"replicate": 5}, "'replicate'"),
    ({"methods": [{"name": "HC", "serach": "map"}]}, "'serach'"),
    ({"methods": [{"name": "HC-D-F", "discretization": {
        "method": "equal-frequency", "bin": 5}}]}, "'bin'"),
])
def test_simstudy_config_refuses_unknown_keys(tmp_path, capsys, settings, key):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({**SMALL_STUDY, **settings}))
    out = tmp_path / "out"
    assert run(["simstudy", "--config", config, "--out", out]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and key in err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("settings, key", [
    ({"replicates": 1.9}, "'replicates'"),
    ({"boot_samples": True}, "'boot_samples'"),
    ({"methods": [{"name": "HC-D-F", "discretization": {
        "method": "equal-frequency", "bins": 2.5}}]}, "'bins'"),
    ({"methods": [{"name": "HC-D-F", "discretization": {
        "method": "equal-frequency", "bins": "3"}}]}, "'bins'"),
])
def test_simstudy_config_refuses_counts_that_are_not_whole_numbers(
        tmp_path, capsys, settings, key):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({**SMALL_STUDY, **settings}))
    out = tmp_path / "out"
    assert run(["simstudy", "--config", config, "--out", out]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "whole number" in err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("config, words", [
    ({**SMALL_STUDY, "methods": [1]}, ("'methods'", "array of objects")),
    ({**SMALL_STUDY, "methods": [{"name": "HC-D-F", "discretization": 3}]},
     ("discretization", "JSON object")),
    ({**SMALL_STUDY, "thresholds": 0.5}, ("'thresholds'", "array of numbers")),
    ([1, 2], ("config", "JSON object")),
])
def test_simstudy_config_refuses_values_of_the_wrong_json_type(
        tmp_path, capsys, config, words):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["simstudy", "--config", path, "--out", out]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(word in err for word in words)
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("disc", [0, False, "", []],
                         ids=["zero", "false", "empty-string", "empty-array"])
def test_simstudy_config_refuses_a_falsy_discretization(tmp_path, capsys, disc):
    # read as "no discretization", such a value would run the arm on the
    # continuous data under the arm's discretized name
    path = tmp_path / "study.json"
    path.write_text(json.dumps({**SMALL_STUDY, "methods": [
        {"name": "HC-D-F", "discretization": disc}]}))
    out = tmp_path / "out"
    assert run(["simstudy", "--config", path, "--out", out]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err == f"error: discretization must be a JSON object, not {disc!r}\n"
    assert not (out / "run_manifest.json").exists()


def test_simstudy_config_reads_an_empty_discretization_as_the_default_spec(tmp_path):
    # every omitted key of a spec takes its default, so {} bins each
    # column into 3 equal-frequency bins
    config = tmp_path / "study.json"
    config.write_text(json.dumps({**SMALL_STUDY, "methods": [
        {"name": "HC-D-F", "discretization": {}}]}))
    out = tmp_path / "out"
    assert run(["simstudy", "--config", config, "--out", out]) == EXIT_OK
    rows = (out / "simstudy.csv").read_text().splitlines()
    assert rows[1].startswith("HC-D-F,equal-frequency-3,")


def test_simstudy_config_reads_spec_numbers_as_their_default_type(tmp_path):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({**SMALL_STUDY, "methods": [{
        "name": "HC-D-F", "alpha": "0.1",
        "discretization": {"method": "equal-frequency", "bins": 3.0}}]}))
    out = tmp_path / "out"
    assert run(["simstudy", "--config", config, "--out", out]) == EXIT_OK
    rows = (out / "simstudy.csv").read_text().splitlines()
    assert rows[1].startswith("HC-D-F,equal-frequency-3,1.0")


def test_simstudy_manifest_counts_arm_failures(tmp_path):
    # a constant column: every arm fails in every replicate
    truth = GaussianBn(Dag(VariableSet(["A", "B"])), np.zeros(2),
                       (np.empty(0), np.empty(0)), np.array([0.0, 1.0]))
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(truth.to_json())
    out = tmp_path / "out"
    assert run(["simstudy", "--truth", truth_path, "--methods", "HC,HC-D-I",
                "--replicates", 3, "--sample-size", 40, "--boot-samples", 3,
                "--restarts", 1, "--out", out]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["arm_failures"] == {"HC": 3, "HC-D-I": 3}


def test_simstudy_same_seed_identical_csv(tmp_path):
    args = ["simstudy", "--replicates", 2, "--sample-size", 60,
            "--boot-samples", 4, "--restarts", 1, "--methods", "HC",
            "--thresholds", "0.85", "--seed", 7]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", out_a]) == EXIT_OK
    assert run(args + ["--out", out_b]) == EXIT_OK
    assert (out_a / "simstudy.csv").read_bytes() == (out_b / "simstudy.csv").read_bytes()


def test_simstudy_invalid_threshold_names_field(tmp_path, capsys):
    code = run(["simstudy", "--replicates", 1, "--thresholds", "1.5",
                "--methods", "HC", "--out", tmp_path / "x"])
    assert code == EXIT_FAILURE
    assert "threshold" in capsys.readouterr().err


def test_simstudy_thresholds_flag_names_an_entry_that_is_not_a_number(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["simstudy", "--replicates", 1, "--thresholds", "0.5,x",
                "--methods", "HC", "--out", out]) == EXIT_FAILURE
    assert "error: --thresholds: 'x' is not a number" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


def test_simstudy_methods_flag_skips_empty_entries(tmp_path):
    out = tmp_path / "out"
    assert run(["simstudy", "--replicates", 1, "--sample-size", 40,
                "--boot-samples", 2, "--restarts", 1, "--thresholds", "1.0",
                "--methods", "HC,", "--out", out]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["methods"] == ["HC"]


@pytest.mark.parametrize("jobs", [0, -3])
def test_simstudy_refuses_non_positive_jobs(tmp_path, capsys, jobs):
    code = run(["simstudy", "--replicates", 1, "--methods", "HC", "--jobs", jobs,
                "--out", tmp_path / "x"])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"


def test_simstudy_unknown_arm_lists_the_known_ones(tmp_path, capsys):
    code = run(["simstudy", "--replicates", 1, "--methods", "HC,FOO",
                "--out", tmp_path / "x"])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: unknown arm 'FOO'; known arms: HC, ")
    assert "HYBRID-MMPC" in err
    with pytest.raises(ValueError, match="unknown arm 'FOO'"):
        run(["--debug", "simstudy", "--methods", "FOO", "--out", tmp_path / "y"])


# --- learn -------------------------------------------------------------------


def test_learn_two_column_proportional(tmp_path):
    data = tmp_path / "pair.csv"
    write_pair_csv(data)
    out = tmp_path / "out"
    assert run(["learn", data, "--boot-samples", 10, "--restarts", 2,
                "--threshold", "0.85", "--seed", 1, "--out", out]) == EXIT_OK

    arcs = (out / "arcs.csv").read_text().strip().splitlines()
    assert arcs[0] == "from,to,strength,direction"
    assert len(arcs) == 3  # both ordered pairs of two variables

    network = json.loads((out / "network.json").read_text())
    assert network["variables"] == ["A", "B"]
    assert len(network["edges"]) == 1

    inference = (out / "inference.csv").read_text().strip().splitlines()
    assert inference[0] == "from,to,coefficient,p_value"
    assert len(inference) == 2


@pytest.mark.parametrize("method", SEARCH_KINDS)
def test_learn_method_matches_library_bootstrap(tmp_path, method):
    data_path = tmp_path / "release.csv"
    write_numeric_csv(data_path, simulate(default_truth(), 80, seed=6))
    out = tmp_path / "out"
    assert run(["learn", data_path, "--method", method, "--boot-samples", 6,
                "--restarts", 2, "--max-parents", 2, "--alpha", "0.1",
                "--threshold", "0.5", "--seed", 3, "--out", out]) == EXIT_OK

    data = load_numeric_csv(data_path)
    rows = data.rows
    standardized = Dataset(data.variables, (rows - rows.mean(axis=0)) / rows.std(axis=0))
    learner = build_learner(method, HcConfig(restarts=2, max_parents=2, seed=3), 0.1)
    conf = bootstrap_average(standardized, learner, 6, seed=3)
    assert (out / "arcs.csv").read_bytes() == conf.to_csv().encode()
    assert (out / "network.json").read_text() == averaged_network(conf, 0.5).dag.to_json()


def test_learn_replay_from_manifest_settings_is_byte_identical(tmp_path):
    data = tmp_path / "pair.csv"
    write_pair_csv(data, seed=5)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["learn", data, "--boot-samples", 8, "--restarts", 2, "--seed", 11]
    assert run(args + ["--out", out_a]) == EXIT_OK
    assert run(args + ["--out", out_b]) == EXIT_OK
    for name in ("arcs.csv", "network.json", "inference.csv", "nodes.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_learn_rejects_bad_threshold(tmp_path, capsys):
    data = tmp_path / "pair.csv"
    write_pair_csv(data)
    code = run(["learn", data, "--threshold", "1.01", "--out", tmp_path / "o"])
    assert code == EXIT_FAILURE
    assert "threshold" in capsys.readouterr().err


# --- logging and tracebacks ---------------------------------------------------


def test_log_level_prints_library_messages_for_that_run_only(tmp_path, capsys):
    data = tmp_path / "pair.csv"
    write_pair_csv(data, n=60)
    args = ["learn", data, "--boot-samples", 3, "--restarts", 1]
    assert run(["--log-level", "INFO", *args, "--out", tmp_path / "a"]) == EXIT_OK
    assert "INFO relqual.cli: learn: " in capsys.readouterr().err
    assert run([*args, "--out", tmp_path / "b"]) == EXIT_OK
    assert "INFO" not in capsys.readouterr().err
    assert logging.getLogger("relqual").handlers == []


def test_debug_lets_the_error_escape_with_its_traceback(tmp_path, capsys):
    argv = ["quality", "--out", tmp_path / "o"]
    with pytest.raises(ValueError, match="give --usage"):
        run(["--debug", *argv])
    assert logging.getLogger("relqual").handlers == []
    assert run(argv) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: give --usage")


# --- quality -----------------------------------------------------------------


USAGE_CSV = """date,release,new_users,users,new_visits,visits,time_on_site,exceptions
2016-01-01,1.0,10,10,20,22,1000,5
2016-01-02,1.0,2,11,6,7,400,1
2016-01-10,2.0,4,4,8,9,300,2
2016-01-20,3.0,25,20,50,60,2600,12
2016-02-01,4.0,60,55,110,140,6400,31
2016-02-15,5.0,140,120,260,300,15500,75
"""


def test_quality_usage_outputs(tmp_path):
    usage = tmp_path / "usage.csv"
    usage.write_text(USAGE_CSV)
    out = tmp_path / "out"
    assert run(["quality", "--usage", usage, "--power-law", "--out", out]) == EXIT_OK

    rows = (out / "aggregates.csv").read_text().strip().splitlines()
    assert rows[0].startswith("release,release_date,release_duration,exceptions,"
                              "new_users,usage_intensity,usage_frequency,quality")
    assert len(rows) == 6
    first = rows[1].split(",")
    assert first[0] == "1.0" and first[2] == "2"  # two-day duration

    model_header = (out / "model_data.csv").read_text().splitlines()[0]
    assert model_header == ("Release.Date,Release.Duration,Exceptions,"
                            "New.Users,Usage.Intensity,Usage.Frequency")
    power = json.loads((out / "powerlaw.json").read_text())
    assert "exponent" in power and "ci_low" in power


def test_quality_series_timeline(tmp_path):
    series = tmp_path / "series.csv"
    days = [dt.date(2018, 1, 1) + dt.timedelta(days=i) for i in range(20)]
    lines = ["date,downloads,cumulative_issues"]
    cumulative = 0
    for i, day in enumerate(days):
        downloads = 100 if i % 2 == 0 else 200
        cumulative += downloads // 50  # exactly 0.02 issues per download
        lines.append(f"{day.isoformat()},{downloads},{cumulative}")
    series.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(["quality", "--series", series, "--package", "demo",
                "--out", out]) == EXIT_OK
    rows = (out / "timeline.csv").read_text().strip().splitlines()
    assert rows[0] == "date,downloads,new_issues,quality,trend,flagged_infinite"
    assert len(rows) == 21
    trend = json.loads((out / "trend.json").read_text())
    assert trend["trend_direction"] == "flat"
    assert trend["screen"]["slope_p_value"] <= 1.0


def write_series_csv(path, days):
    lines = ["date,downloads,cumulative_issues"]
    for i in range(days):
        day = dt.date(2018, 1, 1) + dt.timedelta(days=i)
        lines.append(f"{day.isoformat()},{100 + i},{i}")
    path.write_text("\n".join(lines) + "\n")


def test_quality_short_series_records_screen_error(tmp_path):
    series = tmp_path / "series.csv"
    write_series_csv(series, 5)
    out = tmp_path / "out"
    assert run(["quality", "--series", series, "--out", out]) == EXIT_OK
    trend = json.loads((out / "trend.json").read_text())
    assert "screen" not in trend
    assert trend["screen_error"].startswith("need at least 10 days")


def test_quality_screen_defect_is_not_a_screen_error(tmp_path, monkeypatch, capsys):
    import relqual.cli as cli

    def broken(series, with_date_control):
        raise TypeError("broken screen")

    monkeypatch.setattr(cli, "screen_significance", broken)
    series = tmp_path / "series.csv"
    write_series_csv(series, 30)
    with pytest.raises(TypeError, match="broken screen"):
        run(["--debug", "quality", "--series", series, "--out", tmp_path / "a"])
    assert run(["quality", "--series", series, "--out", tmp_path / "b"]) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: broken screen")
    assert not (tmp_path / "b" / "trend.json").exists()


def test_quality_needs_an_input(tmp_path, capsys):
    assert run(["quality", "--out", tmp_path / "o"]) == EXIT_FAILURE
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("row, reason", [
    ("2020-01-02,7", "expected 3 fields"),
    ("2020-01-02,x,2", "invalid literal for int() with base 10: 'x'"),
])
def test_quality_series_names_the_file_and_line_of_a_bad_row(tmp_path, capsys,
                                                               row, reason):
    series = tmp_path / "series.csv"
    series.write_text(f"date,downloads,cumulative_issues\n2020-01-01,5,1\n\n{row}\n")
    assert run(["quality", "--series", series, "--out", tmp_path / "o"]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: {series}:4: {reason}\n"
    assert not (tmp_path / "o" / "run_manifest.json").exists()


def test_quality_series_refuses_a_negative_issue_count(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("date,downloads,cumulative_issues\n2020-01-01,5,-2\n")
    assert run(["quality", "--series", series, "--out", tmp_path / "o"]) == EXIT_FAILURE
    assert "cumulative issues must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o" / "run_manifest.json").exists()


@pytest.mark.parametrize("rows, reason", [
    ("2020-01-02,5,1\n2020-01-01,5,2", "days must be strictly increasing"),
    ("2020-01-01,5,3\n2020-01-02,5,2",
     "cumulative issues must be >= 0 and nondecreasing"),
], ids=["days-out-of-order", "falling-count"])
def test_quality_series_names_the_file_of_a_refused_series(tmp_path, capsys,
                                                           rows, reason):
    series = tmp_path / "series.csv"
    series.write_text(f"date,downloads,cumulative_issues\n{rows}\n")
    assert run(["quality", "--series", series, "--out", tmp_path / "o"]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: {series}: {reason}\n"
    assert not (tmp_path / "o" / "run_manifest.json").exists()


def test_quality_usage_names_the_file_and_line_of_a_bad_row(tmp_path, capsys):
    usage = tmp_path / "usage.csv"
    header, first = USAGE_CSV.splitlines()[:2]
    fields = first.split(",")
    fields[2] = "x"   # new_users
    usage.write_text(f"{header}\n{','.join(fields)}\n")
    assert run(["quality", "--usage", usage, "--out", tmp_path / "o"]) == EXIT_FAILURE
    assert capsys.readouterr().err == (
        f"error: {usage}:2: invalid literal for int() with base 10: 'x'\n")
    assert not (tmp_path / "o" / "run_manifest.json").exists()


# --- rf ----------------------------------------------------------------------


def write_rf_csv(path, seed):
    rng = np.random.default_rng(seed)
    n = 120
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = 3 * x1 + 0.5 * rng.standard_normal(n)
    with path.open("w") as handle:
        handle.write("x1,x2,y\n")
        for row in zip(x1, x2, y):
            handle.write(",".join(f"{v:.8f}" for v in row) + "\n")


def test_rf_importance_top_predictor_stable_across_seeds(tmp_path):
    data = tmp_path / "rf.csv"
    write_rf_csv(data, seed=2)
    tops = []
    for seed in (1, 2):
        out = tmp_path / f"out{seed}"
        assert run(["rf", data, "--response", "y", "--ntree-grid", "30",
                    "--mtry-grid", "1,2", "--repeats", 2, "--seed", seed,
                    "--out", out]) == EXIT_OK
        rows = (out / "importance.csv").read_text().strip().splitlines()[1:]
        ranked = {line.split(",")[0]: int(line.split(",")[3]) for line in rows}
        tops.append(min(ranked, key=ranked.get))
        tune_rows = (out / "tune.csv").read_text().strip().splitlines()
        assert tune_rows[0] == "ntree,mtry,mean_r2,sd_r2"
        assert len(tune_rows) == 3
    assert tops == ["x1", "x1"]


def test_rf_missing_response_names_column(tmp_path, capsys):
    data = tmp_path / "rf.csv"
    write_rf_csv(data, seed=3)
    assert run(["rf", data, "--response", "nope",
                "--out", tmp_path / "o"]) == EXIT_FAILURE
    assert "nope" in capsys.readouterr().err


def test_rf_ablate_writes_paired_r2(tmp_path):
    data = tmp_path / "rf.csv"
    write_rf_csv(data, seed=4)
    out = tmp_path / "out"
    assert run(["rf", data, "--response", "y", "--ntree-grid", "25",
                "--mtry-grid", "2", "--repeats", 2, "--ablate", "x1",
                "--out", out]) == EXIT_OK
    payload = json.loads((out / "ablate.json").read_text())
    assert payload["dropped"] == "x1"
    assert payload["r2_with"] > payload["r2_without"]


@pytest.mark.parametrize("flags, message", [
    (["--repeats", 0], "k_repeats must be >= 1, got 0"),
    (["--folds", 121], "k_folds must be in [2, 120] (the row count), got 121"),
    (["--importance-repeats", 0], "repeats must be >= 1, got 0"),
])
def test_rf_rejects_settings_that_score_nothing(tmp_path, capsys, flags, message):
    data = tmp_path / "rf.csv"
    write_rf_csv(data, seed=5)
    assert run(["rf", data, "--response", "y", "--ntree-grid", "5",
                "--mtry-grid", "1", "--repeats", 2, *flags,
                "--out", tmp_path / "o"]) == EXIT_FAILURE
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--ntree-grid", "10,x"], "--ntree-grid: 'x' is not a whole number"),
    (["--mtry-grid", "1.5"], "--mtry-grid: '1.5' is not a whole number"),
])
def test_rf_grid_flags_name_an_entry_that_is_not_a_whole_number(
        tmp_path, capsys, flags, message):
    data = tmp_path / "rf.csv"
    write_rf_csv(data, seed=5)
    out = tmp_path / "o"
    assert run(["rf", data, "--response", "y", *flags, "--out", out]) == EXIT_FAILURE
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


def test_rf_reports_a_forest_without_usable_oob_rows(tmp_path, capsys):
    # one tree whose bootstrap leaves at most one row out of bag
    data = tmp_path / "rf.csv"
    write_numeric_csv(data, Dataset(VariableSet(["a", "b", "y"]),
                                    np.random.default_rng(0).standard_normal((10, 3))))
    assert run(["rf", data, "--response", "y", "--ntree-grid", "1",
                "--mtry-grid", "1", "--min-leaf", 2, "--repeats", 1,
                "--seed", 185, "--out", tmp_path / "o"]) == EXIT_FAILURE
    assert "error: no tree of 1 has two or more out-of-bag rows" in \
        capsys.readouterr().err


# --- fetch -------------------------------------------------------------------


def warm_cache(cache_dir, url, payload, headers=None):
    cache = HttpCache(cache_dir)
    transport_called = {"n": 0}

    def transport(u, params, hdrs):
        transport_called["n"] += 1
        return TransportResponse(200, headers or {}, json.dumps(payload).encode())

    CachedHttp(cache, transport).get_json(url)
    assert transport_called["n"] == 1


def test_fetch_offline_replay_from_warm_cache(tmp_path):
    start, end = dt.date(2018, 1, 1), dt.date(2018, 1, 5)
    payload = {"downloads": [
        {"day": (start + dt.timedelta(days=i)).isoformat(), "downloads": 10 + i}
        for i in range(5)
    ]}
    cache_dir = tmp_path / "cache"
    warm_cache(cache_dir,
               f"https://api.npmjs.org/downloads/range/{start}:{end}/demo",
               payload)
    out = tmp_path / "out"
    assert run(["fetch", "--packages", "demo", "--start", start.isoformat(),
                "--end", end.isoformat(), "--cache-dir", cache_dir,
                "--out", out]) == EXIT_OK
    rows = (out / "downloads_demo.csv").read_text().strip().splitlines()
    assert rows[0] == "date,downloads" and len(rows) == 6
    assert (out / "gaps.csv").exists()

    # replay again: byte-identical output without any live transport
    out2 = tmp_path / "out2"
    assert run(["fetch", "--packages", "demo", "--start", start.isoformat(),
                "--end", end.isoformat(), "--cache-dir", cache_dir,
                "--out", out2]) == EXIT_OK
    assert (out / "downloads_demo.csv").read_bytes() == \
        (out2 / "downloads_demo.csv").read_bytes()


def test_fetch_cold_cache_without_live_fails_with_instruction(tmp_path, capsys):
    code = run(["fetch", "--packages", "ghost", "--start", "2018-01-01",
                "--end", "2018-01-02", "--cache-dir", tmp_path / "cache",
                "--out", tmp_path / "out"])
    assert code == EXIT_FAILURE
    errors = json.loads((tmp_path / "out" / "errors.json").read_text())
    assert "live" in errors["ghost"]


def test_fetch_partial_failure_exit_code(tmp_path):
    start, end = dt.date(2018, 1, 1), dt.date(2018, 1, 2)
    payload = {"downloads": [
        {"day": start.isoformat(), "downloads": 3},
        {"day": end.isoformat(), "downloads": 4},
    ]}
    cache_dir = tmp_path / "cache"
    warm_cache(cache_dir,
               f"https://api.npmjs.org/downloads/range/{start}:{end}/good",
               payload)
    code = run(["fetch", "--packages", "good,ghost", "--start", start.isoformat(),
                "--end", end.isoformat(), "--cache-dir", cache_dir,
                "--out", tmp_path / "out"])
    assert code == EXIT_PARTIAL
    assert (tmp_path / "out" / "downloads_good.csv").exists()
    errors = json.loads((tmp_path / "out" / "errors.json").read_text())
    assert set(errors) == {"ghost"}


def downloads_payload(start, days, skip=()):
    return {"downloads": [{"day": (start + dt.timedelta(days=i)).isoformat(),
                           "downloads": 5 + i} for i in range(days) if i not in skip]}


def test_fetch_pair_without_a_series_is_reported_not_fatal(tmp_path):
    start, end = dt.date(2018, 1, 1), dt.date(2018, 1, 6)
    cache_dir = tmp_path / "cache"
    downloads = f"https://api.npmjs.org/downloads/range/{start}:{end}/"
    warm_cache(cache_dir, downloads + "ok", downloads_payload(start, 6))
    warm_cache(cache_dir, downloads + "gap", downloads_payload(start, 6, skip={2}))
    for repo in ("o/ok", "o/gap"):
        CachedHttp(HttpCache(cache_dir), lambda u, params, h: TransportResponse(
            200, {}, json.dumps([{"created_at": "2018-01-03T00:00:00Z"}]).encode())
        ).get_json(f"https://api.github.com/repos/{repo}/issues",
                   params={"state": "all", "per_page": 100, "page": 1})
    out = tmp_path / "out"
    code = run(["fetch", "--packages", "gap,ok", "--repos", "o/gap,o/ok",
                "--pairs", "gap=o/gap,ok=o/ok,typo=o/ok,ok=o/typo",
                "--start", start.isoformat(), "--end", end.isoformat(),
                "--cache-dir", cache_dir, "--out", out])
    assert code == EXIT_PARTIAL
    errors = json.loads((out / "errors.json").read_text())
    assert errors == {
        "gap=o/gap": "gap: downloads missing for 1 days (first: 2018-01-03)",
        "typo=o/ok": "no downloads fetched for 'typo'",
        "ok=o/typo": "no issues fetched for 'o/typo'",
    }
    rows = (out / "series_ok.csv").read_text().splitlines()
    assert rows[0] == "date,downloads,cumulative_issues" and len(rows) == 7
    assert not (out / "series_gap.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert str(out / "series_ok.csv") in manifest["outputs"]


def test_fetch_refuses_a_pair_without_equals_before_fetching(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["fetch", "--packages", "ok", "--pairs", "ok=o/ok,okonly",
                "--start", "2018-01-01", "--end", "2018-01-02",
                "--cache-dir", tmp_path / "cache", "--out", out])
    assert code == EXIT_FAILURE
    assert "'okonly'" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("politeness", [0, -2])
@pytest.mark.parametrize("names", [["--packages", "ok"], ["--repos", "o/ok"]])
def test_fetch_refuses_non_positive_politeness(tmp_path, capsys, politeness, names):
    out = tmp_path / "out"
    code = run(["fetch", *names, "--politeness", politeness,
                "--start", "2018-01-01", "--end", "2018-01-02",
                "--cache-dir", tmp_path / "cache", "--out", out])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == \
        f"error: politeness must be >= 1, got {politeness}\n"
    assert not (out / "run_manifest.json").exists()

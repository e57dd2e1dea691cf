"""Self-test of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that perturbed outputs are rejected, that the hostile ingest batch
is counted, that self time excludes child spans, that a vanished wrap
target is reported absent, and that the benchmark refuses to run without
the library sources.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library(ROOT)

import fixtures as fx  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from probe import REFERENCE_S, Interval, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_interval_is_net_of_the_probe_and_scaled_to_the_reference():
    probe = SpeedProbe()
    probe.start()
    try:
        with Interval(probe, time.process_time) as timed:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
    finally:
        probe.stop()
    assert probe.count > 0 and timed.sample is not None
    assert 0 < timed.probe_s < timed.raw_wall
    timed.raw_wall, timed.probe_s, timed.sample = 1.0, 0.1, 2 * REFERENCE_S
    assert timed.wall() == pytest.approx(0.45)


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("search.bootstrap_average")
    clock.now = 1.0
    inner = tracer.open("gaussian.family_score")
    clock.now = 4.0
    tracer.close(inner)
    clock.now = 5.0
    tracer.close(outer)
    assert tracer.total["search.bootstrap_average"] == 5.0
    assert tracer.self_time["search.bootstrap_average"] == 2.0
    assert tracer.self_time["gaussian.family_score"] == 3.0
    assert tracer.spans == [("gaussian.family_score", 1.0, 4.0,
                             "search.bootstrap_average"),
                            ("search.bootstrap_average", 0.0, 5.0, None)]
    assert tracer.self_by_layer(layers.layer_of) == {"search": 2.0,
                                                     "gaussian": 3.0}


def test_leaf_bookkeeping_is_charged_to_the_leaf_not_its_caller():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.leaf_residual = 0.5

    def body():
        clock.now += 1.0

    def hook(args, kwargs):
        clock.now += 2.0

    leaf = tracer._leaf_wrapper(body, "gaussian.family_score", hook)
    tracer.active = True
    outer = tracer.open("search.hill_climb")
    leaf()
    clock.now += 4.0
    tracer.close(outer)
    assert tracer.total["gaussian.family_score"] == 3.5
    assert tracer.total["search.hill_climb"] == 7.0
    assert tracer.self_time["search.hill_climb"] == 3.5


def test_worker_thread_span_is_a_child_of_the_waiting_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("ingest.fetch_downloads")

    def worker():
        frame = tracer.open("ingest.cache_put")
        clock.now = 3.0
        tracer.close(frame)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now = 4.0
    tracer.close(outer)
    assert tracer.self_time["ingest.fetch_downloads"] == 1.0
    assert ("ingest.cache_put", 0.0, 3.0, "ingest.fetch_downloads") in tracer.spans


def test_missing_wrap_target_is_absent_and_reads_zero():
    tracer = Tracer()
    assert not tracer.wrap("relqual.gaussian", "NoSuchTable.family_score",
                           "gaussian.family_score")
    assert not tracer.wrap("relqual.no_such_module", "f", "x.f")
    assert tracer.absent == ["relqual.gaussian:NoSuchTable.family_score",
                             "relqual.no_such_module:f"]
    values = layers.per_layer_metrics(tracer, [1.0], 1.0, [1.0], [1.0], {})
    assert values["gaussian.family_score.calls"] == 0
    assert set(values) == {name for name, _ in layers.PER_LAYER}


def test_install_and_restore_leave_the_library_as_found():
    import relqual.gaussian
    import relqual.simstudy
    before = (relqual.gaussian.GaussianScoreCache.__dict__["family_score"],
              relqual.simstudy.bootstrap_average)
    tracer = Tracer()
    layers.install(tracer, layers.Probes(tracer))
    assert tracer.absent == []
    assert relqual.simstudy.bootstrap_average is not before[1]
    tracer.restore()
    after = (relqual.gaussian.GaussianScoreCache.__dict__["family_score"],
             relqual.simstudy.bootstrap_average)
    assert after == before


def test_traced_family_scores_count_first_sight_only():
    from relqual.dag import VariableSet
    from relqual.data import Dataset
    from relqual.gaussian import GaussianScoreCache
    tracer = Tracer()
    layers.install(tracer, layers.Probes(tracer))
    try:
        tracer.active = True
        rows = np.random.default_rng(0).standard_normal((50, 3))
        cache = GaussianScoreCache(Dataset(VariableSet(["a", "b", "c"]), rows))
        for mask in (0, 2, 2, 6, 0):
            cache.family_score(0, mask)
    finally:
        tracer.active = False
        tracer.restore()
    assert tracer.spans == []   # leaf spans are aggregated, not stored
    values = layers.per_layer_metrics(tracer, [1.0], 1.0, [1.0], [1.0], {})
    assert values["gaussian.family_score.calls"] == 5
    assert values["gaussian.family_score.computed"] == 3
    assert values["gaussian.family_score.hit_ratio"] == pytest.approx(0.4)


def test_wrapped_calls_nest_and_self_time_excludes_children():
    import relqual.search as search
    import relqual.simstudy as simstudy
    from relqual.dag import VariableSet
    from relqual.data import Dataset
    tracer = Tracer()
    layers.install(tracer, layers.Probes(tracer))
    try:
        tracer.active = True
        rows = np.random.default_rng(0).standard_normal((60, 4))
        data = Dataset(VariableSet(list("abcd")), rows)
        simstudy.bootstrap_average(
            data, simstudy.hc_learner(search.HcConfig(restarts=2)), 3, seed=0)
    finally:
        tracer.active = False
        tracer.restore()
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert parents["search.hill_climb"] == "search.bootstrap_average"
    outer = "search.bootstrap_average"
    assert tracer.self_time[outer] == pytest.approx(
        tracer.total[outer] - tracer.total["search.hill_climb"])
    assert tracer.self_time["search.hill_climb"] == pytest.approx(
        tracer.total["search.hill_climb"] - tracer.total["gaussian.family_score"])
    assert tracer.counters["search.bootstrap_average.resamples"] == 3


def test_perturbed_simstudy_table_is_rejected():
    ref = wl.load_reference("simstudy")["0"]
    assert wl.simstudy_table_errors(ref["csv"], ref) == set()
    lines = ref["csv"].splitlines()
    # move a whole cell's mass to another outcome: off by 1 > the tolerance
    row = next(i for i, line in enumerate(lines[1:], start=1)
               if "1.000000" in line.split(",")[3:])
    method, disc, thr, *cells = lines[row].split(",")
    full = cells.index("1.000000")
    moved = ["0.000000"] * 3
    moved[(full + 1) % 3] = "1.000000"
    perturbed = lines.copy()
    perturbed[row] = ",".join([method, disc, thr, *moved])
    assert wl.simstudy_table_errors("\n".join(perturbed) + "\n", ref) == {method}
    # a fraction that is not a multiple of 1/R
    perturbed[row] = ",".join([method, disc, thr, "0.250000", "0.250000",
                               "0.500000"])
    assert method in wl.simstudy_table_errors("\n".join(perturbed) + "\n", ref)


def _move_one_replicate(line: str) -> str:
    """Move one replicate's outcome in a table row to the next class."""
    method, disc, thr, *cells = line.split(",")
    values = [round(float(c) * fx.SIM_REPLICATES) for c in cells]
    src = next(i for i, v in enumerate(values) if v > 0)
    values[src] -= 1
    values[(src + 1) % 3] += 1
    return ",".join([method, disc, thr] + [f"{v / fx.SIM_REPLICATES:.6f}"
                                          for v in values])


def test_simstudy_drift_is_limited_per_table():
    ref = wl.load_reference("simstudy")["0"]
    lines = ref["csv"].splitlines()
    # up to SIM_MAX_MOVED single-replicate moves pass
    few = lines.copy()
    for row in range(1, wl.SIM_MAX_MOVED + 1):
        few[row] = _move_one_replicate(few[row])
    assert wl.simstudy_table_errors("\n".join(few) + "\n", ref) == set()
    # one replicate moved in every row is rejected in every arm
    every = [lines[0]] + [_move_one_replicate(line) for line in lines[1:]]
    assert wl.simstudy_table_errors("\n".join(every) + "\n", ref) == \
        set(ref["arms"])
    # so is one replicate of a single arm moved at every threshold
    arm = lines[1].split(",")[0]
    one_arm = [_move_one_replicate(line) if line.startswith(arm + ",")
               else line for line in lines]
    assert wl.simstudy_table_errors("\n".join(one_arm) + "\n", ref) == {arm}


def _write_forest_outputs(out: Path, ref: dict) -> None:
    out.mkdir()
    (out / "tune.csv").write_text(ref["tune_csv"])
    rows = ["predictor,permutation_importance,impurity_importance,rank"]
    rows += [f"{r['predictor']},{r['permutation_importance']:.10g},"
             f"{r['impurity_importance']:.10g},{r['rank']}"
             for r in ref["importance"]]
    (out / "importance.csv").write_text("\n".join(rows) + "\n")


def test_perturbed_forest_outputs_are_rejected(tmp_path):
    ref = wl.load_reference("forest_tune")["0"]
    _write_forest_outputs(tmp_path / "same", ref)
    assert wl.forest_errors(tmp_path / "same", ref) == []

    tweaked = dict(ref, tune_csv=ref["tune_csv"].replace("0.", "0.9", 1))
    _write_forest_outputs(tmp_path / "tune", tweaked)
    assert wl.forest_errors(tmp_path / "tune", ref) == [
        "tune.csv differs from the recorded bytes"]

    importance = [dict(r) for r in ref["importance"]]
    importance[0]["permutation_importance"] += 1e-6
    _write_forest_outputs(tmp_path / "imp", dict(ref, importance=importance))
    assert len(wl.forest_errors(tmp_path / "imp", ref)) == 1


def test_perturbed_edge_probabilities_are_rejected(tmp_path):
    from relqual.search import ArcConfidence, map_dag
    workload = wl.ExactPosterior(0, tmp_path)
    workload.setup()
    entry = 0
    output = {}
    for p in fx.EXACT_SIZES:
        data = workload.data[entry, p]
        want = workload.ref[str(entry)][str(p)]
        conf = ArcConfidence(data.variables, np.array(want["strength"]),
                             np.array(want["direction"]))
        output[p] = (conf, map_dag(data, max_parents=fx.EXACT_MAX_PARENTS))
    assert workload.check((0, entry), output).failed == 0
    conf, best = output[fx.EXACT_SIZES[0]]
    direction = conf.direction.copy()
    direction[0, 1] += 1e-7
    output[fx.EXACT_SIZES[0]] = (ArcConfidence(conf.variables, conf.strength,
                                               direction), best)
    verdict = workload.check((0, entry), output)
    assert (verdict.attempted, verdict.failed) == (len(fx.EXACT_SIZES), 1)


def test_hostile_batch_is_counted(tmp_path, monkeypatch):
    workload = wl.IngestTimelines(0, tmp_path)
    workload.setup()
    counts = workload.hostile_probe()
    items = sum(len(call) for call in fx.HOSTILE_CALLS)
    assert counts["items"] == items
    assert counts["wrong"] == 0
    assert counts["ok"] + counts["reported"] + counts["sunk"] == items

    import relqual.ingest

    def crash(*args, **kwargs):
        raise ValueError("could not parse")

    monkeypatch.setattr(relqual.ingest, "fetch_downloads", crash)
    assert workload.hostile_probe()["sunk"] == items


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in layers.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_refuses_to_run_without_library_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "simstudy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

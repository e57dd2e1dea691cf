#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the root of a relqual checkout whose outputs are the contract
(the recorded files came from the commit that added the benchmark):

    python3 perfbench/record_reference.py [simstudy exact_posterior forest_tune]

It runs every pool entry once and writes perfbench/reference/<name>.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import run

run.import_library(Path.cwd())
import fixtures as fx  # noqa: E402
from workloads import REFERENCE_DIR, ExactPosterior, ForestTune, Simstudy  # noqa: E402


def simstudy(workload) -> dict:
    code, out, failures = workload.run((0, workload.entry))
    if code != 0 or failures:
        raise SystemExit(f"simstudy entry {workload.entry} failed")
    text = (out / "simstudy.csv").read_text()
    arms = sorted({row["method"] for row in csv.DictReader(io.StringIO(text))})
    return {"csv": text, "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "arms": arms}


def exact_posterior(workload) -> dict:
    out = workload.run((0, workload.entry))
    return {str(p): {"strength": conf.strength.tolist(),
                     "direction": conf.direction.tolist()}
            for p, (conf, _) in out.items()}


def forest_tune(workload) -> dict:
    code, out = workload.run((0, workload.entry))
    if code != 0:
        raise SystemExit(f"forest entry {workload.entry} failed")
    with (out / "importance.csv").open(newline="") as handle:
        rows = [{"predictor": r["predictor"], "rank": int(r["rank"]),
                 "permutation_importance": float(r["permutation_importance"]),
                 "impurity_importance": float(r["impurity_importance"])}
                for r in csv.DictReader(handle)]
    return {"tune_csv": (out / "tune.csv").read_text(), "importance": rows}


RECORDERS = {"simstudy": (Simstudy, simstudy),
             "exact_posterior": (ExactPosterior, exact_posterior),
             "forest_tune": (ForestTune, forest_tune)}


def main(names) -> None:
    work_dir = Path.cwd() / ".perfbench_work" / "record"
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        cls, record = RECORDERS[name]
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        workload = cls(0, work_dir)
        workload.prepare()
        reference = {}
        for entry in range(fx.POOL_SIZE):
            workload.entry = entry
            reference[str(entry)] = record(workload)
            print(f"{name} entry {entry} recorded", flush=True)
        workload.close()
        (REFERENCE_DIR / f"{name}.json").write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work_dir.parent, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:] or list(RECORDERS))

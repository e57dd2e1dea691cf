#!/usr/bin/env python3
"""relqual benchmark: one workload per process, driven from outside.

Usage, from the root of a relqual checkout:

    python3 perfbench/run.py --workload simstudy --seed 1 --seconds 22 --trace 0

The workload runs operations back to back (a closed loop with one caller)
until ``--seconds`` have passed, checks every output, prints a readable
report and, as the last line, one JSON object.  With ``--trace 0`` it
carries the end-to-end metrics; with ``--trace 1`` each input runs once
untraced and once traced, and it carries the per-layer metrics.  The
library is imported from ``src/`` of the current directory and nothing
else; without it the benchmark exits non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

SETUP_REPEATS = 3

from probe import REFERENCE_S, Interval, SpeedProbe
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "work_per_min": "1/min"}
# the workload-specific name a report line gives work_per_min
RATE_NAMES = {"simstudy": "replicates_per_min",
              "exact-posterior": "posteriors_per_min",
              "forest-tune": "grid_cells_per_min",
              "ingest-timelines": "package_days_per_min"}


def import_library(root: Path):
    """Import relqual from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "relqual" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no relqual sources under {src}")
    sys.path.insert(0, str(src))
    import relqual
    import relqual.cli  # noqa: F401 - pulls in every module the CLI uses
    if Path(relqual.__file__).resolve().parent != (src / "relqual").resolve():
        raise SystemExit(f"perfbench: relqual resolved to {relqual.__file__}, "
                         f"not {src}")
    return relqual


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tally:
    """Operation outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0.0
        self.notes: list[str] = []

    def add(self, verdict) -> None:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.work += verdict.work
        self.notes.extend(verdict.notes)


def run_op(workload, item, tally: Tally, probe, tracer=None) -> Interval:
    """Run one operation, traced when a tracer is given, then check its
    output untimed and untraced."""
    gc.collect()
    if tracer is not None:
        tracer.active = True
    with Interval(probe, cpu_seconds) as timed:
        try:
            output = workload.run(item)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            output = None
            tally.notes.append(f"operation raised {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.active = False
    tally.add(workload.check(item, output))
    return timed


def warm_up(workload, tally: Tally, probe) -> int:
    """Run the workload's untimed warm-up operations, checked like the
    others; return how many inputs they used."""
    for k in range(workload.warmup_ops):
        run_op(workload, workload.item(k), tally, probe)
    return workload.warmup_ops


def measure(workload, seconds: float, tally: Tally,
            probe) -> tuple[list[Interval], list[float]]:
    """The timed operations and the work each completed."""
    first = warm_up(workload, tally, probe)
    ops, works = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        done = tally.work
        ops.append(run_op(workload, workload.item(first + len(ops)), tally, probe))
        works.append(tally.work - done)
    return ops, works


def measure_traced(workload, seconds: float, tally: Tally, probe, tracer,
                   probes, install) -> tuple[list[Interval], list[Interval]]:
    """Each input runs untraced and traced, alternating which goes first;
    the wrappers are in place only for the traced run."""
    untraced, traced = [], []
    k = warm_up(workload, tally, probe)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        item = workload.item(k)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(run_op(workload, item, tally, probe))
                continue
            install(tracer, probes)
            workload.tracer = tracer
            try:
                traced.append(run_op(workload, item, tally, probe, tracer))
            finally:
                workload.tracer = None
                tracer.restore()
        k += 1
    return untraced, traced


def pooled_scale(intervals: list[Interval]) -> float:
    """Reference-speed factor over several intervals taken together."""
    probe_s = sum(i.probe_s for i in intervals)
    samples = sum(i.probe_s / i.sample for i in intervals if i.sample)
    return REFERENCE_S * samples / probe_s if probe_s else 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        return bench(args, parser, probe)
    finally:
        probe.stop()


def bench(args, parser, probe) -> int:
    root = Path.cwd()
    with Interval(probe, cpu_seconds) as imports:
        import_library(root)
        import layers
        from tracer import Tracer
        from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    work_dir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        setups = []
        workload = None
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            with Interval(probe, cpu_seconds) as setup:
                workload = WORKLOADS[args.workload](args.seed, work_dir)
                workload.setup()
            setups.append(setup)
        try:
            if args.trace:
                tracer = Tracer()
                tracer.calibrate_leaf()
                untraced, traced = measure_traced(
                    workload, args.seconds, tally, probe, tracer,
                    layers.Probes(tracer), layers.install)
                ops = untraced + traced
            else:
                ops, works = measure(workload, args.seconds, tally, probe)
            hostile = (workload.hostile_probe()
                       if hasattr(workload, "hostile_probe") else None)
            arm_failures = getattr(getattr(workload, "failures", None),
                                   "failures", 0)
        finally:
            workload.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        parent = work_dir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    run_sample = probe.mean()
    setup_s = imports.wall(run_sample) + median(s.wall(run_sample) for s in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = tally.failed == 0 and (hostile is None or hostile["wrong"] == 0)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} warm-up={workload.warmup_ops} "
          f"{workload.work_unit}={tally.work:g}")
    print(f"  speed probe: mean {1e6 * run_sample:.1f} us per sample, "
          f"times scaled by {REFERENCE_S / run_sample:.4f} to the "
          f"{1e6 * REFERENCE_S:.0f} us reference")
    print("  raw wall per operation: "
          + " ".join(f"{op.raw_wall:.3f}" for op in ops))
    if args.trace:
        extra = {"arm_failures_per_op": arm_failures / len(ops)}
        if hostile:
            extra.update(hostile_items=hostile["items"],
                         hostile_sunk=hostile["sunk"])
        values = layers.per_layer_metrics(
            tracer, [op.raw_wall for op in traced], pooled_scale(traced),
            [op.wall() for op in traced], [op.wall() for op in untraced],
            extra)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
        print(f"  leaf wrapper residual {1e9 * tracer.leaf_residual:.0f} ns "
              f"per call, charged to the leaf spans")
        absent = sorted(set(tracer.absent))
        if absent:
            print("  absent (reported as 0): " + ", ".join(absent))
    else:
        walls = [op.wall() for op in ops]
        values = {
            "wall_s": median(walls),
            "cpu_s": median(op.cpu() for op in ops),
            "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
            "work_per_min": 60.0 * median(w / t for w, t in zip(works, walls)),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"  {RATE_NAMES[args.workload]} {values['work_per_min']:.6g} 1/min")
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  failed_share {share:.6g} ({tally.failed} of {tally.attempted} "
          f"operations failed)")
    if hostile:
        print(f"  hostile batch: {hostile['sunk']} of {hostile['items']} items "
              f"sunk by a crashing call, {hostile['reported']} reported as "
              f"errors, {hostile['ok']} fetched, {hostile['wrong']} wrong")
    for line in workload.info():
        print(f"  {line}")
    for note in tally.notes[:20]:
        print(f"  check: {note}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

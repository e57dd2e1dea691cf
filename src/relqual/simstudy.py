"""Structure-recovery simulation harness.

Given a ground-truth network, repeatedly simulate data, learn averaged
structures with each configured method, and tabulate how often each
threshold setting recovers the truth exactly, misses by one edge, or does
worse.  Replicates are seeded independently by counter, so reports are
reproducible byte for byte and indifferent to worker scheduling.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from .dag import Dag, VariableSet
from .discretize import DegenerateColumnError, DiscretizationSpec, discretize
from .gaussian import DegenerateVarianceError, GaussianBn, simulate
from .metrics import EXACT, OFF_BY_ONE, WORSE, classify
from .ols import InsufficientRowsError, RankDeficientError
from .quality import RELEASE_VARIABLES
from .rng import split_seed
from .search import (
    HcConfig,
    ScoreLearner,
    SingularCorrelationError,
    averaged_network,
    bootstrap_average,
    hc_learner,
    hybrid_learner,
    map_learner,
)

log = logging.getLogger(__name__)

OUTCOMES = (EXACT, OFF_BY_ONE, WORSE)

SEARCH_KINDS = ("hc", "map", "hybrid-gs", "hybrid-mmpc")

# What learning can raise on data it cannot fit; an arm that raises one of
# these counts as "worse" for the replicate.  Anything else is a defect and
# propagates.
ARM_FAILURES = (RankDeficientError, DegenerateVarianceError, InsufficientRowsError,
                DegenerateColumnError, SingularCorrelationError)


@dataclass(frozen=True)
class MethodSpec:
    """One study arm: a search strategy, optionally run on binned data."""

    name: str
    search: str = "hc"
    discretization: DiscretizationSpec | None = None
    alpha: float = 0.05

    def __post_init__(self):
        if self.search not in SEARCH_KINDS:
            raise ValueError(f"search must be one of {SEARCH_KINDS}")
        if self.search.startswith("hybrid") and self.discretization is not None:
            raise ValueError("hybrid arms run on continuous data only")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")

    def discretization_label(self) -> str:
        return self.discretization.label() if self.discretization else "none"


def default_methods() -> tuple[MethodSpec, ...]:
    return (
        MethodSpec("HC", "hc"),
        MethodSpec("MAP", "map"),
        MethodSpec("HC-D-F", "hc", DiscretizationSpec("equal-frequency", 3)),
        MethodSpec("HC-D-H", "hc", DiscretizationSpec("hartemink", 3, 20)),
    )


@dataclass(frozen=True)
class SimStudyConfig:
    truth: GaussianBn
    replicates: int = 100
    sample_size: int = 200
    methods: tuple[MethodSpec, ...] = field(default_factory=default_methods)
    thresholds: tuple[float, ...] = (0.55, 0.60, 0.65, 0.70, 0.75,
                                     0.80, 0.85, 0.90, 0.95, 1.00)
    boot_samples: int = 100
    hc: HcConfig = field(default_factory=lambda: HcConfig(restarts=10))
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.boot_samples < 1:
            raise ValueError("boot_samples must be >= 1")
        if not self.methods:
            raise ValueError("need at least one method")
        for t in self.thresholds:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"threshold {t} outside [0,1]")
        for method in self.methods:
            spec = method.discretization
            if spec is not None and self.sample_size < spec.bins:
                raise ValueError(
                    f"sample_size {self.sample_size} is below the {spec.bins} "
                    f"bins of arm {method.name}")


@dataclass(frozen=True)
class ReportRow:
    method: str
    discretization: str
    threshold: float
    exact: float
    off_by_one: float
    worse: float


@dataclass(frozen=True)
class SimStudyReport:
    rows: tuple[ReportRow, ...]
    metadata: dict

    def to_csv(self) -> str:
        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "discretization", "threshold",
                         "exact", "off_by_one", "worse"])
        for row in self.rows:
            writer.writerow([row.method, row.discretization,
                             f"{row.threshold:.2f}", f"{row.exact:.6f}",
                             f"{row.off_by_one:.6f}", f"{row.worse:.6f}"])
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())

    def format_table(self) -> str:
        header = f"{'Method':<12} {'Discretized':<18} {'Thresh':>6} " \
                 f"{'Exact':>7} {'Off-by-one':>11} {'Worse':>7}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.method:<12} {row.discretization:<18} {row.threshold:>6.2f} "
                f"{row.exact:>7.3f} {row.off_by_one:>11.3f} {row.worse:>7.3f}")
        meta = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        return "\n".join(lines) + f"\n({meta})\n"

    def fraction(self, method: str, threshold: float, outcome: str = EXACT) -> float:
        for row in self.rows:
            if row.method == method and abs(row.threshold - threshold) < 1e-9:
                return getattr(row, outcome)
        raise KeyError(f"no row for {method} at {threshold}")


def default_truth() -> GaussianBn:
    """Fixed six-node ground truth over the per-release variables.

    Every edge is compelled (the graph is alone in its equivalence class),
    so exact labeled recovery is attainable.  Coefficient magnitudes sit in
    [0.5, 1.5] with unit residual noise: strong enough to find at moderate
    sample sizes, weak enough that bootstrap support stays below 100% often
    enough to separate the top thresholds.
    """
    variables = VariableSet(RELEASE_VARIABLES)
    edges = [
        ("Release.Date", "Release.Duration"),
        ("Release.Date", "Exceptions"),
        ("New.Users", "Exceptions"),
        ("New.Users", "Release.Duration"),
        ("Release.Duration", "Usage.Intensity"),
        ("Usage.Intensity", "Usage.Frequency"),
    ]
    dag = Dag.from_names(variables, edges)
    coef_map = {
        ("Release.Date", "Release.Duration"): 0.5,
        ("New.Users", "Release.Duration"): -0.6,
        ("Release.Date", "Exceptions"): 0.6,
        ("New.Users", "Exceptions"): 1.2,
        ("Release.Duration", "Usage.Intensity"): 0.5,
        ("Usage.Intensity", "Usage.Frequency"): 0.5,
    }
    names = variables.names
    coefs = []
    for i in range(len(names)):
        coefs.append(np.array([coef_map[(names[p], names[i])]
                               for p in dag.parents(i)]))
    return GaussianBn(dag, np.zeros(6), tuple(coefs), np.ones(6))


def build_learner(search: str, hc: HcConfig, alpha: float = 0.05) -> ScoreLearner:
    """The bootstrap learner for a search kind of ``SEARCH_KINDS``; the
    hybrid kinds test their restricts at level ``alpha``."""
    if search == "hc":
        return hc_learner(hc)
    if search == "map":
        return map_learner(hc.max_parents)
    if search in ("hybrid-gs", "hybrid-mmpc"):
        return hybrid_learner(hc, restrict=search.split("-", 1)[1], alpha=alpha)
    raise ValueError(f"search must be one of {SEARCH_KINDS}")


def _replicate_outcomes(cfg: SimStudyConfig,
                        replicate: int) -> tuple[list[tuple[int, int, str]], list[int]]:
    """Outcome per (method index, threshold index) for one replicate, and
    the indices of the methods that failed."""
    data = simulate(cfg.truth, cfg.sample_size,
                    seed=split_seed(cfg.seed, 0, replicate))
    results, failed = [], []
    for mi, method in enumerate(cfg.methods):
        boot_seed = int(split_seed(cfg.seed, 1, replicate, mi).generate_state(1)[0])
        try:
            working = data
            if method.discretization is not None:
                working = discretize(data, method.discretization).dataset
            learner = build_learner(method.search, cfg.hc, method.alpha)
            conf = bootstrap_average(working, learner, cfg.boot_samples,
                                     seed=boot_seed)
            for ti, threshold in enumerate(cfg.thresholds):
                learned = averaged_network(conf, threshold).dag
                results.append((mi, ti, classify(cfg.truth.dag, learned)))
        except ARM_FAILURES as exc:  # count as failure, keep the study going
            log.warning("replicate %d method %s failed: %s",
                        replicate, method.name, exc)
            failed.append(mi)
            for ti in range(len(cfg.thresholds)):
                results.append((mi, ti, WORSE))
    return results, failed


def run_simstudy(cfg: SimStudyConfig, jobs: int = 1) -> SimStudyReport:
    """Run the full study and aggregate outcome fractions per arm."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    counts = np.zeros((len(cfg.methods), len(cfg.thresholds), len(OUTCOMES)),
                      dtype=np.int64)
    failures = np.zeros(len(cfg.methods), dtype=np.int64)
    outcome_index = {name: k for k, name in enumerate(OUTCOMES)}

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            replicates = list(pool.map(
                _replicate_outcomes, [cfg] * cfg.replicates, range(cfg.replicates),
                chunksize=max(1, cfg.replicates // (4 * jobs))))
    else:
        replicates = (_replicate_outcomes(cfg, r) for r in range(cfg.replicates))
    for outcomes, failed in replicates:
        for mi, ti, outcome in outcomes:
            counts[mi, ti, outcome_index[outcome]] += 1
        failures[failed] += 1

    rows = []
    for mi, method in enumerate(cfg.methods):
        for ti, threshold in enumerate(cfg.thresholds):
            exact, off_by_one, worse = counts[mi, ti] / cfg.replicates
            rows.append(ReportRow(method.name, method.discretization_label(),
                                  float(threshold), float(exact),
                                  float(off_by_one), float(worse)))
    metadata = {
        "replicates": cfg.replicates,
        "sample_size": cfg.sample_size,
        "boot_samples": cfg.boot_samples,
        "restarts": cfg.hc.restarts,
        "max_parents": cfg.hc.max_parents,
        "seed": cfg.seed,
        # replicates in which an arm raised one of ARM_FAILURES
        "arm_failures": {m.name: int(n) for m, n in zip(cfg.methods, failures)},
    }
    return SimStudyReport(tuple(rows), metadata)

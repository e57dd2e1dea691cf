"""Tabular datasets: continuous matrices and discretized level matrices."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dag import Dag, VariableSet


class FamilyScorer:
    """BIC family scores of one dataset, or of bootstrap resamples of it.

    Subclasses provide ``family_scores(child, parent_sets, resamples)``: a
    (sample, parent set) array of scores and the error per failed entry.
    """

    def __init__(self, data: "Dataset | DiscreteDataset", max_parents: int | None,
                 resamples: np.ndarray | None):
        self.n = data.n
        self.p = len(data.variables)
        self.max_parents = self.p - 1 if max_parents is None else min(max_parents, self.p - 1)
        self.samples = 1 if resamples is None else len(resamples)
        self._log_n = float(np.log(self.n))

    def family_score(self, child: int, parent_mask: int) -> float:
        """One family's score in the first (or only) sample."""
        parents = np.array([[i for i in range(self.p) if parent_mask >> i & 1]],
                           dtype=np.intp)
        scores, failures = self.family_scores(child, parents, slice(0, 1))
        if failures:
            raise failures[0, 0]
        return float(scores[0, 0])

    def score_dag(self, dag: Dag) -> float:
        total = 0.0
        for node in range(self.p):
            mask = 0
            for parent in dag.parents(node):
                mask |= 1 << parent
            total += self.family_score(node, mask)
        return total


@dataclass(frozen=True)
class Dataset:
    """Continuous data: one column per variable, one row per observation."""

    variables: VariableSet
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D matrix")
        if rows.shape[1] != len(self.variables):
            raise ValueError("column count does not match variable count")
        if rows.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if not np.all(np.isfinite(rows)):
            raise ValueError("dataset contains missing or non-finite values")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.variables.index(name)]

    def take_rows(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.variables, self.rows[indices])

    def drop(self, name: str) -> "Dataset":
        keep = [i for i, v in enumerate(self.variables.names) if v != name]
        return Dataset(VariableSet(self.variables.names[i] for i in keep),
                       self.rows[:, keep])


@dataclass(frozen=True)
class DiscreteDataset:
    """Level-coded data; ``levels[j]`` is the number of levels of column j."""

    variables: VariableSet
    rows: np.ndarray
    levels: tuple[int, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.variables):
            raise ValueError("rows must be n x p with p matching variables")
        if len(self.levels) != len(self.variables):
            raise ValueError("levels must give one count per variable")
        if rows.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        for j, k in enumerate(self.levels):
            if k < 1:
                raise ValueError("every variable needs at least one level")
            col = rows[:, j]
            if col.min() < 0 or col.max() >= k:
                raise ValueError(f"column {j} has levels outside [0, {k})")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "levels", tuple(int(k) for k in self.levels))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def take_rows(self, indices: np.ndarray) -> "DiscreteDataset":
        return DiscreteDataset(self.variables, self.rows[indices], self.levels)


def load_numeric_csv(path: str | Path) -> Dataset:
    """Load a headered all-numeric CSV into a Dataset."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: empty file")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(VariableSet(header), np.array(rows, dtype=float))


def write_numeric_csv(path: str | Path, data: Dataset, fmt: str = "%.10g") -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(data.variables.names)
        for row in data.rows:
            writer.writerow([fmt % x for x in row])

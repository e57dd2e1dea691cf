"""Tabular datasets: continuous matrices and discretized level matrices."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dag import Dag, VariableSet


# A table over bootstrap resamples is dense while it holds at most this
# many float64 entries, samples * p * 2^p (8 MiB; p <= 10 at 100
# resamples).  A larger table, or one of a single dataset, scores each
# family on its first read, with the same arithmetic: greedy search reads
# far fewer families than the cap allows, one step of all its lanes at a
# time, and the exact searches read whole rows (``read_rows``), at most
# this many scores at once.  No batch of a fill holds more than this many
# entries of parent covariances (samples * families * k^2).
DENSE_TABLE_ENTRIES = 1 << 20


def mask_members(masks: np.ndarray, p: int) -> np.ndarray:
    """The members of each of the nonempty ``masks``, bitmasks of one size
    k over p nodes, in increasing order: an (len(masks), k) array."""
    member = np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(p) & 1
    return np.nonzero(member)[1].reshape(len(member), -1)


@lru_cache
def _layers(p: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every node set, one layer per size k, smallest first: the sets in
    increasing mask order and their members in increasing order, as
    read-only arrays (n,) and (n, k)."""
    masks = np.arange(1 << p)
    layers = tuple((sets, mask_members(sets, p))
                   for sets in (masks[np.bitwise_count(masks) == k] for k in range(p + 1)))
    for sets, members in layers:
        sets.flags.writeable = members.flags.writeable = False
    return layers


class FamilyScorer:
    """BIC family scores of one dataset, or of bootstrap resamples of it:
    the family-score table that every search reads.

    Subclasses provide ``family_scores(children, parent_sets, resamples)``:
    (sample, row) scores, one family per row, and the error per failure.
    They set up what it reads (covariances, counts) before they call this
    constructor, which fills a dense table.  A dense table holds ``fill``
    of every sample; a lazy one scores each family on its first read, and
    fills the rows that ``read_rows`` asks for on each read.  A family
    whose score raises (singular parent covariance, degenerate residual
    variance, too few rows) is marked NaN, and raises, through
    ``family_score``, only when a search reads it.
    """

    def __init__(self, data: "Dataset | DiscreteDataset", max_parents: int | None,
                 resamples: np.ndarray | None):
        self.n = data.n
        self.p = len(data.variables)
        self.max_parents = self.p - 1 if max_parents is None else min(max_parents, self.p - 1)
        self.samples = 1 if resamples is None else len(resamples)
        self._log_n = float(np.log(self.n))
        self.values = None   # (sample, child, parent mask), when dense
        self._scored = {}    # (sample, child, parent mask) -> score, otherwise
        if self.samples > 1 and self.samples * self.p << self.p <= DENSE_TABLE_ENTRIES:
            # the values, flat after one -inf that stands for unwanted reads
            self._store = np.concatenate([[-np.inf], self.fill(slice(None)).ravel()])
            self.values = self._store[1:].reshape(self.samples, self.p, 1 << self.p)

    def family_score(self, child: int, parent_mask: int, sample: int = 0) -> float:
        """One family's score in one sample (the first, or only, by
        default)."""
        for name, value, stop in [("child", child, self.p), ("sample", sample, self.samples),
                                  ("parent_mask", parent_mask, 1 << self.p)]:
            if not 0 <= value < stop:
                raise ValueError(f"{name}={value} is outside [0, {stop})")
        if parent_mask >> child & 1:
            raise ValueError(f"parent_mask={parent_mask} holds the child {child}")
        scores, failures = self.family_scores(child, mask_members([parent_mask], self.p),
                                              slice(sample, sample + 1))
        if failures:
            raise failures[0, 0]
        return float(scores[0, 0])

    def fill(self, samples: slice) -> np.ndarray:
        """Every family within the cap in the ``samples``, as (sample,
        child, parent mask), batched per parent count across children;
        -inf at masks outside the cap or holding the child."""
        values = np.full((len(range(self.samples)[samples]), self.p, 1 << self.p), -np.inf)
        for k, (sets, members) in enumerate(_layers(self.p)[:self.max_parents + 1]):
            children, at = np.nonzero(~sets >> np.arange(self.p)[:, None] & 1)
            step = max(1, DENSE_TABLE_ENTRIES // (len(values) * max(k * k, 1)))
            for lo in range(0, len(at), step):
                c, m = children[lo:lo + step], at[lo:lo + step]
                values[:, c, sets[m]] = self.family_scores(c, members[m], samples)[0]
        return values

    def read(self, samples: np.ndarray, children: np.ndarray, masks: np.ndarray,
             wanted: np.ndarray) -> np.ndarray:
        """Scores of the families (sample, child, parent mask), given as
        int arrays that broadcast to the shape of ``wanted``: -inf where
        ``wanted`` is false, NaN where the family is marked.  A table that
        is not dense scores each family on its first read, batched per
        (sample, parent count)."""
        if self.values is not None:
            first = ((samples * self.p + children) << self.p) + 1
            return self._store.take((first + masks) * wanted)
        out = np.full(wanted.shape, -np.inf)
        at = np.nonzero(wanted)
        keys = list(zip(*(np.broadcast_to(a, wanted.shape)[at].tolist()
                          for a in (samples, children, masks))))
        missing: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for key in dict.fromkeys(key for key in keys if key not in self._scored):
            missing.setdefault((key[0], key[2].bit_count()), []).append(key)
        for (sample, _), group in missing.items():
            _, children, masks = zip(*group)
            scores, _ = self.family_scores(np.array(children), mask_members(masks, self.p),
                                           slice(sample, sample + 1))
            self._scored.update(zip(group, scores[0].tolist()))
        out[at] = [self._scored[key] for key in keys]
        return out

    def read_rows(self, samples: slice) -> np.ndarray:
        """Every family's score in the ``samples``, as (sample, child,
        parent mask), -inf outside the cap; raises the error of the first
        marked family in that order.  A table that is not dense scores the
        rows on each read, batched per parent count."""
        values = self.fill(samples) if self.values is None else self.values[samples]
        marked = np.flatnonzero(np.isnan(values))
        if marked.size:
            sample, child, mask = np.unravel_index(marked[0], values.shape)
            self.family_score(int(child), int(mask), range(self.samples)[samples][sample])
        return values

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
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise ValueError(f"{path}: repeated column names {', '.join(map(repr, repeated))}")
        rows, lines = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            lines.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.array(rows, dtype=float)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{path}:{lines[i]}: column {header[j]!r} holds "
                         f"'{values[i, j]}', not a finite number")
    return Dataset(VariableSet(header), values)


def write_numeric_csv(path: str | Path, data: Dataset, fmt: str = "%.10g") -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(data.variables.names)
        for row in data.rows:
            writer.writerow([fmt % x for x in row])

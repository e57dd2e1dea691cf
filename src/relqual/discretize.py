"""Unsupervised discretization and the multinomial network score.

Four binning schemes are provided: equal width, equal frequency, 1-D
k-means, and iterative merging that greedily preserves total pairwise
mutual information (starting from a fine equal-frequency grid).  Intervals
are half open [lo, hi) with the last interval closed, so every value maps
to exactly one bin and binning is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DiscreteDataset, FamilyScorer

EQUAL_INTERVAL = "equal-interval"
EQUAL_FREQUENCY = "equal-frequency"
KMEANS = "kmeans"
HARTEMINK = "hartemink"

METHODS = (EQUAL_INTERVAL, EQUAL_FREQUENCY, KMEANS, HARTEMINK)


class DegenerateColumnError(ValueError):
    """A constant column cannot be binned by the requested method."""


@dataclass(frozen=True)
class DiscretizationSpec:
    method: str = EQUAL_FREQUENCY
    bins: int = 3
    hartemink_initial_bins: int = 20

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.hartemink_initial_bins < self.bins:
            raise ValueError("hartemink_initial_bins must be >= bins")

    def label(self) -> str:
        return f"{self.method}-{self.bins}"


@dataclass(frozen=True)
class Discretized:
    """Level-coded dataset plus the interior cut points used per variable."""

    dataset: DiscreteDataset
    edges: tuple[np.ndarray, ...]


def _assign(col: np.ndarray, interior: np.ndarray) -> np.ndarray:
    return np.searchsorted(interior, col, side="right")


def _equal_interval_edges(col: np.ndarray, bins: int) -> np.ndarray:
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        raise DegenerateColumnError("constant column has no interval width")
    return np.linspace(lo, hi, bins + 1)[1:-1]


def _equal_frequency_edges(col: np.ndarray, bins: int) -> np.ndarray:
    qs = np.arange(1, bins) / bins
    return np.quantile(col, qs)


def _kmeans_edges(col: np.ndarray, bins: int, max_iter: int = 100) -> np.ndarray:
    # deterministic 1-D Lloyd's with quantile-seeded centers
    if float(col.min()) == float(col.max()):
        raise DegenerateColumnError("constant column cannot be clustered")
    centers = np.quantile(col, (np.arange(bins) + 0.5) / bins)
    for _ in range(max_iter):
        boundaries = (centers[:-1] + centers[1:]) / 2.0
        labels = _assign(col, boundaries)
        new_centers = centers.copy()
        for k in range(bins):
            members = col[labels == k]
            if members.size:
                new_centers[k] = members.mean()
        new_centers.sort()
        if np.allclose(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers
    return (centers[:-1] + centers[1:]) / 2.0


def discretize(data: Dataset, spec: DiscretizationSpec) -> Discretized:
    """Bin every column of ``data`` according to ``spec``."""
    n, p = data.rows.shape
    if n < spec.bins:
        raise ValueError(f"need at least {spec.bins} rows, got {n}")
    if spec.method == HARTEMINK:
        return _hartemink(data, spec)
    edge_fn = {
        EQUAL_INTERVAL: _equal_interval_edges,
        EQUAL_FREQUENCY: _equal_frequency_edges,
        KMEANS: _kmeans_edges,
    }[spec.method]
    codes = np.zeros((n, p), dtype=np.int64)
    edges = []
    for j in range(p):
        interior = np.asarray(edge_fn(data.rows[:, j], spec.bins), dtype=float)
        codes[:, j] = _assign(data.rows[:, j], interior)
        edges.append(interior)
    dataset = DiscreteDataset(data.variables, codes, (spec.bins,) * p)
    return Discretized(dataset, tuple(edges))


def _mi_terms(block: np.ndarray, row_marg: np.ndarray,
              col_marg: np.ndarray, n: int) -> np.ndarray:
    """Per-cell contribution c ln(c n / (r s)) to n*MI of a count table
    with margins r and s, 0 at c = 0; C-ordered whatever the layout of
    ``block``, so that numpy sums each row pairwise."""
    block = np.ascontiguousarray(block)
    terms = block * n
    # a zero margin has only empty cells, whose ratio stays 0 over any
    # positive count; a positive margin is at least 1
    terms /= np.maximum(row_marg, 1)[:, None] * np.maximum(col_marg, 1)
    terms += block == 0   # ln 1 = 0 at the empty cells
    np.log(terms, out=terms)
    terms *= block
    return terms


def _merge_losses(t: np.ndarray, r: np.ndarray, c: np.ndarray, lengths: np.ndarray,
                  lo: int, hi: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n*MI lost by merging adjacent levels in the count table ``t``
    (margins ``r`` and ``c``) of one variable's levels, as columns, against
    tables of ``lengths`` rows stacked, from one pass of ``_mi_terms``:

    - merging each pair of adjacent rows, summed along the rows: (rows -
      1,), pairs that straddle two tables included;
    - merging column pairs lo..hi - 2, against each table: (hi - lo - 1,
      tables).

    Each sum is numpy's pairwise sum of one contiguous row at the length
    it has in a table of its own.  The margins are level counts, whole
    numbers and so exact however summed."""
    rows, cols = t.shape
    m = hi - lo - 1
    # t beside its columns lo..hi - 2 each merged with the next, and below
    # that every pair of adjacent rows merged
    block = np.empty((2 * rows - 1, cols + m))
    block[:rows, :cols] = t
    np.add(t[:, lo:hi - 1], t[:, lo + 1:hi], out=block[:rows, cols:])
    np.add(block[:rows - 1], block[1:rows], out=block[rows:])
    terms = _mi_terms(block, np.concatenate([r, r[:-1] + r[1:]]),
                      np.concatenate([c, c[lo:hi - 1] + c[lo + 1:hi]]), n)
    sums = np.add.reduce(terms[:, :cols], axis=1)
    # columns lo..hi - 1 and their merged pairs, each a C-ordered row
    near = np.concatenate([terms[:rows, lo:hi], terms[:rows, cols:]], axis=1).T.copy()
    across = np.empty((len(near), len(lengths)))
    ends = np.cumsum(lengths).tolist()
    for w, (a, b) in enumerate(zip([0] + ends, ends)):
        np.add.reduce(near[:, a:b], axis=1, out=across[:, w])
    return (sums[:rows - 1] + sums[1:rows] - sums[rows:],
            across[:m] + across[1:m + 1] - across[m + 1:])


def _hartemink(data: Dataset, spec: DiscretizationSpec) -> Discretized:
    """Merge adjacent bins, one variable at a time, always taking the merge
    that loses the least total pairwise mutual information.

    The levels of all variables index one symmetric count table, whose
    columns of variable v hold every variable's table against v, stacked.
    A merge in v changes v's own losses only at the two pairs next to the
    merged level, and every variable's losses against v entirely; one
    ``_merge_losses`` pass over v's columns gives both.  The losses of
    every ordered pair and their totals are arrays, so a merge costs a few
    array calls per variable however many levels the tables have."""
    n, p = data.rows.shape
    initial = min(spec.hartemink_initial_bins, n)

    base_edges: list[np.ndarray] = []
    base_codes = np.zeros((n, p), dtype=np.int64)
    counts: list[int] = []
    for j in range(p):
        col = data.rows[:, j]
        if float(col.min()) == float(col.max()):
            raise DegenerateColumnError("constant column cannot be discretized")
        interior = np.unique(_equal_frequency_edges(col, initial))
        codes = _assign(col, interior)
        # drop empty bins so merging only ever sees populated levels
        used, codes = np.unique(codes, return_inverse=True)
        base_codes[:, j] = codes
        base_edges.append(interior[used[:-1]] if used.size > 1 else np.empty(0))
        counts.append(used.size)
        if used.size < spec.bins:
            raise DegenerateColumnError(
                f"column {data.variables.names[j]} has only {used.size} distinct bins")

    # starts[j][g] is the first base bin of variable j's current level g
    starts: list[list[int]] = [list(range(c)) for c in counts]
    levels = np.array(counts)
    first = np.cumsum(levels) - levels     # v's first level in the table
    total = int(levels.sum())
    cells = base_codes + first
    table = np.bincount((cells[:, :, None] * total + cells[:, None, :]).ravel(),
                        minlength=total * total).reshape(total, total).astype(float)
    sizes = table.diagonal().copy()
    pairs = np.arange(int(levels.max()) - 1)
    # pair_loss[v, w, i]: n*MI between v and w lost by merging v's levels
    # i and i + 1, 0 at w = v; closed[v, i]: 0 where v may merge them,
    # inf where it may not
    pair_loss = np.zeros((p, p, len(pairs)))
    closed = np.where((pairs < levels[:, None] - 1) & (levels[:, None] > spec.bins),
                      0.0, np.inf)

    def rescore(v: int, lo: int, hi: int) -> np.ndarray:
        """Every variable's losses against v, stored (v's own row too);
        v's own at pairs lo..hi - 2, returned (pairs, variables)."""
        cols = slice(first[v], first[v] + levels[v])
        down, own = _merge_losses(table[:, cols], sizes, sizes[cols], levels, lo, hi, n)
        pair_loss[:, v] = down.take(first[:, None] + pairs, mode="clip")
        return own

    for v in range(p):
        rescore(v, 0, 1)
    pair_loss[range(p), range(p)] = 0.0
    while True:
        # summed in ascending w, one after the other
        low = pair_loss.cumsum(axis=1)[:, -1] + closed
        best = (math.inf, None, None)
        for v, (loss, i) in enumerate(zip(low.min(axis=1).tolist(),
                                          low.argmin(axis=1).tolist())):
            if loss < best[0] - 1e-12:
                best = (loss, v, i)
        _, v, i = best
        if v is None:
            break
        a = first[v] + i
        table[a] += table[a + 1]
        table[:, a] += table[:, a + 1]
        table[a + 1:-1] = table[a + 2:]
        table[:, a + 1:-1] = table[:, a + 2:]
        table = table[:-1, :-1]
        sizes[a] += sizes[a + 1]
        sizes[a + 1:-1] = sizes[a + 2:]
        sizes = sizes[:-1]
        levels[v] -= 1
        first[v + 1:] -= 1
        del starts[v][i + 1]
        pair_loss[v, :, i:-1] = pair_loss[v, :, i + 1:]
        closed[v, levels[v] - 1 if levels[v] > spec.bins else 0:] = np.inf
        lo, hi = max(i - 1, 0), min(i + 2, levels[v])
        pair_loss[v, :, lo:hi - 1] = rescore(v, lo, hi).T
        pair_loss[v, v] = 0.0

    codes = np.zeros((n, p), dtype=np.int64)
    edges = []
    for j in range(p):
        group_starts = np.asarray(starts[j][1:], dtype=np.int64)
        codes[:, j] = np.searchsorted(group_starts, base_codes[:, j], side="right")
        edges.append(base_edges[j][group_starts - 1] if group_starts.size else np.empty(0))
    dataset = DiscreteDataset(data.variables, codes, tuple(len(s) for s in starts))
    return Discretized(dataset, tuple(edges))


# A fill counts every variable set as a marginal of one joint count table
# while all the marginals of that table, samples * prod(levels + 1) counts,
# hold at most this many (8 MiB, as a dense family-score table); otherwise
# each family is counted on its own.
MARGINAL_ENTRIES = 1 << 20


class DiscreteScoreCache(FamilyScorer):
    """Multinomial BIC family scores of one dataset, or of bootstrap
    resamples of it.

    ``family_scores`` scores one family per row in every sample.
    Within one ``fill`` whose marginals fit in ``MARGINAL_ENTRIES``, every
    family's counts are marginals of one joint count table over all
    variables, each summed out of a memoized marginal of one more variable,
    as AD-trees share marginal counts (Moore & Lee, 1998), by whichever of
    numpy's sum, einsum or adding slices runs long loops over the extra
    variable's axis; the memo lives as long as that fill.  Otherwise each family takes one bincount, and
    its configurations' counts are summed out of it.  Integer sums are
    exact, so both give the same counts, laid out as (sample, levels of the
    variables in descending order).  The log term c ln(c/N) of a cell count
    c in a parent configuration of N rows is read from a table of every
    count pair with an N seen so far.
    """

    # bound in this class too: a tracer wraps and restores it per scorer
    # (perfbench) and must find it in the class's own namespace
    family_score = FamilyScorer.family_score

    def __init__(self, data: DiscreteDataset, max_parents: int | None = None,
                 resamples: np.ndarray | None = None):
        self.rows = data.rows
        self.levels = data.levels
        self.resamples = (np.arange(data.n)[None, :] if resamples is None
                          else np.asarray(resamples))
        # marginal counts by descending variable tuple, during a fill
        self._memo: dict | None = None
        # c ln(c/N) at _term_rows[N] + c, -1 for an N not yet seen
        self._term_rows = np.full(self.resamples.shape[1] + 1, -1, dtype=np.intp)
        self._terms = np.empty(0)
        super().__init__(data, max_parents, resamples)

    def fill(self, samples: slice) -> np.ndarray:
        """``FamilyScorer.fill``, counting through a memo started with the
        samples' joint count table where its marginals fit."""
        idx = self.resamples[samples]
        if len(idx) * math.prod(k + 1 for k in self.levels) <= MARGINAL_ENTRIES:
            joint = tuple(range(self.p - 1, -1, -1))
            self._memo = {joint: self._marginal(idx, joint)}
        try:
            return super().fill(samples)
        finally:
            self._memo = None

    def family_scores(self, children: int | np.ndarray, parent_sets: np.ndarray,
                      resamples: slice = slice(None)
                      ) -> tuple[np.ndarray, dict[tuple[int, int], ValueError]]:
        """Scores of ``children[m]`` (an int child is every row's) given row
        m of ``parent_sets`` (M x k, ascending) in each selected sample: a
        (B, M) array and an empty failure map (scores always exist)."""
        idx = self.resamples[resamples]
        if parent_sets.shape[1] > self.max_parents:
            raise ValueError("parent set exceeds max_parents")
        children = np.broadcast_to(children, len(parent_sets)).tolist()
        scores = np.empty((len(idx), len(parent_sets)))
        for m, (child, parents) in enumerate(zip(children, parent_sets.tolist())):
            # counts as (sample, parents above the child, child, parents below)
            family = tuple(sorted((child, *parents), reverse=True))
            at, child_levels = family.index(child), self.levels[child]
            counts = self._marginal(idx, family).reshape(
                len(idx), -1, child_levels, math.prod(self.levels[j] for j in family[at + 1:]))
            config = (counts.sum(axis=2) if self._memo is None
                      else self._marginal(idx, family[:at] + family[at + 1:]))
            loglik = self._log_terms(counts, config).reshape(len(idx), -1).sum(axis=1)
            k = (child_levels - 1) * (config.size // len(idx))
            scores[:, m] = loglik - 0.5 * k * self._log_n
        return scores, {}

    def _counts(self, idx: np.ndarray, variables: list[int]) -> np.ndarray:
        """Counts (B, cells) of the joint levels of the ``variables`` in the
        samples ``idx``, the first variable's level varying fastest."""
        code = self.rows[:, variables[0]].copy()
        radix = self.levels[variables[0]]
        for j in variables[1:]:
            code += radix * self.rows[:, j]
            radix *= self.levels[j]
        code = code[idx]
        # sample b's cells sit at offset b * radix
        code += np.arange(0, len(idx) * radix, radix)[:, None]
        return np.bincount(code.ravel(), minlength=len(idx) * radix).reshape(len(idx), radix)

    def _marginal(self, idx: np.ndarray, variables: tuple[int, ...]) -> np.ndarray:
        """Counts (B, levels...) of the ``variables`` (descending) in the
        samples ``idx``.  During a fill, they are summed over one axis of
        the smallest memoized set of one more variable, or of the smallest
        such set, derived first; ties go to the largest extra variable,
        whose axis lies furthest out.  Otherwise they take one bincount."""
        if self._memo is None:
            # variable j's level is a digit of the code, the last one's the
            # most significant, so the axes run from the last variable down
            return self._counts(idx, variables[::-1]).reshape(
                (len(idx),) + tuple(self.levels[j] for j in variables))
        counts = self._memo.get(variables)
        if counts is None:
            # each superset by its extra variable j, which sits after the
            # ``at`` variables above it; the smallest has the j of fewest
            # levels, ties going to the largest j
            supersets, at = [], 0
            for j in range(self.p - 1, -1, -1):
                if at < len(variables) and variables[at] == j:
                    at += 1
                else:
                    supersets.append((self.levels[j], -j, at,
                                      variables[:at] + (j,) + variables[at:]))
            *_, at, source = min([s for s in supersets if s[3] in self._memo] or supersets)
            counts, axis = self._marginal(idx, source), 1 + at
            # numpy's sum runs long inner loops only over the outermost
            # axis and einsum over a middle one; over the innermost, both
            # run one short loop per cell of the rest, so its slices are
            # added instead, each add one strided loop.  Integer sums are
            # exact whichever way.
            if axis == 1:
                counts = counts.sum(axis=1)
            elif axis < counts.ndim - 1:
                dims = list(range(counts.ndim))
                counts = np.einsum(counts, dims, dims[:axis] + dims[axis + 1:])
            else:
                counts = sum((counts[..., j] for j in range(1, counts.shape[-1])),
                             counts[..., 0])
            self._memo[variables] = counts
        return counts

    def _log_terms(self, counts: np.ndarray, config: np.ndarray) -> np.ndarray:
        """c ln(c/N) of every cell count c whose configuration counts N
        rows, 0 at c = 0, read from the count-pair table.  ``counts`` is
        (sample, outer parents, child, inner parents) and the terms are
        (sample, outer, inner, child), C-ordered: the layout of the cell
        code child + levels * (first parent + levels * (second + ...)).
        A row of the table holds the terms of c = 0..N, computed by the
        same elementwise operations as on the counts themselves."""
        samples, outer, levels, inner = counts.shape
        first = self._term_rows.take(config)
        if (first < 0).any():
            new = np.unique(config[first < 0])
            width = new + 1
            c = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
            with np.errstate(divide="ignore", invalid="ignore"):
                rows = np.log(c / np.repeat(new, width)) * c
            rows[c == 0] = 0.0
            self._term_rows[new] = self._terms.size + np.cumsum(width) - width
            self._terms = np.concatenate([self._terms, rows])
            first = self._term_rows.take(config)
        index = np.empty((samples, outer, inner, levels), dtype=np.intp)
        # iterated child-major, so the inner loop runs over the parents
        np.add(first.reshape(samples, 1, outer, inner), counts.transpose(0, 2, 1, 3),
               out=index.transpose(0, 3, 1, 2))
        return self._terms.take(index)


def bic_discrete(dag, data: DiscreteDataset) -> float:
    """Multinomial BIC: log-likelihood of every family minus (k/2) ln n,
    with k counting (levels-1) free cells per observed-or-not parent
    configuration.  Zero counts contribute zero via 0 ln 0 = 0."""
    if dag.variables != data.variables:
        raise ValueError("dag and data use different variable sets")
    return DiscreteScoreCache(data).score_dag(dag)


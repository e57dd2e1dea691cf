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
from itertools import accumulate

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
    """Per-cell contribution to n*MI of the given rows of a count table,
    C-ordered whatever the layout of ``block``, so that numpy sums each
    row pairwise."""
    block = np.ascontiguousarray(block)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = block * n / np.outer(row_marg, col_marg)
        return np.where(block > 0, block * np.log(np.where(block > 0, ratio, 1.0)), 0.0)


# n*MI lost by merging each adjacent pair of rows of a count table, for
# several tables at once: one elementwise pass over the tables' rows and
# their merged row pairs, then each table's rows summed on their own.  The
# margins are level counts, whole numbers and so exact however summed.

def _merge_terms(t: np.ndarray, r: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """The n*MI terms of the rows of ``t`` and then of its merged rows."""
    return _mi_terms(np.concatenate([t, t[:-1] + t[1:]]), np.concatenate([r, r[:-1] + r[1:]]),
                     c, n)


def _merge_losses(sums: np.ndarray, rows: int) -> np.ndarray:
    return sums[:rows - 1] + sums[1:rows] - sums[rows:]


def _column_block_losses(t: np.ndarray, r: np.ndarray, c: np.ndarray,
                         bounds: list[int], n: int) -> np.ndarray:
    """The losses of the tables side by side in ``t``, whose columns
    ``bounds[k]:bounds[k + 1]`` make table k: (tables, rows - 1)."""
    terms = _merge_terms(t, r, c, n)
    return np.array([_merge_losses(terms[:, lo:hi].sum(axis=1), len(r))
                     for lo, hi in zip(bounds, bounds[1:])]).reshape(len(bounds) - 1, len(r) - 1)


def _row_block_losses(t: np.ndarray, r: np.ndarray, c: np.ndarray,
                      ends: list[int], n: int) -> list[np.ndarray]:
    """The losses of the tables stacked in ``t``, whose rows end at
    ``ends``; merged rows straddling two tables are computed and dropped."""
    loss = _merge_losses(_merge_terms(t, r, c, n).sum(axis=1), len(r))
    return [loss[lo:hi - 1] for lo, hi in zip([0, *ends], ends)]


def _merge_next(t: np.ndarray, i: int) -> np.ndarray:
    """``t`` with row i + 1 added into row i and dropped, in place: a view
    of one row fewer."""
    t[i] += t[i + 1]
    t[i + 1:-1] = t[i + 2:]
    return t[:-1]


def _hartemink(data: Dataset, spec: DiscretizationSpec) -> Discretized:
    """Merge adjacent bins, one variable at a time, always taking the merge
    that loses the least total pairwise mutual information."""
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
    sizes = [np.bincount(base_codes[:, j]).astype(float) for j in range(p)]

    def bounds(v: int) -> list[int]:
        """Where each other variable's block starts among the columns of
        ``wide[v]``, in ascending order, and where the last one ends."""
        return list(accumulate((len(starts[w]) for w in range(p) if w != v), initial=0))

    # wide[v]: the count tables of v against every other variable, side by
    # side in ascending order, with v's levels as rows.  Kept current while
    # v can still merge, and through v's last merge.
    wide = []
    for v in range(p):
        b = bounds(v)
        cells = (base_codes[:, v, None] * b[-1] + base_codes[:, np.arange(p) != v]
                 + np.array(b[:-1], dtype=np.int64))
        wide.append(np.bincount(cells.ravel(), minlength=counts[v] * b[-1])
                    .reshape(counts[v], b[-1]).astype(float))

    def row_losses(v: int) -> np.ndarray:
        """v's losses against every other variable, one row per w."""
        c = np.concatenate([np.empty(0)] + [sizes[w] for w in range(p) if w != v])
        return _column_block_losses(wide[v], sizes[v], c, bounds(v), n)

    def losses_against(v: int, us: list[int]) -> list[np.ndarray]:
        """Each u's losses against v."""
        b = bounds(v)
        cols = np.concatenate([np.arange(b[u - (u > v)], b[u - (u > v) + 1]) for u in us])
        return _row_block_losses(wide[v][:, cols].T, np.concatenate([sizes[u] for u in us]),
                                 sizes[v], list(accumulate(len(starts[u]) for u in us)), n)

    # the losses of every variable that can still merge; a merge in v
    # changes only v's rows and every other variable's losses against v
    mergeable = [v for v in range(p) if len(starts[v]) > spec.bins]
    pair_loss = {v: row_losses(v) for v in mergeable}

    while True:
        best = None
        for v in mergeable:
            # summed in ascending w, one after the other
            losses = pair_loss[v].cumsum(axis=0)[-1] if p > 1 \
                else np.zeros(len(starts[v]) - 1)
            i = int(losses.argmin())
            if best is None or losses[i] < best[0] - 1e-12:
                best = (float(losses[i]), v, i)
        if best is None:
            break
        _, v, i = best
        for u in mergeable:
            if u == v:
                wide[u] = _merge_next(wide[u], i)
            else:
                j = bounds(u)[v - (v > u)] + i
                wide[u] = _merge_next(wide[u].T, j).T
        sizes[v] = _merge_next(sizes[v], i)
        del starts[v][i + 1]
        if len(starts[v]) == spec.bins:
            mergeable.remove(v)
        else:
            pair_loss[v] = row_losses(v)
        others = [u for u in mergeable if u != v]
        if others:
            for u, loss in zip(others, losses_against(v, others)):
                pair_loss[u][v - (v > u)] = loss

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
    as AD-trees share marginal counts (Moore & Lee, 1998); the memo lives
    as long as that fill.  Otherwise each family takes one bincount, and
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
            supersets = [tuple(sorted((*variables, j), reverse=True))
                         for j in range(self.p - 1, -1, -1) if j not in variables]
            known = [s for s in supersets if s in self._memo]
            source = min(known or supersets,
                         key=lambda s: math.prod(self.levels[j] for j in s))
            extra = next(j for j in source if j not in variables)
            counts = self._memo[variables] = self._marginal(idx, source).sum(
                axis=1 + source.index(extra))
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


def pairwise_mutual_information(data: DiscreteDataset) -> np.ndarray:
    """Plug-in mutual information (nats) for every variable pair.

    Symmetric; the diagonal holds each variable's marginal entropy.
    """
    p = len(data.levels)
    n = data.n
    out = np.zeros((p, p))
    marginals = []
    for j in range(p):
        counts = np.bincount(data.rows[:, j], minlength=data.levels[j]).astype(float)
        probs = counts / n
        nz = probs > 0
        out[j, j] = float(-np.sum(probs[nz] * np.log(probs[nz])))
        marginals.append(counts)
    for a in range(p):
        for b in range(a + 1, p):
            t = np.zeros((data.levels[a], data.levels[b]))
            np.add.at(t, (data.rows[:, a], data.rows[:, b]), 1.0)
            mi = float(_mi_terms(t, marginals[a], marginals[b], n).sum(axis=1).sum()) / n
            out[a, b] = out[b, a] = max(mi, 0.0)
    return out

"""Unsupervised discretization and the multinomial network score.

Four binning schemes are provided: equal width, equal frequency, 1-D
k-means, and iterative merging that greedily preserves total pairwise
mutual information (starting from a fine equal-frequency grid).  Intervals
are half open [lo, hi) with the last interval closed, so every value maps
to exactly one bin and binning is monotone.
"""

from __future__ import annotations

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


def _mi_row_terms(block: np.ndarray, row_marg: np.ndarray,
                  col_marg: np.ndarray, n: int) -> np.ndarray:
    """Per-row contribution to n*MI for the given rows of a count table."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = block * n / np.outer(row_marg, col_marg)
        terms = np.where(block > 0, block * np.log(np.where(block > 0, ratio, 1.0)), 0.0)
    return terms.sum(axis=1)


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

    tables: dict[tuple[int, int], np.ndarray] = {}
    for a in range(p):
        for b in range(a + 1, p):
            t = np.zeros((counts[a], counts[b]), dtype=float)
            np.add.at(t, (base_codes[:, a], base_codes[:, b]), 1.0)
            tables[(a, b)] = t

    # groups[j][g] = list-like span of base bins forming current level g,
    # tracked as the start index of each group
    starts: list[list[int]] = [list(range(c)) for c in counts]

    def table_for(v: int, w: int) -> np.ndarray:
        # rows always indexed by v.  Keep this layout: numpy sums the rows of
        # the Fortran-ordered transpose sequentially and those of a C-ordered
        # table pairwise, and the chosen merges depend on those bits
        return tables[(v, w)] if v < w else tables[(w, v)].T

    def pair_losses(v: int, w: int) -> np.ndarray:
        """n*MI between v and w lost by merging each adjacent pair of v's
        levels."""
        t = table_for(v, w)
        r = t.sum(axis=1)
        c = t.sum(axis=0)
        before = _mi_row_terms(t, r, c, n)
        after = _mi_row_terms(t[:-1] + t[1:], r[:-1] + r[1:], c, n)
        return before[:-1] + before[1:] - after

    # the loss vector of every ordered pair (v, w) whose v can still merge;
    # a merge in v changes only the tables, and so the pairs, involving v
    mergeable = [v for v in range(p) if len(starts[v]) > spec.bins]
    pair_loss = {(v, w): pair_losses(v, w)
                 for v in mergeable for w in range(p) if w != v}

    while True:
        best = None
        for v in mergeable:
            losses = np.zeros(len(starts[v]) - 1)   # summed in ascending w
            for w in range(p):
                if w != v:
                    losses += pair_loss[v, w]
            i = int(np.argmin(losses))
            if best is None or losses[i] < best[0] - 1e-12:
                best = (float(losses[i]), v, i)
        if best is None:
            break
        _, v, i = best
        for w in range(p):
            if w == v:
                continue
            if v < w:
                t = tables[(v, w)]
                t[i] += t[i + 1]
                tables[(v, w)] = np.delete(t, i + 1, axis=0)
            else:
                t = tables[(w, v)]
                t[:, i] += t[:, i + 1]
                tables[(w, v)] = np.delete(t, i + 1, axis=1)
        del starts[v][i + 1]
        if len(starts[v]) == spec.bins:
            mergeable.remove(v)
        for u in mergeable:   # v's rows against every w; v's columns otherwise
            for w in (range(p) if u == v else (v,)):
                if w != u:
                    pair_loss[u, w] = pair_losses(u, w)

    codes = np.zeros((n, p), dtype=np.int64)
    edges = []
    for j in range(p):
        group_starts = np.asarray(starts[j][1:], dtype=np.int64)
        codes[:, j] = np.searchsorted(group_starts, base_codes[:, j], side="right")
        edges.append(base_edges[j][group_starts - 1] if group_starts.size else np.empty(0))
    dataset = DiscreteDataset(data.variables, codes, tuple(len(s) for s in starts))
    return Discretized(dataset, tuple(edges))


class DiscreteScoreCache(FamilyScorer):
    """Multinomial BIC family scores of one dataset, or of bootstrap
    resamples of it.

    ``family_scores`` scores parent sets of one child in every sample, one
    bincount per family over all samples.
    """

    # bound in this class too: a tracer wraps and restores it per scorer
    # (perfbench) and must find it in the class's own namespace
    family_score = FamilyScorer.family_score

    def __init__(self, data: DiscreteDataset, max_parents: int | None = None,
                 resamples: np.ndarray | None = None):
        super().__init__(data, max_parents, resamples)
        self.rows = data.rows
        self.levels = data.levels
        self.resamples = (np.arange(self.n)[None, :] if resamples is None
                          else np.asarray(resamples))

    def family_scores(self, child: int, parent_sets: np.ndarray,
                      resamples: slice = slice(None)
                      ) -> tuple[np.ndarray, dict[tuple[int, int], ValueError]]:
        """Scores of ``child`` given each row of ``parent_sets`` (M x k,
        ascending indices) in each selected sample: a (B, M) array and an
        empty failure map (multinomial scores always exist)."""
        idx = self.resamples[resamples]
        if parent_sets.shape[1] > self.max_parents:
            raise ValueError("parent set exceeds max_parents")
        child_levels = self.levels[child]
        scores = np.empty((len(idx), len(parent_sets)))
        for m, parents in enumerate(parent_sets):
            config_size = 1
            code = self.rows[:, child].copy()
            radix = child_levels
            for parent in parents:
                code += radix * self.rows[:, parent]
                radix *= self.levels[parent]
                config_size *= self.levels[parent]
            # sample b's cells sit at offset b * radix
            offsets = np.arange(len(idx))[:, None] * radix
            cell = np.bincount((code[idx] + offsets).ravel(),
                               minlength=len(idx) * radix)
            cell = cell.reshape(len(idx), config_size, child_levels)
            config = cell.sum(axis=2)
            # cell * ln(cell / config) on observed cells, 0 elsewhere, with
            # the operations of scoring each sample alone
            observed = np.flatnonzero(cell)
            counts = cell.ravel()[observed]
            terms = np.zeros(cell.size)
            terms[observed] = np.log(
                counts / config.ravel()[observed // child_levels]) * counts
            loglik = terms.reshape(len(idx), -1).sum(axis=1)
            k = (child_levels - 1) * config_size
            scores[:, m] = loglik - 0.5 * k * self._log_n
        return scores, {}


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
            mi = float(_mi_row_terms(t, marginals[a], marginals[b], n).sum()) / n
            out[a, b] = out[b, a] = max(mi, 0.0)
    return out

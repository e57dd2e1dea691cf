"""Structure learning: greedy score search, hybrid restricts, exact
posterior averaging, and bootstrap arc confidence.

Every search reads one family-score table: the BIC of each (child, parent
set) within the parent cap, for one dataset or for all bootstrap resamples
of it at once, scored in batches across resamples.  Greedy moves work on
bitmask parent sets, read the table through plain per-child lists, and
decide acyclicity from per-node ancestor bitmasks.  All randomness flows
through counter-split seeds; results do not depend on scheduling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from io import StringIO
from itertools import combinations
from pathlib import Path
from typing import Callable, Union

import numpy as np
from scipy import special

from .dag import Dag, SizeLimitError, VariableSet
from .data import Dataset, DiscreteDataset
from .discretize import DiscreteScoreCache
from .gaussian import GaussianScoreCache
from .rng import rng_from, split_seed

DataLike = Union[Dataset, DiscreteDataset]


class SingularCorrelationError(ValueError):
    """Correlation submatrix is not invertible."""


@dataclass(frozen=True)
class HcConfig:
    """Greedy search settings: restart count, perturbation length per
    restart, parent cap, and the seed all restarts derive from."""

    restarts: int = 10
    perturb: int = 5
    max_parents: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_parents < 1:
            raise ValueError("max_parents must be >= 1")
        if self.perturb < 0:
            raise ValueError("perturb must be >= 0")


# ---------------------------------------------------------------------------
# family-score table

# A table over bootstrap resamples is dense while it holds at most this
# many float64 entries, samples * p * 2^p (8 MiB; p <= 10 at 100
# resamples): every family within the parent cap is scored up front, in
# batches across resamples.  A larger table, or one of a single dataset,
# scores each family on first read, one at a time, with the same
# arithmetic: one greedy search reads far fewer families than the cap
# allows, and the exact searches read whole rows (``FamilyScores.array``),
# which are scored in batches.
DENSE_TABLE_ENTRIES = 1 << 20


def _scorer(data: DataLike, max_parents: int, resamples: np.ndarray | None = None):
    if isinstance(data, DiscreteDataset):
        return DiscreteScoreCache(data, max_parents, resamples)
    return GaussianScoreCache(data, max_parents, resamples)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class FamilyScoreTable:
    """Family scores of one dataset, or of each of its bootstrap resamples.

    A family whose score raises (singular parent covariance, degenerate
    residual variance, too few rows) is marked NaN, and raises only when a
    search reads it.
    """

    def __init__(self, scorer, variables: VariableSet):
        self.scorer = scorer
        self.variables = variables
        self.p = scorer.p
        self.max_parents = scorer.max_parents
        self.values = None   # (sample, child, parent mask), when dense
        entries = scorer.samples * self.p << self.p
        if scorer.samples > 1 and entries <= DENSE_TABLE_ENTRIES:
            self.values = np.empty((scorer.samples, self.p, 1 << self.p))
            for child in range(self.p):
                self.values[:, child] = self._score_child(child, slice(None))

    def _score_child(self, child: int, resamples: slice) -> np.ndarray:
        """Every parent set of ``child`` within the cap, batched per size;
        -inf at masks outside the cap or holding the child."""
        others = [i for i in range(self.p) if i != child]
        values = np.full((len(range(self.scorer.samples)[resamples]), 1 << self.p),
                         -np.inf)
        for k in range(self.max_parents + 1):
            sets = list(combinations(others, k))
            sets = np.array(sets, dtype=np.intp).reshape(len(sets), k)
            scores, _ = self.scorer.family_scores(child, sets, resamples)
            values[:, (1 << sets).sum(axis=1)] = scores
        return values


class _LazyRow(dict):
    """One child's family scores in one sample, each scored on first read;
    a family whose score fails raises on every read."""

    def __init__(self, scorer, sample: int, child: int, known=()):
        super().__init__(known)
        self.scorer, self.sample, self.child = scorer, sample, child

    def __missing__(self, mask: int) -> float:
        scores, errors = self.scorer.family_scores(
            self.child, np.array([_bits(mask)], dtype=np.intp),
            slice(self.sample, self.sample + 1))
        if errors:
            raise errors[0, 0]
        value = self[mask] = float(scores[0, 0])
        return value


class FamilyScores:
    """One sample's family scores, as the searches read them."""

    def __init__(self, table: FamilyScoreTable, sample: int):
        self.table = table
        self.sample = sample
        self.variables = table.variables
        self.p = table.p
        self.max_parents = table.max_parents

    def _lazy_row(self, child: int, known=()) -> _LazyRow:
        return _LazyRow(self.table.scorer, self.sample, child, known)

    def rows(self) -> list:
        """Per child, its scores indexed by parent mask: lists from a dense
        table, dicts filled on first read otherwise.  A row with marked
        families is a dict without them, so reading one scores it again
        and raises its error."""
        values = self.table.values
        if values is None:
            return [self._lazy_row(child) for child in range(self.p)]
        rows = values[self.sample].tolist()
        marked = np.isnan(values[self.sample]).any(axis=1)
        for child in map(int, np.flatnonzero(marked)):
            rows[child] = self._lazy_row(
                child, ((mask, x) for mask, x in enumerate(rows[child]) if x == x))
        return rows

    def array(self, child: int) -> np.ndarray:
        """``child``'s scores for every parent mask, -inf outside the cap;
        raises the error of the lowest marked mask, if any."""
        if self.table.values is None:
            values = self.table._score_child(
                child, slice(self.sample, self.sample + 1))[0]
        else:
            values = self.table.values[self.sample, child]
        marked = np.flatnonzero(np.isnan(values))
        if marked.size:
            self._lazy_row(child)[int(marked[0])]   # raises the family's error
        return values


def family_scores(data: DataLike | FamilyScores, max_parents: int) -> FamilyScores:
    """The family-score table of one dataset (or ``data`` itself, when it
    is already one sample's scores)."""
    if isinstance(data, FamilyScores):
        if data.max_parents < min(max_parents, data.p - 1):
            raise ValueError("family-score table was built for fewer parents")
        return data
    table = FamilyScoreTable(_scorer(data, max_parents), data.variables)
    return FamilyScores(table, 0)


# ---------------------------------------------------------------------------
# greedy search on bitmask parent sets


def _ancestors(parents: list[int]) -> list[int]:
    """Per node, the bitmask of every node with a directed path to it
    (Warshall's closure on bitmask rows)."""
    anc = list(parents)
    nodes = range(len(anc))
    for k in nodes:
        through = anc[k]
        if through:
            bit = 1 << k
            for v in nodes:
                if anc[v] & bit:
                    anc[v] |= through
    return anc


def _move_masks(parents: list[int], children: list[int], max_parents: int,
                allow: list[int]) -> tuple[list[int], list[int]]:
    """Per node u: the bitmask of v with a legal add u -> v, and of v whose
    edge u -> v may be reversed.

    An add must keep v's parents within the cap, respect ``allow`` and close
    no cycle (v is not an ancestor of u); a reverse must keep u's parents
    within the cap and leave no other path from u to v, i.e. no other
    child of u is an ancestor of v.
    """
    anc = _ancestors(parents)
    room = 0
    for v, mask in enumerate(parents):
        if mask.bit_count() < max_parents:
            room |= 1 << v
    adds, reverses = [], []
    for u, cu in enumerate(children):
        adds.append(allow[u] & room & ~(parents[u] | cu | anc[u] | 1 << u))
        reversible = 0
        if room >> u & 1:
            rest = cu
            while rest:
                bv = rest & -rest
                rest ^= bv
                if not cu & ~bv & anc[bv.bit_length() - 1]:
                    reversible |= bv
        reverses.append(reversible)
    return adds, reverses


def _legal_moves(parents: list[int], children: list[int], max_parents: int,
                 allow: list[int]) -> list[tuple[str, int, int]]:
    """Every legal (kind, u, v), ordered by u, then v, delete before
    reverse."""
    adds, reverses = _move_masks(parents, children, max_parents, allow)
    moves = []
    for u, cu in enumerate(children):
        for v in _bits(cu | adds[u]):
            if cu >> v & 1:
                moves.append(("delete", u, v))
                if reverses[u] >> v & 1:
                    moves.append(("reverse", u, v))
            else:
                moves.append(("add", u, v))
    return moves


def _apply(parents: list[int], children: list[int], kind: str, u: int, v: int) -> None:
    if kind == "add":
        parents[v] |= 1 << u
        children[u] |= 1 << v
        return
    parents[v] &= ~(1 << u)
    children[u] &= ~(1 << v)
    if kind == "reverse":
        parents[u] |= 1 << v
        children[v] |= 1 << u


def _climb(parents: list[int], children: list[int], rows: list, max_parents: int,
           allow: list[int]) -> float:
    """Greedy ascent in place; returns the final total score.

    Moves are scanned in ``_legal_moves`` order and the first strictly best
    (by more than 1e-12) wins, so the path depends only on the scores.
    """
    score = sum(rows[v][parents[v]] for v in range(len(parents)))
    while True:
        adds, reverses = _move_masks(parents, children, max_parents, allow)
        best_delta = 0.0
        best_move = None
        for u, cu in enumerate(children):
            pu, row_u, bu, reversible = parents[u], rows[u], 1 << u, reverses[u]
            targets = cu | adds[u]
            while targets:
                bv = targets & -targets
                targets ^= bv
                v = bv.bit_length() - 1
                row_v, pv = rows[v], parents[v]
                if cu & bv:
                    delta = row_v[pv & ~bu] - row_v[pv]
                    if delta > best_delta + 1e-12:
                        best_delta, best_move = delta, ("delete", u, v)
                    if reversible & bv:
                        delta = delta + row_u[pu | bv] - row_u[pu]
                        if delta > best_delta + 1e-12:
                            best_delta, best_move = delta, ("reverse", u, v)
                else:
                    delta = row_v[pv | bu] - row_v[pv]
                    if delta > best_delta + 1e-12:
                        best_delta, best_move = delta, ("add", u, v)
        if best_move is None:
            return score
        _apply(parents, children, *best_move)
        score += best_delta


def _perturbed_start(p: int, moves: int, max_parents: int, allow: list[int],
                     rng: np.random.Generator) -> tuple[list[int], list[int]]:
    parents, children = [0] * p, [0] * p
    for _ in range(moves):
        options = _legal_moves(parents, children, max_parents, allow)
        if not options:
            break
        _apply(parents, children, *options[rng.integers(len(options))])
    return parents, children


def _to_dag(parents: list[int], variables: VariableSet) -> Dag:
    return Dag(variables, frozenset((u, v) for v, mask in enumerate(parents)
                                    for u in _bits(mask)))


def hill_climb(data: DataLike | FamilyScores, cfg: HcConfig,
               restrict: frozenset[tuple[int, int]] | None = None,
               seed=None) -> Dag:
    """Best DAG over random-restart greedy search.

    Each restart perturbs the empty graph with random legal edge operations
    and then repeatedly applies the single add / delete / reverse move with
    the largest positive score gain.  Every move's gain is read from the
    family-score table of ``data`` (built here for a dataset, or passed in
    as one bootstrap resample's slice); an add or reverse is legal when
    each node's ancestor bitmask says it closes no cycle.  The restart with
    the highest final score wins, earliest restart on ties.
    """
    scores = family_scores(data, cfg.max_parents)
    rows = scores.rows()
    p = scores.p
    allow = [(1 << p) - 1] * p
    if restrict is not None:
        allow = [0] * p
        for a, b in restrict:   # pairs are (lower, higher) index
            if a < b:
                allow[a] |= 1 << b
                allow[b] |= 1 << a
    rng = rng_from(split_seed(cfg.seed, 0) if seed is None else seed)

    best_parents = [0] * p
    best_score = _climb(best_parents, [0] * p, rows, cfg.max_parents, allow)
    for _ in range(cfg.restarts - 1):
        parents, children = _perturbed_start(p, cfg.perturb, cfg.max_parents,
                                             allow, rng)
        score = _climb(parents, children, rows, cfg.max_parents, allow)
        if score > best_score + 1e-12:
            best_score = score
            best_parents = parents
    return _to_dag(best_parents, scores.variables)


# ---------------------------------------------------------------------------
# conditional-independence restricts


def _partial_correlation(corr: np.ndarray, x: int, y: int,
                         given: tuple[int, ...]) -> float:
    if not given:
        return float(np.clip(corr[x, y], -1.0, 1.0))
    s = list(given)
    try:
        solved = np.linalg.solve(corr[np.ix_(s, s)], corr[np.ix_(s, [x, y])])
    except np.linalg.LinAlgError:
        raise SingularCorrelationError(
            f"correlation submatrix for {s} is singular") from None
    residual = corr[np.ix_([x, y], [x, y])] - corr[np.ix_([x, y], s)] @ solved
    var_x, var_y = residual[0, 0], residual[1, 1]
    if var_x <= 1e-15 or var_y <= 1e-15:
        # x or y fully explained by the conditioning set
        return 0.0
    return float(np.clip(residual[0, 1] / np.sqrt(var_x * var_y), -1.0, 1.0))


def _fisher_z_pvalue(corr: np.ndarray, n: int, x: int, y: int,
                     given: tuple[int, ...]) -> float:
    r = _partial_correlation(corr, x, y, given)
    r = min(max(r, -0.9999999999), 0.9999999999)
    df = n - len(given) - 3
    if df <= 0:
        return 1.0
    z = np.sqrt(df) * np.arctanh(r)
    return float(2.0 * special.ndtr(-abs(z)))


def _grow_shrink_blanket(corr: np.ndarray, n: int, target: int, p: int,
                         alpha: float) -> set[int]:
    blanket: list[int] = []
    changed = True
    while changed:
        changed = False
        for x in range(p):
            if x == target or x in blanket:
                continue
            if _fisher_z_pvalue(corr, n, x, target, tuple(blanket)) <= alpha:
                blanket.append(x)
                changed = True
    for x in list(blanket):
        rest = tuple(b for b in blanket if b != x)
        if _fisher_z_pvalue(corr, n, x, target, rest) > alpha:
            blanket.remove(x)
    return set(blanket)


def restrict_gs(data: Dataset, alpha: float = 0.05) -> frozenset[tuple[int, int]]:
    """Pairs allowed by per-node Grow-Shrink blanket estimation.

    Tests are Fisher-z on partial correlations; a pair survives only when
    each node lands in the other's blanket (symmetry in both directions).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0,1)")
    corr = np.corrcoef(data.rows, rowvar=False)
    p = data.rows.shape[1]
    n = data.n
    blankets = [_grow_shrink_blanket(corr, n, t, p, alpha) for t in range(p)]
    pairs = set()
    for a in range(p):
        for b in range(a + 1, p):
            if b in blankets[a] and a in blankets[b]:
                pairs.add((a, b))
    return frozenset(pairs)


def _subsets(items: tuple[int, ...]):
    for mask in range(1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


def _mmpc_parents_children(corr: np.ndarray, n: int, target: int, p: int,
                           alpha: float) -> set[int]:
    cpc: list[int] = []
    candidates = [x for x in range(p) if x != target]
    while True:
        best = None
        for x in candidates:
            if x in cpc:
                continue
            # weakest association over all conditioning subsets of cpc
            worst_p = max(_fisher_z_pvalue(corr, n, x, target, s)
                          for s in _subsets(tuple(cpc)))
            if best is None or worst_p < best[0]:
                best = (worst_p, x)
        if best is None or best[0] > alpha:
            break
        cpc.append(best[1])
    for x in list(cpc):
        rest = tuple(c for c in cpc if c != x)
        if any(_fisher_z_pvalue(corr, n, x, target, s) > alpha
               for s in _subsets(rest)):
            cpc.remove(x)
    return set(cpc)


def restrict_mmpc(data: Dataset, alpha: float = 0.05) -> frozenset[tuple[int, int]]:
    """Pairs allowed by the max-min parents-children heuristic: grow by the
    best worst-case association, prune backward, keep symmetric hits."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0,1)")
    corr = np.corrcoef(data.rows, rowvar=False)
    p = data.rows.shape[1]
    n = data.n
    sets = [_mmpc_parents_children(corr, n, t, p, alpha) for t in range(p)]
    pairs = set()
    for a in range(p):
        for b in range(a + 1, p):
            if b in sets[a] and a in sets[b]:
                pairs.add((a, b))
    return frozenset(pairs)


def _restrict_pairs(data: Dataset, restrict: str,
                    alpha: float) -> frozenset[tuple[int, int]]:
    if restrict == "gs":
        return restrict_gs(data, alpha)
    if restrict == "mmpc":
        return restrict_mmpc(data, alpha)
    raise ValueError("restrict must be 'gs' or 'mmpc'")


def hybrid_search(data: Dataset, alpha: float, cfg: HcConfig,
                  restrict: str = "gs", seed=None) -> Dag:
    """Greedy search confined to the pairs a constraint pass allows."""
    return hill_climb(data, cfg, restrict=_restrict_pairs(data, restrict, alpha),
                      seed=seed)


# ---------------------------------------------------------------------------
# exact posterior averaging over all DAGs

# Both exact computations finish within 10 s single-core at 16 nodes
# (README, "Exact search limits").
MAX_EXACT_NODES = 16
MAX_EXACT_PARENTS = 5

# The sink-layer recursion visits every pair (R, t) of disjoint node sets,
# 3^p of them, in blocks of at most this many pairs, so that no temporary
# outgrows a few MB.
SINK_BLOCK_PAIRS = 1 << 16


def _family_weight_tables(data: Dataset, max_parents: int) -> np.ndarray:
    """Per child: exp(family score - child max) for every parent mask,
    as a (child, parent mask) array.

    Extended precision: per-child shifting bounds each weight by 1 but a
    whole-DAG product can still be astronomically small when the children's
    best families are mutually cyclic, and the ratios must survive that.
    """
    scores_of = family_scores(data, max_parents)
    tables = []
    for child in range(scores_of.p):
        scores = scores_of.array(child).astype(np.longdouble)
        top = scores.max()
        tables.append(np.where(np.isfinite(scores), np.exp(scores - top),
                               np.longdouble(0.0)))
    return np.stack(tables)


def _bit_halves(values: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the entries along the last axis (indexed by node mask)
    whose mask lacks ``bit`` and of those that have it, aligned so that
    the two entries at one position differ only in that bit."""
    split = values.reshape(*values.shape[:-1], -1, 2, 1 << bit)
    return split[..., 0, :], split[..., 1, :]


def _zeta_transform(values: np.ndarray, p: int) -> np.ndarray:
    """Subset sums along the last axis: out[U] = sum of values over all
    subsets of U."""
    out = values.copy()
    for i in range(p):
        without, with_ = _bit_halves(out, i)
        with_ += without
    return out


def _superset_sums(values: np.ndarray, p: int) -> np.ndarray:
    """Superset sums along the last axis: out[W] = sum of values over all
    supersets of W."""
    out = values.copy()
    for i in range(p):
        without, with_ = _bit_halves(out, i)
        without += with_
    return out


def _sink_blocks(p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every node set R but the full one, in blocks of sets of one size,
    smallest sets first, each R with the nodes outside it in increasing
    order: pairs of arrays (sets, outside) of shapes (n,) and (n, p - |R|)."""
    masks = np.arange(1 << p)
    member = (masks[:, None] >> np.arange(p)) & 1
    size = member.sum(axis=1)
    blocks = []
    for j in range(p):
        sets = masks[size == j]
        outside = np.nonzero(member[sets] == 0)[1].reshape(len(sets), p - j)
        step = max(1, SINK_BLOCK_PAIRS >> (p - j))
        blocks += [(sets[lo:lo + step], outside[lo:lo + step])
                   for lo in range(0, len(sets), step)]
    return blocks


def _sink_terms(acc: np.ndarray, sets: np.ndarray, outside: np.ndarray):
    """The recursion's terms for one block of sets R.

    Indexing each subset t of the nodes outside R by its local mask l
    (bit q stands for ``outside[:, q]``), returns the factors
    -acc[c][R] per outside node, ``prod[:, l]`` = the product of the
    factors in t (1 for l = 0), and ``union[:, l]`` = the mask of R | t.
    Both tables are built by doubling: the entries with bit q set are
    those without it times factor q.
    """
    n, m = outside.shape
    factors = -acc[outside, sets[:, None]]
    prod = np.empty((n, 1 << m), dtype=acc.dtype)
    union = np.empty((n, 1 << m), dtype=np.intp)
    prod[:, 0], union[:, 0] = 1, sets
    for q in range(m):
        h = 1 << q
        np.multiply(prod[:, :h], factors[:, q:q + 1], out=prod[:, h:2 * h])
        np.bitwise_or(union[:, :h], 1 << outside[:, q:q + 1], out=union[:, h:2 * h])
    return factors, prod, union


def _dag_weight_sums(acc: np.ndarray) -> np.ndarray:
    """Total weight of the DAGs over each node set S, as f[S], by
    inclusion-exclusion over sink layers:

        f(S) = sum over nonempty t of S of (-1)^(|t|+1) f(S-t)
               * prod_{c in t} acc[c][S-t],

    where acc[c][U] already sums child c's family weights over parent sets
    inside U.  Every f(R) is final once the sets smaller than R have
    pushed their terms, so each block of sets pushes to all its supersets
    at once.  Computes in the dtype of ``acc``.
    """
    p = acc.shape[0]
    f = np.zeros(1 << p, dtype=acc.dtype)
    f[0] = 1
    for sets, outside in _sink_blocks(p):
        _, prod, union = _sink_terms(acc, sets, outside)
        # (-1)^(|t|+1) prod acc = -prod(-acc)
        np.add.at(f, union[:, 1:], -f[sets, None] * prod[:, 1:])
    return f


def _dag_weight_gradient(acc: np.ndarray, f: np.ndarray) -> np.ndarray:
    """grad[c, U] = d f(full) / d acc[c][U], by one reverse pass over the
    recursion of ``_dag_weight_sums`` (whose table is ``f``).

    Sets are visited largest first, so every superset's adjoint g(S) =
    d f(full) / d f(S) is final before it is read.  The term -f(R) prod[l]
    of f(R | t) gives g(R) the share -g(R | t) prod[l] and prod[l] the
    adjoint -f(R) g(R | t); undoing the doubling that built ``prod`` turns
    the latter into one adjoint per factor, that is per acc[c][R].
    """
    p = acc.shape[0]
    g = np.zeros_like(f)
    g[-1] = 1
    grad = np.zeros_like(acc)
    for sets, outside in reversed(_sink_blocks(p)):
        factors, prod, union = _sink_terms(acc, sets, outside)
        up = -g[union]   # up[:, 0] is -g(R), still 0: l = 0 adds nothing
        g[sets] = (up * prod).sum(axis=1)
        factor_grad = np.empty_like(factors)
        for q in reversed(range(outside.shape[1])):
            h = 1 << q
            factor_grad[:, q] = (up[:, h:2 * h] * prod[:, :h]).sum(axis=1)
            up[:, :h] += up[:, h:2 * h] * factors[:, q:q + 1]
        # factors are -acc; the up values still lack f(R)
        grad[outside, sets[:, None]] = -f[sets, None] * factor_grad
    return grad


def _edge_posteriors(weights: np.ndarray) -> np.ndarray:
    """P(u -> v) for every ordered pair, from per-child family weights
    (child, parent mask); computes in the dtype of ``weights``."""
    p = weights.shape[0]
    acc = _zeta_transform(weights, p)
    f = _dag_weight_sums(acc)
    total = f[-1]
    if not total > 0:
        raise ArithmeticError("posterior mass underflowed; data too extreme")
    # mass[v, W]: the weight of the DAGs in which v's parents are exactly W
    mass = weights * _superset_sums(_dag_weight_gradient(acc, f), p)
    prob = np.empty((p, p), dtype=weights.dtype)
    for u in range(p):
        prob[u] = _bit_halves(mass, u)[1].sum(axis=(-2, -1))
    return (prob / total).astype(float)


@dataclass(frozen=True)
class ArcConfidence:
    """Edge beliefs per ordered pair.

    ``strength[a, b]`` is symmetric: how much support the pair has in
    either orientation.  ``direction[a, b]`` is, conditional on presence,
    the share pointing a -> b; rows with zero strength carry 0.5.
    """

    variables: VariableSet
    strength: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        p = len(self.variables)
        s = np.asarray(self.strength, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        if s.shape != (p, p) or d.shape != (p, p):
            raise ValueError("matrices must be p x p")
        if not np.allclose(s, s.T):
            raise ValueError("strength must be symmetric")
        object.__setattr__(self, "strength", s)
        object.__setattr__(self, "direction", d)

    def pair_strength(self, a: str, b: str) -> float:
        i, j = self.variables.index(a), self.variables.index(b)
        return float(self.strength[i, j])

    def pair_direction(self, a: str, b: str) -> float:
        i, j = self.variables.index(a), self.variables.index(b)
        return float(self.direction[i, j])

    def to_csv(self) -> str:
        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerow(["from", "to", "strength", "direction"])
        names = self.variables.names
        for a in sorted(range(len(names)), key=lambda i: names[i]):
            for b in sorted(range(len(names)), key=lambda i: names[i]):
                if a == b:
                    continue
                writer.writerow([names[a], names[b],
                                 f"{self.strength[a, b]:.6f}",
                                 f"{self.direction[a, b]:.6f}"])
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def _confidence_from_counts(variables: VariableSet, counts: np.ndarray,
                            total: float) -> ArcConfidence:
    either = counts + counts.T
    strength = either / total
    with np.errstate(divide="ignore", invalid="ignore"):
        direction = np.where(either > 0, counts / np.where(either > 0, either, 1.0), 0.5)
    np.fill_diagonal(strength, 0.0)
    np.fill_diagonal(direction, 0.5)
    return ArcConfidence(variables, strength, direction)


def exact_map_edge_probabilities(data: Dataset,
                                 max_parents: int = MAX_EXACT_PARENTS) -> ArcConfidence:
    """Exact edge-inclusion probabilities under a uniform prior over DAGs.

    Family weights are exp of the Gaussian BIC family scores.  The total
    weight f(full) of all labeled DAGs (parent sets capped) comes from the
    sink-layer inclusion-exclusion recursion over node subsets, which
    counts every DAG exactly once, at O(p 3^p) cost.

    Every DAG has exactly one family for each child v, so every term of
    the recursion carries exactly one factor acc[v][U] (v's weights summed
    over parent sets inside U): f(full) is linear in each child's table.
    Hence f(full) = sum_U grad[v][U] acc[v][U], with grad the gradient of
    f(full) in acc[v], and restricting v's families to those holding u
    gives the weight of the DAGs with u -> v as

        sum over W holding u of weights[v][W] * sum over U >= W of grad[v][U].

    One forward pass (f over every subset) and one reverse pass over the
    same recursion (the gradient for every child at once), then a superset
    sum per child, give all p(p-1) edge probabilities for the cost of
    about two passes rather than one pass per ordered pair.
    """
    p = data.rows.shape[1]
    if p > MAX_EXACT_NODES:
        raise SizeLimitError(f"exact averaging limited to {MAX_EXACT_NODES} variables")
    if max_parents > MAX_EXACT_PARENTS:
        raise SizeLimitError(f"max_parents limited to {MAX_EXACT_PARENTS}")
    prob = _edge_posteriors(_family_weight_tables(data, max_parents))
    # already normalized: strength = P(u->v) + P(v->u)
    return _confidence_from_counts(data.variables, prob, 1.0)


def map_dag(data: DataLike, max_parents: int = MAX_EXACT_PARENTS) -> Dag:
    """Globally optimal DAG for the family scores, by best-sink dynamic
    programming over node subsets."""
    p = len(data.variables)
    if p > MAX_EXACT_NODES:
        raise SizeLimitError(f"exact search limited to {MAX_EXACT_NODES} variables")
    scores = family_scores(data, max_parents)
    full = (1 << p) - 1

    # best parent set per child within each candidate set
    best_score = [[-np.inf] * (1 << p) for _ in range(p)]
    best_mask = [[0] * (1 << p) for _ in range(p)]
    for child in range(p):
        child_bit = 1 << child
        bs, bm = best_score[child], best_mask[child]
        row = scores.array(child).tolist()
        for cand in range(1 << p):
            if cand & child_bit:
                continue
            if cand.bit_count() <= max_parents:
                bs[cand] = row[cand]
                bm[cand] = cand
            m = cand
            while m:
                i_bit = m & -m
                m ^= i_bit
                prev = cand ^ i_bit
                if bs[prev] > bs[cand]:
                    bs[cand] = bs[prev]
                    bm[cand] = bm[prev]

    total = [-np.inf] * (1 << p)
    sink = [-1] * (1 << p)
    total[0] = 0.0
    for s in range(1, 1 << p):
        m = s
        while m:
            c_bit = m & -m
            m ^= c_bit
            c = c_bit.bit_length() - 1
            value = total[s ^ c_bit] + best_score[c][s ^ c_bit]
            if value > total[s]:
                total[s] = value
                sink[s] = c
    edges = set()
    s = full
    while s:
        c = sink[s]
        s ^= 1 << c
        edges.update((u, c) for u in _bits(best_mask[c][s]))
    return Dag(data.variables, frozenset(edges))


# ---------------------------------------------------------------------------
# bootstrap model averaging


@dataclass(frozen=True)
class ScoreLearner:
    """A bootstrap learner: a search that reads the data only through
    family scores within ``max_parents``.

    ``search(sample, scores, seed)`` gets one resample's rows and its slice
    of the family-score table that ``bootstrap_average`` scores for every
    resample at once.
    """

    max_parents: int
    search: Callable[[DataLike, FamilyScores, np.random.SeedSequence], Dag]


def hc_learner(cfg: HcConfig) -> ScoreLearner:
    return ScoreLearner(cfg.max_parents,
                        lambda data, scores, seed: hill_climb(scores, cfg, seed=seed))


def hybrid_learner(cfg: HcConfig, restrict: str = "gs",
                   alpha: float = 0.05) -> ScoreLearner:
    def search(data: Dataset, scores: FamilyScores, seed) -> Dag:
        return hill_climb(scores, cfg, restrict=_restrict_pairs(data, restrict, alpha),
                          seed=seed)
    return ScoreLearner(cfg.max_parents, search)


def map_learner(max_parents: int = MAX_EXACT_PARENTS) -> ScoreLearner:
    return ScoreLearner(max_parents,
                        lambda data, scores, seed: map_dag(scores, max_parents))


def bootstrap_average(data: DataLike, learner: ScoreLearner, boot_samples: int,
                      seed: int = 0) -> ArcConfidence:
    """Arc strengths and directions over structures learned on resamples.

    Each resample draws n rows with replacement under its own counter-split
    seed, so the tabulation is identical however the work is scheduled.  The
    learner reads one family-score table scored for every resample
    together.
    """
    if boot_samples < 1:
        raise ValueError("boot_samples must be >= 1")
    p = len(data.variables)
    counts = np.zeros((p, p))
    n = data.n
    resamples = np.stack([rng_from(split_seed(seed, 1, i)).integers(0, n, size=n)
                          for i in range(boot_samples)])
    table = FamilyScoreTable(_scorer(data, learner.max_parents, resamples),
                             data.variables)
    for i, idx in enumerate(resamples):
        learned = learner.search(data.take_rows(idx), FamilyScores(table, i),
                                 split_seed(seed, 2, i))
        for u, v in learned.edges:
            counts[u, v] += 1.0
    return _confidence_from_counts(data.variables, counts, float(boot_samples))


@dataclass(frozen=True)
class AveragedNetwork:
    """Thresholded consensus DAG with the confidence table it came from."""

    dag: Dag
    threshold: float
    source: ArcConfidence
    flipped: frozenset[tuple[int, int]] = field(default_factory=frozenset)


def averaged_network(conf: ArcConfidence, threshold: float,
                     strict: bool = False) -> AveragedNetwork:
    """Keep pairs at or above the strength threshold, oriented by majority
    direction; edges that would close a cycle get flipped, weakest
    orientation first.

    Pairs are inserted in decreasing order of orientation confidence, so
    any flip needed to stay acyclic lands on the pair whose direction was
    closest to a coin toss.  For any pair at most one orientation can close
    a cycle, hence the result is always a DAG.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0,1]")
    p = len(conf.variables)
    kept = []
    for a in range(p):
        for b in range(a + 1, p):
            s = conf.strength[a, b]
            if (s > threshold) if strict else (s >= threshold):
                if s <= 0:
                    continue
                d = conf.direction[a, b]
                u, v = (a, b) if d >= 0.5 else (b, a)
                confidence = max(d, 1.0 - d)
                kept.append((confidence, conf.strength[a, b], u, v))
    kept.sort(key=lambda item: (-item[0], -item[1], item[2], item[3]))

    parents = [0] * p
    flipped = set()
    for _, _, u, v in kept:
        if _ancestors(parents)[u] & 1 << v:   # v reaches u: flip the pair
            flipped.add((u, v))
            u, v = v, u
        parents[v] |= 1 << u
    return AveragedNetwork(_to_dag(parents, conf.variables), threshold, conf,
                           frozenset(flipped))

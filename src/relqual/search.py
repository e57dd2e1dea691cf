"""Structure learning: greedy score search, hybrid restricts, exact
posterior averaging, and bootstrap arc confidence.

Every search reads one family-score table: the BIC of each (child, parent
set) within the parent cap, for one dataset or for all bootstrap resamples
of it at once, scored in batches across resamples.  Greedy search climbs
every (resample, restart) pair at once, each a lane of numpy bitmask
arrays: a step derives the legal moves of all lanes from their parent,
child and ancestor masks, gathers the moves' gains from the table, and
picks one move per lane by the first-strictly-best rule of a serial scan.
The random starts are lanes too: every (resample, restart) start takes
its perturbing moves at once, each resample's generator draws one block
of raw values, and each lane replays numpy's bounded draws from its own
position in that block.  All randomness flows through counter-split
seeds; results do not depend on scheduling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .dag import CycleError, Dag, SizeLimitError, VariableSet, add_edge_checked
from .data import Dataset, DiscreteDataset, mask_members
from .discretize import DiscreteScoreCache
from .gaussian import GaussianScoreCache
from .rng import RawDraws, replay_integers, rng_from, split_seed

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
# scores each family on its first read, with the same arithmetic: greedy
# search reads far fewer families than the cap allows, one step of all
# its lanes at a time, and the exact searches read whole rows
# (``FamilyScoreTable.read_rows``), at most this many scores at once.
DENSE_TABLE_ENTRIES = 1 << 20


def _table(data: DataLike, max_parents: int,
           resamples: np.ndarray | None = None) -> FamilyScoreTable:
    """The family-score table of one dataset, or of its ``resamples``."""
    cache = DiscreteScoreCache if isinstance(data, DiscreteDataset) else GaussianScoreCache
    return FamilyScoreTable(cache(data, max_parents, resamples), data.variables)


def _first_best(top: np.ndarray, pick: np.ndarray, candidates,
                margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """A serial scan, elementwise: over (value, choice) candidates in
    order, ``top`` and ``pick`` move to a candidate only where it beats the
    best so far by more than ``margin``, so the first best wins."""
    for value, choice in candidates:
        better = value > top + margin
        top, pick = np.where(better, value, top), np.where(better, choice, pick)
    return top, pick


class FamilyScoreTable:
    """Family scores of one dataset, or of each of its bootstrap resamples.

    A dense table holds the scorer's ``fill`` of every sample; a lazy one
    scores each family on its first read, and fills the rows that
    ``read_rows`` asks for on each read.  A family whose score raises
    (singular parent covariance, degenerate residual variance, too few
    rows) is marked NaN, and raises, through the scorer's
    ``family_score``, only when a search reads it.
    """

    def __init__(self, scorer, variables: VariableSet):
        self.scorer = scorer
        self.variables = variables
        self.p = scorer.p
        self.max_parents = scorer.max_parents
        self.samples = scorer.samples
        self.values = None   # (sample, child, parent mask), when dense
        self._scored = {}    # (sample, child, parent mask) -> score, otherwise
        entries = scorer.samples * self.p << self.p
        if scorer.samples > 1 and entries <= DENSE_TABLE_ENTRIES:
            # the values, flat after one -inf that stands for unwanted reads
            self._store = np.concatenate([[-np.inf], scorer.fill(slice(None)).ravel()])
            self.values = self._store[1:].reshape(scorer.samples, self.p, 1 << self.p)

    def read(self, samples: np.ndarray, children: np.ndarray, masks: np.ndarray,
             wanted: np.ndarray) -> np.ndarray:
        """Scores of the families (sample, child, parent mask), given as
        int arrays that broadcast to the shape of ``wanted``: -inf where
        ``wanted`` is false, NaN where the family is marked.  A table that
        is not dense scores each family on its first read, batched per
        (sample, child, parent count)."""
        if self.values is not None:
            first = ((samples * self.p + children) << self.p) + 1
            return self._store.take((first + masks) * wanted)
        out = np.full(wanted.shape, -np.inf)
        at = np.nonzero(wanted)
        keys = list(zip(*(np.broadcast_to(a, wanted.shape)[at].tolist()
                          for a in (samples, children, masks))))
        missing: dict[tuple[int, int, int], list[int]] = {}
        for key in dict.fromkeys(keys):
            if key not in self._scored:
                sample, child, mask = key
                missing.setdefault((sample, child, mask.bit_count()), []).append(mask)
        for (sample, child, _), group in missing.items():
            scores, _ = self.scorer.family_scores(child, mask_members(group, self.p),
                                                  slice(sample, sample + 1))
            self._scored.update(zip(((sample, child, mask) for mask in group),
                                    scores[0].tolist()))
        out[at] = [self._scored[key] for key in keys]
        return out

    def read_rows(self, samples: slice) -> np.ndarray:
        """Every family's score in the ``samples``, as (sample, child,
        parent mask), -inf outside the cap; raises the error of the first
        marked family in that order.  A table that is not dense scores the
        rows on each read, batched per child and parent count."""
        values = self.scorer.fill(samples) if self.values is None else self.values[samples]
        marked = np.flatnonzero(np.isnan(values))
        if marked.size:
            sample, child, mask = np.unravel_index(marked[0], values.shape)
            self.scorer.family_score(int(child), int(mask), range(self.samples)[samples][sample])
        return values


def _check_cap(table: FamilyScoreTable, max_parents: int) -> None:
    if table.max_parents < min(max_parents, table.p - 1):
        raise ValueError("family-score table was built for fewer parents")


# ---------------------------------------------------------------------------
# greedy search in lanes
#
# Every climb is one lane: a column of (p, lanes) int64 parent and child
# bitmasks, node by node, so that each array operation runs along the
# lanes.  One step of all lanes at once derives the legal moves from the
# masks, reads each legal move's new family from the table and picks a
# move per lane by the serial rule; lanes that stop improving leave.

# parent sets are int64 bitmasks whose bits must stay clear of the sign
MAX_GREEDY_NODES = 63


def _ancestors(parents: np.ndarray) -> np.ndarray:
    """Each node's ancestor masks, from its (p, lanes) parent masks."""
    anc = parents.copy()
    for k in range(len(parents)):   # Warshall's closure: -1 is all bits, 0 none
        anc |= -((anc >> k) & 1) & anc[k]
    return anc


def _move_flags(parents: np.ndarray, children: np.ndarray, allow: np.ndarray,
                max_parents: int) -> np.ndarray:
    """Which moves are legal in each lane, as (p, p, 2, lanes) flags.

    ``[u, v, 0, l]`` deletes u -> v when it is an edge and adds it
    otherwise; ``[u, v, 1, l]`` reverses it.  Flattened over the first
    three axes, the flags run in the order the serial scan visited moves:
    by u, then v, delete before reverse.  An add must keep v's parents
    within the cap, respect ``allow`` and close no cycle (v is not an
    ancestor of u); a reverse must keep u's parents within the cap and
    leave no other path from u to v, i.e. no other child of u is an
    ancestor of v.
    """
    p = len(parents)
    bits = (np.int64(1) << np.arange(p))[:, None]
    anc = _ancestors(parents)
    room = np.bitwise_count(parents) < max_parents
    adds = allow & (room * bits).sum(axis=0) & ~(children | anc | bits)
    flags = np.empty((p, p, 2, parents.shape[1]), dtype=bool)
    flags[:, :, 0] = (children | adds)[:, None] & bits != 0
    # v is not its own ancestor: a child of u among them is another child
    movable = np.where(room, children, 0)[:, None]
    flags[:, :, 1] = (movable & bits != 0) > (movable & anc != 0)
    return flags


def _apply_moves(parents: np.ndarray, children: np.ndarray, lanes: np.ndarray,
                 moves: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply one move per lane (a flat index into ``_move_flags``) in
    place; returns its (u, v, reverse)."""
    pair, reverse = np.divmod(moves, 2)
    u, v = np.divmod(pair, len(parents))
    bu, bv = np.int64(1) << u, np.int64(1) << v
    parents[v, lanes] ^= bu
    children[u, lanes] ^= bv
    reverse = reverse == 1
    parents[u[reverse], lanes[reverse]] |= bv[reverse]
    children[v[reverse], lanes[reverse]] |= bu[reverse]
    return u, v, reverse


def _perturbed_starts(allow: np.ndarray, cfg: HcConfig,
                      rngs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parents and children, (p, samples, restarts - 1), of every perturbed
    start: the empty graph after up to ``cfg.perturb`` random legal moves;
    and the raw draws each sample's generator used.

    Scores are never read.  The serial search drew, per sample, one
    ``integers(count)`` per move from the sample's generator, restart
    after restart, a restart with no legal move left stopping early.  Here
    every (sample, restart) is a lane, each generator draws one block of
    raw draws, and each lane replays its ``integers`` calls
    (``rng.replay_integers``) from its own base position in the block.

    A lane's base is the sum of the draws its sample's earlier restarts
    used.  It is guessed as restart * perturb, which is exact unless a
    draw is rejected (below 1e-7 per draw at p = 6): a sample that allows
    any pair has at least two legal moves at every step (two adds, or a
    delete and the reverse of a lone edge), so each of its restarts draws
    once per move, and one that allows none draws nothing (base 0).  After
    a pass the bases are recomputed from the draws the lanes used, and the
    lanes whose base moved run again until none does; restart r's base is
    right after r passes at the latest.

    The replay holds as long as numpy's ``Generator.integers`` keeps its
    algorithm (see relqual.rng).
    """
    p, samples = allow.shape
    restarts, moves = cfg.restarts - 1, cfg.perturb
    lanes = samples * restarts
    parents = np.zeros((p, lanes), dtype=np.int64)
    children = np.zeros_like(parents)
    used = np.zeros(lanes, dtype=np.int64)
    if lanes and moves:
        raw = RawDraws(rngs, restarts * moves)
        sample = np.repeat(np.arange(samples), restarts)
        pairs = (allow & ~(np.int64(1) << np.arange(p))[:, None]).any(axis=0)
        base = np.where(pairs[sample], np.tile(np.arange(restarts) * moves, samples), 0)
        todo = np.arange(lanes)
        while todo.size:
            par = np.zeros((p, todo.size), dtype=np.int64)
            chi = np.zeros_like(par)
            lane_allow, lane_sample, at = allow[:, sample[todo]], sample[todo], base[todo]
            live = np.arange(todo.size)
            for _ in range(moves):
                flags = _move_flags(par[:, live], chi[:, live], lane_allow[:, live],
                                    cfg.max_parents).reshape(-1, live.size)
                counts = flags.sum(axis=0)
                live, flags, counts = live[counts > 0], flags[:, counts > 0], counts[counts > 0]
                if not live.size:
                    break
                picks, at[live] = replay_integers(raw, lane_sample[live], at[live], counts)
                # the legal moves lane by lane, as flat (lane, move) indices:
                # each lane's k-th sits at its offset
                legal = np.flatnonzero(flags.T)[np.cumsum(counts) - counts + picks]
                _apply_moves(par, chi, live, legal % len(flags))
            parents[:, todo], children[:, todo] = par, chi
            used[todo] = at - base[todo]
            per_sample = used.reshape(samples, restarts)
            moved = (np.cumsum(per_sample, axis=1) - per_sample).ravel()
            todo, base = np.flatnonzero(moved != base), moved
    shape = (p, samples, restarts)
    return (parents.reshape(shape), children.reshape(shape),
            used.reshape(samples, restarts).sum(axis=1))


def _ascend(table: FamilyScoreTable, sample: np.ndarray, parents: np.ndarray,
            children: np.ndarray, allow: np.ndarray, max_parents: int):
    """Greedy ascent of every lane at once, in place.

    Returns each lane's final total score, and (lane, child, mask) of the
    first marked family read by the lowest lane that read one, or None.
    Lanes above that lane stop: the serial search raises before it would
    reach them.  Only the families of legal moves are read, as the serial
    scan read them.

    A lane moves as the serial scan did: it visits the legal moves in
    ``_move_flags`` order and takes one only when it beats the best so far
    by more than 1e-12.  The moves within 1e-12 of a lane's best form its
    group; when the group's lowest gain beats every other move by more
    than 1e-12, the scan provably takes the group's first move.  The other
    lanes replay the scan, one move at a time across lanes.
    """
    p, lanes = parents.shape
    current = np.empty((p, lanes))   # each lane's family scores
    failure = None
    live = np.arange(lanes)
    for v in range(p):   # the starting score reads families in child order
        current[v, live] = table.read(sample[live], v, parents[v, live],
                                      np.ones(live.size, dtype=bool))
        marked = np.isnan(current[v, live])
        if marked.any():
            first = live[marked][0]
            failure = (first, v, int(parents[v, first]))
            live = live[~marked & (live < first)]
    scores = current[0].copy()
    for v in range(1, p):
        scores += current[v]

    nodes = np.arange(p)
    bits = np.int64(1) << nodes
    while live.size:
        par, cur = parents[:, live], current[:, live]
        flags = _move_flags(par, children[:, live], allow[:, live], max_parents)
        # [u, v, l]: v's family with u toggled, and u's family with v added
        new_v = table.read(sample[live], nodes[:, None], par ^ bits[:, None, None],
                           flags[:, :, 0])
        new_u = table.read(sample[live], nodes[:, None, None],
                           par[:, None] | bits[:, None], flags[:, :, 1])
        delta = np.empty(flags.shape)
        np.subtract(new_v, cur, out=delta[:, :, 0])
        np.add(delta[:, :, 0], new_u, out=delta[:, :, 1])
        np.subtract(delta[:, :, 1], cur[:, None], out=delta[:, :, 1])
        delta = delta.reshape(-1, live.size)   # -inf at illegal moves
        top = delta.max(axis=0)   # NaN where a marked family was read

        marked = np.isnan(top)
        if marked.any():
            lane = int(np.argmax(marked))
            pair, slot = divmod(int(np.argmax(np.isnan(delta[:, lane]))), 2)
            u, v = divmod(pair, p)
            child, mask = (v, par[v, lane] ^ bits[u]) if slot == 0 else \
                (u, par[u, lane] | bits[v])
            failure = (live[lane], child, int(mask))
            top[lane:] = -np.inf   # this lane and those above it stop

        moving = top > 1e-12   # the other lanes are done
        live, top, delta = live[moving], top[moving], delta[:, moving]
        new_v, new_u = new_v[..., moving], new_u[..., moving]
        near = delta + 1e-12 >= top
        move = near.argmax(axis=0)
        lanes_at = np.arange(live.size)
        gain = delta[move, lanes_at]
        low = np.where(near, delta, np.inf).min(axis=0)
        rest = np.where(near, -np.inf, delta).max(axis=0)
        scan = np.flatnonzero(~(low > 1e-12) | ~(low > rest + 1e-12))
        if scan.size:
            candidates = delta[:, scan]
            gain[scan], move[scan] = _first_best(
                np.zeros(scan.size), np.full(scan.size, -1),
                ((candidates[c], c) for c in np.flatnonzero((candidates > 1e-12).any(axis=1))),
                1e-12)

        u, v, reverse = _apply_moves(parents, children, live, move)
        current[v, live] = new_v[u, v, lanes_at]
        current[u[reverse], live[reverse]] = \
            new_u[u[reverse], v[reverse], lanes_at[reverse]]
        scores[live] += gain
    return scores, failure


def _allow_masks(p: int, restrict: frozenset[tuple[int, int]] | None) -> np.ndarray:
    """Per node, the bitmask of nodes it may share an edge with; a pair
    allows the edge either way, in whichever order it names its nodes."""
    if restrict is None:
        return np.full(p, (1 << p) - 1, dtype=np.int64)
    allow = [0] * p
    for a, b in restrict:
        if a == b or not (0 <= a < p and 0 <= b < p):
            raise ValueError(f"restrict pair {(a, b)} is not two distinct nodes of {p}")
        allow[a] |= 1 << b
        allow[b] |= 1 << a
    return np.array(allow, dtype=np.int64)


def _search(table: FamilyScoreTable, samples: list[int], cfg: HcConfig,
            restricts: list[frozenset[tuple[int, int]] | None],
            seeds: list) -> np.ndarray:
    """Random-restart greedy search of each sample, all climbs at once as
    lanes (sample, restart) in that order; (p, samples) parent masks."""
    p, restarts = table.p, cfg.restarts
    if p > MAX_GREEDY_NODES:
        raise SizeLimitError(f"greedy search limited to {MAX_GREEDY_NODES} variables")
    allow = np.stack([_allow_masks(p, r) for r in restricts], axis=1)
    parents = np.zeros((p, len(samples), restarts), dtype=np.int64)
    children = np.zeros_like(parents)
    rngs = [rng_from(s) for s in seeds]
    # a caller's generator ends where the serial draws left it
    states = {i: rng.bit_generator.state for i, rng in enumerate(rngs) if rng is seeds[i]}
    parents[..., 1:], children[..., 1:], used = _perturbed_starts(allow, cfg, rngs)
    for i, state in states.items():
        rngs[i].bit_generator.state = state
        rngs[i].integers(0, 2**32, size=used[i], dtype=np.uint32)
    parents, children = parents.reshape(p, -1), children.reshape(p, -1)
    sample = np.repeat(np.asarray(samples, dtype=np.intp), restarts)
    scores, failure = _ascend(table, sample, parents, children,
                              np.repeat(allow, restarts, axis=1), cfg.max_parents)
    if failure is not None:
        lane, child, mask = failure
        table.scorer.family_score(child, mask, int(sample[lane]))
    # the restart with the highest final score wins, earliest on ties
    scores = scores.reshape(-1, restarts)
    _, pick = _first_best(scores[:, 0], np.zeros(len(samples), dtype=np.intp),
                          ((scores[:, r], r) for r in range(1, restarts)), 1e-12)
    return parents.reshape(p, -1, restarts)[:, np.arange(len(samples)), pick]


def _dag(variables: VariableSet, parents: np.ndarray) -> Dag:
    """The DAG of one dataset's (p, 1) parent masks."""
    v, u = np.nonzero(parents[:, :1] >> np.arange(len(parents)) & 1)
    return Dag(variables, frozenset(zip(u.tolist(), v.tolist())))


def hill_climb(data: DataLike | FamilyScoreTable, cfg: HcConfig,
               restrict: frozenset[tuple[int, int]] | list | None = None,
               seed=None) -> Dag | np.ndarray:
    """Best DAG over random-restart greedy search.

    Each restart perturbs the empty graph with random legal edge operations
    and then repeatedly applies the single add / delete / reverse move with
    the largest positive score gain.  Every move's gain is read from the
    family-score table of ``data`` (built here for a dataset); an add or
    reverse is legal when each node's ancestor bitmask says it closes no
    cycle.  The restart with the highest final score wins, earliest restart
    on ties.  ``restrict``, when given, holds the node pairs, in either
    order, that an edge may join.

    Given a whole table, every sample that ``seed`` (one seed per sample,
    from the first, at most the table's sample count) covers climbs at
    once, ``restrict`` is None or a list of one pair set (or None) per
    seed, and the result is (p, seeds) int64 parent masks, bit u of
    ``[v, s]`` the edge u -> v.  A seed that is a ``Generator`` ends where
    the serial draws of its sample's restarts would leave it.
    """
    if isinstance(data, FamilyScoreTable):
        _check_cap(data, cfg.max_parents)
        if seed is None:
            raise ValueError(f"a table of {data.samples} samples needs one seed per "
                             "sample to climb; got seed=None")
        if len(seed) > data.samples:
            raise ValueError(f"{len(seed)} seeds for a table of {data.samples} samples")
        generators = [s for s in seed if isinstance(s, np.random.Generator)]
        if len(set(map(id, generators))) < len(generators):
            raise ValueError("a Generator appears more than once among the seeds; "
                             "each sample draws from its own")
        restricts = [None] * len(seed) if restrict is None else restrict
        if not isinstance(restricts, (list, tuple)) or not all(
                r is None or isinstance(r, (set, frozenset))
                and all(isinstance(t, tuple) and len(t) == 2 for t in r) for r in restricts):
            raise ValueError("a table takes one pair set (or None) per seed as restrict")
        if len(restricts) != len(seed):
            raise ValueError(f"{len(restricts)} restricts for {len(seed)} seeds")
        return _search(data, list(range(len(seed))), cfg, restricts, seed)
    seed = split_seed(cfg.seed, 0) if seed is None else seed
    return _dag(data.variables,
                _search(_table(data, cfg.max_parents), [0], cfg, [restrict], [seed]))


# ---------------------------------------------------------------------------
# conditional-independence restricts


def _partial_correlation(corr: np.ndarray, x: int, y: int,
                         given: tuple[int, ...]) -> float:
    if not given:
        return float(np.clip(corr[x, y], -1.0, 1.0))
    s, xy = list(given), [x, y]
    rows, pair = corr.take(s, 0), corr.take(xy, 0)   # np.ix_ costs three times more
    try:
        solved = np.linalg.solve(rows.take(s, 1), rows.take(xy, 1))
    except np.linalg.LinAlgError:
        raise SingularCorrelationError(
            f"correlation submatrix for {s} is singular") from None
    residual = pair.take(xy, 1) - pair.take(s, 1) @ solved
    var_x, var_y = residual[0, 0], residual[1, 1]
    if var_x <= 1e-15 or var_y <= 1e-15:
        # x or y fully explained by the conditioning set
        return 0.0
    return float(np.clip(residual[0, 1] / np.sqrt(var_x * var_y), -1.0, 1.0))


def _fisher_z_pvalue(corr: np.ndarray, n: int, x: int, y: int,
                     given: tuple[int, ...]) -> float:
    from scipy import special   # on first use, as in ols.t_sf_two_sided

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


def _symmetric_pairs(data: Dataset, alpha: float,
                     neighbours: Callable[[np.ndarray, int, int, int, float], set[int]]
                     ) -> frozenset[tuple[int, int]]:
    """The (lower, higher) pairs in which each node is among the other's
    ``neighbours(corr, n, target, p, alpha)``, tested on the correlations
    of ``data``."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0,1)")
    corr = np.corrcoef(data.rows, rowvar=False)
    p = data.rows.shape[1]
    sets = [neighbours(corr, data.n, t, p, alpha) for t in range(p)]
    return frozenset((a, b) for a in range(p) for b in range(a + 1, p)
                     if b in sets[a] and a in sets[b])


def restrict_gs(data: Dataset, alpha: float = 0.05) -> frozenset[tuple[int, int]]:
    """Pairs allowed by per-node Grow-Shrink blanket estimation.

    Tests are Fisher-z on partial correlations; a pair survives only when
    each node lands in the other's blanket (symmetry in both directions).
    """
    return _symmetric_pairs(data, alpha, _grow_shrink_blanket)


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
    return _symmetric_pairs(data, alpha, _mmpc_parents_children)


def _restrict_pairs(data: Dataset, restrict: str,
                    alpha: float) -> frozenset[tuple[int, int]]:
    if restrict == "gs":
        return restrict_gs(data, alpha)
    if restrict == "mmpc":
        return restrict_mmpc(data, alpha)
    raise ValueError("restrict must be 'gs' or 'mmpc'")


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


def _bit_halves(values: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the entries along the last axis (indexed by node mask)
    whose mask lacks ``bit`` and of those that have it, aligned so that
    the two entries at one position differ only in that bit."""
    split = values.reshape(*values.shape[:-1], -1, 2, 1 << bit)
    return split[..., 0, :], split[..., 1, :]


def _zeta_transform(values: np.ndarray, p: int, op) -> np.ndarray:
    """Subset folds along the last axis: out[U] = the ufunc ``op`` folded
    over the values of all subsets of U."""
    out = values.copy()
    for i in range(p):
        without, with_ = _bit_halves(out, i)
        op(with_, without, out=with_)
    return out


def _layers(p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every node set, one layer per size k, smallest first: the sets in
    increasing mask order and their members in increasing order, as arrays
    (n,) and (n, k)."""
    masks = np.arange(1 << p)
    layers = []
    for k in range(p + 1):
        sets = masks[np.bitwise_count(masks) == k]
        layers.append((sets, mask_members(sets, p)))
    return layers


def _sink_blocks(p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every node set R but the full one, in blocks of sets of one size,
    smallest sets first, each R with the nodes outside it in increasing
    order: pairs of arrays (sets, outside) of shapes (n,) and (n, p - |R|)."""
    layers = _layers(p)
    blocks = []
    for k, (sets, _) in enumerate(layers[:p]):
        # layer p - k holds the complements of layer k, in reverse order
        outside = layers[p - k][1][::-1]
        step = max(1, SINK_BLOCK_PAIRS >> (p - k))
        blocks += [(sets[lo:lo + step], outside[lo:lo + step])
                   for lo in range(0, len(sets), step)]
    return blocks


def _sink_tables(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From log family weights (child, parent mask): the logs of acc[c][U]
    and best[c][U], the sum and the largest of child c's weights over
    parent sets inside U, and of M(S), the weight of the best DAG over each
    node set S, by M(S) = max over s in S of M(S - s) best[s][S - s]."""
    p = scores.shape[0]
    log_best = _zeta_transform(scores, p, np.maximum)
    log_top = np.zeros(1 << p)
    for sets, members in _layers(p)[1:]:
        rest = sets[:, None] ^ 1 << members
        log_top[sets] = (log_top[rest] + log_best[members, rest]).max(axis=1)
    return _zeta_transform(scores, p, np.logaddexp), log_best, log_top


@np.errstate(invalid="ignore")
def _sink_terms(tables, sets: np.ndarray, outside: np.ndarray):
    """The scaled recursion's terms for one block of sets R.

    Indexing each subset t of the nodes outside R by its local mask l
    (bit q stands for ``outside[:, q]``), returns the factors
    -acc[c][R] / best[c][R] per outside node, in [-2^|R|, -1]; ``prod[:, l]``,
    the product of the factors in t; ``union[:, l]``, the mask of R | t; and
    ``scale[:, l]`` = M(R) prod_{c in t} best[c][R] / M(R | t), at most 1
    since t added to R as sinks is a DAG over R | t.  All are built by
    doubling over q.  A child with no positive weight inside R has factor
    -1 and scale 0; a set with no positive-weight DAG has scale 0 into every
    set that has one.
    """
    log_acc, log_best, log_top = tables
    n, m = outside.shape
    child_best = log_best[outside, sets[:, None]]
    factors = -np.exp(np.fmax(log_acc[outside, sets[:, None]] - child_best, 0))
    prod = np.empty((n, 1 << m))
    log_scale = np.empty((n, 1 << m))
    union = np.empty((n, 1 << m), dtype=np.intp)
    prod[:, 0], log_scale[:, 0], union[:, 0] = 1, log_top[sets], sets
    for q in range(m):
        h = 1 << q
        np.multiply(prod[:, :h], factors[:, q:q + 1], out=prod[:, h:2 * h])
        np.add(log_scale[:, :h], child_best[:, q:q + 1], out=log_scale[:, h:2 * h])
        np.bitwise_or(union[:, :h], 1 << outside[:, q:q + 1], out=union[:, h:2 * h])
    scale = np.exp(np.fmin(log_scale - log_top[union], 0))
    return factors, prod, union, scale


def _dag_weight_sums(tables) -> np.ndarray:
    """F(S) = f(S) / M(S) for every node set S, where f(S), the total
    weight of the DAGs over S, follows inclusion-exclusion over sink layers:

        f(S) = sum over nonempty t of S of (-1)^(|t|+1) f(S-t)
               * prod_{c in t} acc[c][S-t].

    Divided by M(S), each term is -F(S-t) scale prod (``_sink_terms``), so
    none can underflow.  Every F(R) is final once the sets smaller than R
    have pushed their terms, so each block of sets pushes to all its
    supersets at once.
    """
    p = tables[0].shape[0]
    f = np.zeros(1 << p)
    f[0] = 1
    for sets, outside in _sink_blocks(p):
        _, prod, union, scale = _sink_terms(tables, sets, outside)
        np.add.at(f, union[:, 1:], -f[sets, None] * (prod * scale)[:, 1:])
    return f


def _dag_weight_shares(tables, f: np.ndarray) -> np.ndarray:
    """share[c, U] = acc[c][U] (d f(full) / d acc[c][U]) / f(full), by one
    reverse pass over the recursion of ``_dag_weight_sums`` (table ``f``);
    f(full) is linear in each acc[c], so each row sums to 1.

    Sets are visited largest first, so that every superset's scaled adjoint
    g(S) = (d f(full) / d f(S)) M(S) / M(full) is final before it is read.
    The term -F(R) scale prod[l] of F(R | t) gives g(R) the share -g(R | t)
    scale prod[l] and prod[l] the adjoint -F(R) g(R | t) scale; undoing the
    doubling that built ``prod`` turns the latter into one adjoint per
    factor, that is per acc[c][R].
    """
    p = tables[0].shape[0]
    g = np.zeros_like(f)
    g[-1] = 1
    share = np.zeros((p, 1 << p))
    for sets, outside in reversed(_sink_blocks(p)):
        factors, prod, union, scale = _sink_terms(tables, sets, outside)
        up = -g[union] * scale   # up[:, 0] is -g(R), still 0: l = 0 adds nothing
        g[sets] = (up * prod).sum(axis=1)
        factor_grad = np.empty_like(factors)
        for q in reversed(range(outside.shape[1])):
            h = 1 << q
            factor_grad[:, q] = (up[:, h:2 * h] * prod[:, :h]).sum(axis=1)
            up[:, :h] += up[:, h:2 * h] * factors[:, q:q + 1]
        # the up values still lack F(R)
        share[outside, sets[:, None]] = f[sets, None] * factors * factor_grad
    return share / f[-1]


@np.errstate(invalid="ignore")
def _edge_posteriors(scores: np.ndarray) -> np.ndarray:
    """P(u -> v) for every ordered pair, from per-child log family weights
    (child, parent mask), -inf where a family is left out."""
    p = scores.shape[0]
    tables = _sink_tables(scores)
    log_acc, _, log_top = tables
    if not np.isfinite(log_top[-1]):
        raise ArithmeticError("no DAG has positive weight")
    share = _dag_weight_shares(tables, _dag_weight_sums(tables))
    prob = np.empty((p, p))
    for u in range(p):
        lacks, has = _bit_halves(log_acc, u)
        # the fraction of acc[v][U] held by parent sets that contain u
        held = -np.expm1(np.fmin(lacks - has, 0))
        prob[u] = (_bit_halves(share, u)[1] * held).sum(axis=(-2, -1))
    return prob


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
    counts every DAG exactly once, at O(p 3^p) cost (Koivisto & Sood, JMLR
    2004; Tian & He, UAI 2009).  Each set's sum is carried divided by the
    weight of its best DAG, in float64 from the log scores, so that no term
    underflows however far apart the scores lie.

    Every DAG has exactly one family for each child v, so f(full) is linear
    in acc[v][U], v's weights summed over parent sets inside U.  One reverse
    pass over the recursion gives each acc[v][U]'s share of f(full), for
    all children at once.  The DAGs with u -> v take from that share the
    fraction of acc[v][U] held by parent sets that contain u,
    1 - acc[v][U - u] / acc[v][U], so all p(p-1) edge probabilities cost
    about two passes rather than one pass per ordered pair.
    """
    p = data.rows.shape[1]
    if p > MAX_EXACT_NODES:
        raise SizeLimitError(f"exact averaging limited to {MAX_EXACT_NODES} variables")
    if max_parents > MAX_EXACT_PARENTS:
        raise SizeLimitError(f"max_parents limited to {MAX_EXACT_PARENTS}")
    prob = _edge_posteriors(_table(data, max_parents).read_rows(slice(None))[0])
    # already normalized: strength = P(u->v) + P(v->u)
    return _confidence_from_counts(data.variables, prob, 1.0)


def map_dag(data: DataLike | FamilyScoreTable,
            max_parents: int = MAX_EXACT_PARENTS) -> Dag | np.ndarray:
    """Globally optimal DAG for the family scores, by best-sink dynamic
    programming over node subsets (Silander & Myllymaki, UAI 2006).

    Both passes visit the node sets one size at a time, every sample at
    once.  Each child's best family within a set is the set's own family
    (within the cap) or the best within a one-smaller set, in increasing
    order of the member left out; each set's sink is its first best
    member; the first maximum wins both.

    Given a whole table, the result is each sample's DAG as (p, samples)
    int64 parent masks, its rows read ``DENSE_TABLE_ENTRIES`` at a time.
    """
    p = len(data.variables)
    if p > MAX_EXACT_NODES:
        raise SizeLimitError(f"exact search limited to {MAX_EXACT_NODES} variables")
    table = data if isinstance(data, FamilyScoreTable) else _table(data, max_parents)
    _check_cap(table, max_parents)
    # per set size: the sets, their members, and each set less each member
    layers = [(sets, members.T, (sets[:, None] ^ 1 << members).T)
              for sets, members in _layers(p)[1:]]
    capped = np.bitwise_count(np.arange(1 << p)) > max_parents
    step = max(1, DENSE_TABLE_ENTRIES // (p << p))
    parents = np.zeros((p, table.samples), dtype=np.int64)
    for lo in range(0, table.samples, step):
        best = np.where(capped, -np.inf, table.read_rows(slice(lo, lo + step)))
        family = np.broadcast_to(np.arange(1 << p), best.shape).copy()
        for sets, _, smaller in layers:
            best[..., sets], family[..., sets] = _first_best(
                best[..., sets], family[..., sets],
                ((best[..., prev], family[..., prev]) for prev in smaller))
        samples = np.arange(len(best))
        total = np.zeros((len(best), 1 << p))
        sink = np.zeros(total.shape, dtype=np.intp)
        for sets, members, smaller in layers:
            total[:, sets], sink[:, sets] = _first_best(
                np.full((len(best), len(sets)), -np.inf), sink[:, sets],
                ((total[:, prev] + best[:, c, prev], c)
                 for c, prev in zip(members, smaller)))
        rest = np.full(len(best), (1 << p) - 1)
        for _ in range(p):   # peel each sample's sinks off the full set
            c = sink[samples, rest]
            rest ^= 1 << c
            parents[c, lo + samples] = family[samples, c, rest]
    return parents if table is data else _dag(table.variables, parents)


# ---------------------------------------------------------------------------
# bootstrap model averaging


@dataclass(frozen=True)
class ScoreLearner:
    """A bootstrap learner: a search that reads the data only through
    family scores within ``max_parents``.

    ``search(data, resamples, table, seeds)`` gets the data, every
    resample's row indices, the family-score table that
    ``bootstrap_average`` scores for all resamples at once, and one seed
    per resample, and returns each resample's DAG as (p, resamples) integer
    parent masks, bit u of ``[v, b]`` the edge u -> v of resample b.
    """

    max_parents: int
    search: Callable[[DataLike, np.ndarray, FamilyScoreTable,
                      list[np.random.SeedSequence]], np.ndarray]


def hc_learner(cfg: HcConfig) -> ScoreLearner:
    return ScoreLearner(cfg.max_parents, lambda data, resamples, table, seeds:
                        hill_climb(table, cfg, seed=seeds))


def hybrid_learner(cfg: HcConfig, restrict: str = "gs",
                   alpha: float = 0.05) -> ScoreLearner:
    def search(data: Dataset, resamples: np.ndarray, table: FamilyScoreTable,
               seeds: list) -> np.ndarray:
        pairs = []
        try:
            for idx in resamples:
                pairs.append(_restrict_pairs(data.take_rows(idx), restrict, alpha))
        except ValueError:
            # resample by resample, the climbs before this restrict came first
            if pairs:
                hill_climb(table, cfg, restrict=pairs, seed=seeds[:len(pairs)])
            raise
        return hill_climb(table, cfg, restrict=pairs, seed=seeds)
    return ScoreLearner(cfg.max_parents, search)


def map_learner(max_parents: int = MAX_EXACT_PARENTS) -> ScoreLearner:
    return ScoreLearner(max_parents, lambda data, resamples, table, seeds:
                        map_dag(table, max_parents))


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
    resamples = np.stack([rng_from(split_seed(seed, 1, i)).integers(0, data.n, size=data.n)
                          for i in range(boot_samples)])
    table = _table(data, learner.max_parents, resamples)
    seeds = [split_seed(seed, 2, i) for i in range(boot_samples)]
    parents = learner.search(data, resamples, table, seeds)
    if not (isinstance(parents, np.ndarray) and parents.dtype.kind in "iu"
            and parents.shape == (p, boot_samples)   # no negative mask, no bit past p:
            and not ((parents := parents.astype(np.int64)) >> p).any()
            and not (_ancestors(parents) >> np.arange(p)[:, None] & 1).any()):
        raise ValueError(f"a learner returns ({p}, {boot_samples}) int parent masks of DAGs")
    counts = (parents >> np.arange(p)[:, None, None] & 1).sum(axis=2)
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

    dag = Dag(conf.variables)
    flipped = set()
    for _, _, u, v in kept:
        try:
            dag = add_edge_checked(dag, u, v)
        except CycleError:   # v reaches u: flip the pair
            flipped.add((u, v))
            dag = add_edge_checked(dag, v, u)
    return AveragedNetwork(dag, threshold, conf, frozenset(flipped))

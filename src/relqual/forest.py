"""Regression forests built on variance-reduction CART trees.

Trees grow on bootstrap resamples with a random candidate-feature subset
per split; the rows each tree never saw (out of bag) provide honest error
estimates, which also back the permutation importance measure.  Tuning is
repeated k-fold cross-validation over an (ntree, mtry) grid; each fold
grows the largest ntree of an mtry once and scores every smaller ntree
from the first trees of that forest.

Trees grow in lockstep, one lane per tree, each lane with its own
depth-first stack and random stream: a step pops one node from every
lane, takes the nodes' means and spreads in groups of equal size and
scans all their candidate splits in padded blocks.  A forest's trees
form one such run, and tuning grows the trees of every fold of an mtry
in one.  A lane's candidate features are numpy's
``choice(p, mtry, replace=False)`` of each of its splits, replayed for
every split its tree can draw for at once, from one raw block of the
lane's stream (``rng.replay_choice``); the replay holds only while numpy
keeps its ``choice`` and ``integers`` algorithms, which the property
tests check against the installed numpy.  Every tree, draw and
prediction is the one that growing each tree on its own, recursively,
would give, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .data import Dataset
from .ols import InsufficientRowsError
from .rng import RawDraws, choice_counts, replay_choice, rng_from, split_seed


@dataclass(frozen=True)
class ForestConfig:
    ntree: int = 100
    mtry: int | None = None     # default: p // 3, at least 1
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.ntree < 1:
            raise ValueError("ntree must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")

    def resolved_mtry(self, p: int) -> int:
        mtry = max(1, p // 3) if self.mtry is None else self.mtry
        if not 1 <= mtry <= p:
            raise ValueError(f"mtry must be in [1, {p}]")
        return mtry


@dataclass(frozen=True, eq=False)
class _Tree:
    """Flat-array CART grown in depth-first pre-order: node 0 is the root
    and an internal node's left child follows it.  Internal nodes carry
    (feature, threshold) and both child ids, leaves feature -1 and the
    training mean."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gains: np.ndarray


def _predict_all(trees: list[_Tree], xs: list[np.ndarray]) -> list[np.ndarray]:
    """The leaf value of each row of ``xs[i]`` in ``trees[i]``, for every i:
    all trees' rows descend together, one level per step, over the trees'
    node arrays laid end to end."""
    size = np.array([tree.feature.size for tree in trees])
    first = np.cumsum(size) - size
    shift = np.repeat(first, size)
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature", "threshold", "left", "right", "value"))
    left, right = left + shift, right + shift
    count = [x.shape[0] for x in xs]
    x = np.concatenate(xs)
    node = np.repeat(first, count)
    active = np.arange(x.shape[0])
    while active.size:
        at = node[active]
        f = feature[at]
        inner = f >= 0
        active, at, f = active[inner], at[inner], f[inner]
        goes_left = x[active, f] < threshold[at]
        node[active] = np.where(goes_left, left[at], right[at])
    return np.split(value[node], np.cumsum(count)[:-1])


def _walk(items):
    """Yield (key, leaf value per row of x) for each (key, tree, x) of
    ``items``, in order.  The trees walk together (``_predict_all``) in
    batches of at most WALK_ROWS rows, or of one tree that has more; a
    batch's rows are let go before the next batch is taken."""
    keys, trees, xs, rows = [], [], [], 0
    for key, tree, x in items:
        if trees and rows + x.shape[0] > WALK_ROWS:
            yield from zip(keys, _predict_all(trees, xs))
            keys, trees, xs, rows = [], [], [], 0
        keys.append(key)
        trees.append(tree)
        xs.append(x)
        rows += x.shape[0]
    if trees:
        yield from zip(keys, _predict_all(trees, xs))


# Bytes that one temporary of a split scan may take: a step's candidate
# blocks are scanned in chunks of as many nodes as fit, and at least one.
SCAN_BYTES = 1 << 17
# Bootstrap rows that one batch of lockstep lanes may hold, counting each
# lane at the table's row count.
LANE_ROWS = 1 << 18
# Rows that one walk of trees may take down at once, or one tree's when
# it has more: larger walks saved little and raised the peak memory.
WALK_ROWS = 1 << 14
# Raw draws, in bytes, that one batch of lockstep lanes may replay for the
# features of every split its trees can draw for; a batch has one lane or more.
DRAW_BYTES = 1 << 22


def _ranked(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per feature (row of each table): every row's rank in the stable
    sort of its column, and the column and ``y`` in that order.  A padding
    row past the last ranks last, with +inf in x and 0 in y."""
    n = x.shape[0]
    by_rank = np.empty((x.shape[1], n + 1), dtype=np.int64)
    by_rank[:, :n] = x.argsort(axis=0, kind="stable").T
    by_rank[:, n] = n
    rank = np.empty_like(by_rank)
    np.put_along_axis(rank, by_rank, np.arange(n + 1), axis=1)
    x = np.vstack([x, np.full(x.shape[1], np.inf)])
    return rank, np.take_along_axis(x.T, by_rank, axis=1), np.append(y, 0.0)[by_rank]


def _scan(ranked: tuple[np.ndarray, ...], rows: np.ndarray, start: np.ndarray,
          size: np.ndarray, features: np.ndarray, total_sse: np.ndarray,
          min_leaf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (column, threshold, sse_reduction) per node, the column an index
    into the node's row of ``features``.

    Node i holds ``rows[start[i]:start[i] + size[i]]``, ascending row ids
    into the tables ``_ranked`` made; nodes come largest first.
    Thresholds are midpoints between consecutive distinct sorted values;
    both sides must keep at least min_leaf rows.  A chunk of nodes is
    padded with the padding row to its largest node.  Then every candidate
    column is sorted and prefix-summed along the rows at once.  Sorting
    the rows' ranks puts equal values in row order, which is their order
    in the node, so each node's sorted prefix and running sums are those
    of a stable sort of its own rows.  On a tie the first split point and
    the first column win; a caller splits only where the reduction
    exceeds 1e-12.
    """
    rank, x_sorted, y_sorted = (table.ravel() for table in ranked)
    m, mtry = features.shape
    column = np.empty(m, dtype=np.int64)
    threshold = np.empty(m)
    gain = np.empty(m)
    pad = ranked[0].shape[1] - 1
    rows = np.append(rows, pad)
    offset = (features * (pad + 1))[:, :, None]     # each feature's table row
    a = 0
    while a < m:
        width = int(size[a])
        b = min(m, a + max(1, SCAN_BYTES // (8 * mtry * width)))
        node = np.arange(b - a)
        n = size[a:b]
        at = np.arange(width)
        ids = rows[np.where(at < n[:, None], start[a:b, None] + at, rows.size - 1)]
        # ranks are distinct but for repeats of one bootstrapped row, whose
        # order does not matter
        ranks = rank.take(offset[a:b] + ids[:, None, :])
        ranks.sort(axis=-1)
        ranks += offset[a:b]
        xs = x_sorted.take(ranks)
        ys = y_sorted.take(ranks)
        csum = ys.cumsum(axis=-1)
        csq = (ys * ys).cumsum(axis=-1)
        below = slice(min_leaf - 1, width - min_leaf)   # rows k - 1
        k = np.arange(min_leaf, width - min_leaf + 1)
        rest = n[:, None, None] - k
        # past a node's own rows rest reaches 0: those points are masked
        # out below, after the arithmetic
        with np.errstate(divide="ignore", invalid="ignore"):
            left_sse = csq[..., below] - csum[..., below] ** 2 / k
            rs = csum[node, :, n - 1][..., None] - csum[..., below]
            rq = csq[node, :, n - 1][..., None] - csq[..., below]
            right_sse = rq - rs ** 2 / rest
            reduction = total_sse[a:b, None, None] - (left_sse + right_sse)
        distinct = xs[..., below] < xs[..., min_leaf:width - min_leaf + 1]
        reduction[~((rest >= min_leaf) & distinct)] = -np.inf
        gains = reduction.max(axis=-1)
        best = gains.argmax(axis=-1)
        split_at = min_leaf + reduction[node, best].argmax(axis=-1)
        column[a:b] = best
        gain[a:b] = gains[node, best]
        threshold[a:b] = (xs[node, best, split_at - 1]
                          + xs[node, best, split_at]) / 2.0
        a = b
    return column, threshold, gain


def _grow_trees(x: np.ndarray, y: np.ndarray, lanes, mtry: int, min_leaf: int):
    """Yield (key, tree) for each (key, rng, rows) of ``lanes``, in order:
    a CART tree on ``rows`` (ascending ids into ``x`` and ``y``, repeats
    allowed) that draws its candidate features from ``rng``.

    Trees grow in lockstep, one lane per tree, in batches of lanes that
    hold at most LANE_ROWS rows and DRAW_BYTES of raw feature draws
    between them; a batch replays every lane's draws when it starts.
    Each lane keeps its own depth-first stack (right child pushed first)
    and each step pops one node per lane, so a lane draws its features in
    pre-order, as a recursive grower would.
    """
    n, p = x.shape
    each = choice_counts(p, mtry).size
    # every node keeps min_leaf rows or more, so a tree on m rows has at
    # most m // min_leaf leaves; its drawing nodes are the internal nodes
    # plus the leaves with 2 * min_leaf rows or more, and as such a leaf
    # counts twice towards m // min_leaf, there are at most m // min_leaf - 1
    batch_lanes = max(1, min(LANE_ROWS // n,
                             DRAW_BYTES // (4 * max(1, each) * (n // min_leaf))))
    ranked = _ranked(x, y)
    lanes = iter(lanes)
    while batch := list(islice(lanes, batch_lanes)):
        keys, rngs, bags = zip(*batch)
        splits = max(1, max(bag.size for bag in bags) // min_leaf - 1)
        rows = np.arange(len(rngs))
        picks, _ = replay_choice(RawDraws(rngs, max(1, splits * each)), rows,
                                 np.zeros_like(rows), p, mtry, splits)
        yield from zip(keys, _grow_batch(x, y, ranked, picks, bags, min_leaf))


def _grow_batch(x: np.ndarray, y: np.ndarray, ranked: tuple[np.ndarray, ...],
                picks: np.ndarray, bags, min_leaf: int) -> list[_Tree]:
    """One batch of ``_grow_trees``, ``ranked`` the tables ``_ranked``
    made of x and y, ``picks[l, k]`` the candidate features of lane l's
    k-th drawing node.  A lane's node id is the step that popped it.

    The lanes' bags lie end to end in one row buffer, and a node is a
    segment of it: a split partitions its node's segment in place,
    stably, into [left | right], so every segment holds ascending row
    ids.  Each lane's stack is a row of (start, size, parent) slots, the
    parent being its id for a right child and -1 for a left one, with a
    depth per lane.

    A node's sum and square sum come from the equal-size rows of a step's
    nodes grouped by size, one reshaped sum per distinct size, as numpy's
    pairwise sums depend on the length summed; max and min are exact in
    any grouping.  Its total SSE is
    ``float(q) - n * float(mean) ** 2``: that ``pow`` can differ from an
    array square in the last bit."""
    p = x.shape[1]
    y2 = np.stack([y, y * y])
    rows = np.concatenate(bags)
    bag = np.array([r.size for r in bags])
    stack = np.empty((bag.size, 8, 3), dtype=np.int64)
    stack[:, 0] = np.column_stack([np.cumsum(bag) - bag, bag, np.full(bag.size, -1)])
    depth = np.ones(bag.size, dtype=np.int64)
    drawn_at = np.zeros(bag.size, dtype=np.int64)   # each lane's next row of picks
    gains = np.zeros((bag.size, p))
    steps = []
    live = np.arange(bag.size)
    while live.size:
        depth[live] -= 1
        start, size, parent = stack[live, depth[live]].T
        order = np.argsort(-size, kind="stable")
        lane, start, size, parent = live[order], start[order], size[order], parent[order]
        first = np.cumsum(size) - size
        at = np.repeat(start - first, size) + np.arange(first[-1] + size[-1])
        flat = rows[at]
        # pairwise sums over rows that are not contiguous take another
        # order: take keeps them contiguous, y2[:, flat] would not
        both = y2.take(flat, axis=1)
        sums = np.empty((2, size.size))
        edges = [0, *(np.flatnonzero(np.diff(size)) + 1).tolist(), size.size]
        for a, b in zip(edges[:-1], edges[1:]):
            n = int(size[a])
            sums[:, a:b] = both[:, first[a]:first[a] + (b - a) * n].reshape(
                2, b - a, n).sum(axis=-1)
        varies = (np.maximum.reduceat(both[0], first)
                  > np.minimum.reduceat(both[0], first))
        mean = sums[0] / size
        feature = np.full(size.size, -1)
        threshold = np.zeros(size.size)
        can = np.flatnonzero((size >= 2 * min_leaf) & varies)
        if can.size:
            drawn = picks[lane[can], drawn_at[lane[can]]]
            drawn_at[lane[can]] += 1
            total_sse = np.array([q - n * m ** 2 for q, n, m in zip(
                sums[1, can].tolist(), size[can].tolist(), mean[can].tolist())])
            column, cut, gain = _scan(ranked, flat, first[can], size[can], drawn,
                                      total_sse, min_leaf)
            keep = gain > 1e-12
            split = can[keep]
            f = drawn[keep, column[keep]]
            cut = cut[keep]
            feature[split] = f
            threshold[split] = cut
            gains[lane[split], f] += gain[keep]
            # each split node's segment, its left rows then its right, both
            # in the node's own order
            chosen = np.zeros(size.size, dtype=bool)
            chosen[split] = True
            inside = np.repeat(chosen, size)
            held = flat[inside]
            which = np.repeat(np.arange(split.size), size[split])
            side = 2 * which + (x[held, f[which]] >= cut[which])
            rows[at[inside]] = held[np.argsort(side, kind="stable")]
            left, right = np.bincount(side, minlength=2 * split.size).reshape(-1, 2).T
            owner = lane[split]
            top = depth[owner]
            if (top + 2 > stack.shape[1]).any():
                stack = np.concatenate([stack, np.empty_like(stack)], axis=1)
            stack[owner, top] = np.column_stack(
                [start[split] + left, right, np.full(split.size, len(steps))])
            stack[owner, top + 1] = np.column_stack(
                [start[split], left, np.full(split.size, -1)])
            depth[owner] += 2
        steps.append((lane, parent, mean, feature, threshold))
        live = np.flatnonzero(depth)
    return _assemble(steps, gains)


def _assemble(steps, gains: np.ndarray) -> list[_Tree]:
    """Trees from a batch's per-step records of (lane, parent, value,
    feature, threshold), node id = step."""
    lane = np.concatenate([s[0] for s in steps])
    node = np.repeat(np.arange(len(steps)), [s[0].size for s in steps])
    order = np.argsort(lane, kind="stable")
    lane, node = lane[order], node[order]
    parent, value, feature, threshold = (np.concatenate(column)[order]
                                         for column in list(zip(*steps))[1:])
    count = np.bincount(lane, minlength=len(gains))
    first = np.cumsum(count) - count
    left = np.where(feature >= 0, node + 1, -1)
    right = np.full(node.size, -1)
    child = parent >= 0
    right[first[lane[child]] + parent[child]] = node[child]
    return [_Tree(*(column[s:s + c] for column in (feature, threshold, left, right,
                                                  value)), gains[i])
            for i, (s, c) in enumerate(zip(first.tolist(), count.tolist()))]


@dataclass
class ForestModel:
    response: str
    predictors: tuple[str, ...]
    trees: list[_Tree]
    oob_rows: list[np.ndarray]       # per tree: row indices never drawn
    x: np.ndarray
    y: np.ndarray
    config: ForestConfig

    def predict(self, x: np.ndarray) -> np.ndarray:
        votes = np.zeros(x.shape[0])
        for _, pred in _walk((None, tree, x) for tree in self.trees):
            votes += pred
        return votes / len(self.trees)

    def oob_predictions(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean prediction per row over the trees that held it out, plus a
        mask of rows that were out of bag at least once."""
        n = self.y.shape[0]
        total = np.zeros(n)
        hits = np.zeros(n)
        for oob, pred in _walk((oob, tree, self.x[oob])
                               for tree, oob in zip(self.trees, self.oob_rows)):
            total[oob] += pred
            hits[oob] += 1
        covered = hits > 0
        preds = np.full(n, np.nan)
        preds[covered] = total[covered] / hits[covered]
        return preds, covered

    def oob_r2(self) -> float:
        preds, covered = self.oob_predictions()
        if not covered.any():
            raise InsufficientRowsError(
                f"no row is out of bag for any of {len(self.trees)} trees; "
                "out-of-bag R^2 needs more trees or more rows")
        y = self.y[covered]
        sse = float(np.sum((y - preds[covered]) ** 2))
        sst = float(np.sum((y - y.mean()) ** 2))
        return 1.0 - sse / sst if sst > 0 else 0.0

    def impurity_importance(self) -> np.ndarray:
        gains = np.zeros(len(self.predictors))
        for tree in self.trees:
            gains += tree.gains
        return gains / len(self.trees)


def _lanes(trains, cfg: ForestConfig):
    """(k, rng, rows) for each of the cfg.ntree trees on the k-th row set
    of ``trains``, in order: tree t's stream and the rows it bootstraps
    from that set, sorted, as ids into the whole table.  The stream
    goes on to draw the tree's candidate features; the grower reads it in
    raw blocks, so it ends past where drawing split by split would leave
    it, and nothing reads it after growth."""
    for k, train in enumerate(trains):
        for t in range(cfg.ntree):
            rng = rng_from(split_seed(cfg.seed, 3, t))
            drawn = rng.integers(0, train.size, size=train.size)
            yield k, rng, train[np.sort(drawn)]


def _design(data: Dataset, response: str, cfg: ForestConfig,
            n: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, int]:
    """Predictor names, their columns, the response column and mtry, for
    trees that each bootstrap n rows."""
    predictors = tuple(v for v in data.variables.names if v != response)
    if not predictors:
        raise ValueError("no predictor columns")
    if n < 2 * cfg.min_leaf:
        raise InsufficientRowsError(f"need at least {2 * cfg.min_leaf} rows")
    mtry = cfg.resolved_mtry(len(predictors))
    x = data.rows[:, [data.variables.index(v) for v in predictors]]
    return predictors, x, data.column(response), mtry


def fit_forest(data: Dataset, response: str, cfg: ForestConfig) -> ForestModel:
    """Grow ntree bootstrap CART trees for ``response``; deterministic in
    the seed, with one derived stream per tree."""
    predictors, x, y, mtry = _design(data, response, cfg, data.n)
    lanes = list(_lanes([np.arange(data.n)], cfg))
    in_bag = np.zeros((cfg.ntree, data.n), dtype=bool)
    for t, (_, _, rows) in enumerate(lanes):
        in_bag[t, rows] = True
    oob_rows = [np.flatnonzero(~bag) for bag in in_bag]
    trees = [tree for _, tree in _grow_trees(x, y, lanes, mtry, cfg.min_leaf)]
    return ForestModel(response, predictors, trees, oob_rows, x, y, cfg)


@dataclass(frozen=True)
class ImportanceReport:
    predictors: tuple[str, ...]
    permutation: np.ndarray      # mean OOB squared-error increase
    impurity: np.ndarray         # mean split-gain total, for comparison
    ranks: tuple[int, ...]       # 1 = most important (by permutation)

    def rows(self) -> list[tuple[str, float, float, int]]:
        return [(name, float(self.permutation[i]), float(self.impurity[i]),
                 self.ranks[i]) for i, name in enumerate(self.predictors)]


def permutation_importance(model: ForestModel, repeats: int = 5,
                           seed: int = 0) -> ImportanceReport:
    """Mean increase in per-tree OOB squared error after permuting one
    predictor at a time, averaged over repeats.

    Permutations are drawn in (repeat, predictor, tree) order from one
    stream per repeat; each tree then predicts its OOB rows and all their
    permuted copies, the trees walking together (``_walk``)."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    p = len(model.predictors)
    usable = [(tree, oob) for tree, oob in zip(model.trees, model.oob_rows)
              if oob.size > 1]
    if not usable:
        raise InsufficientRowsError(
            f"no tree of {len(model.trees)} has two or more out-of-bag rows; "
            "permutation importance needs more trees or more rows")
    copies = repeats * p
    perms = [np.empty((copies, oob.size), dtype=np.int64) for _, oob in usable]
    for r in range(repeats):
        rng = rng_from(split_seed(seed, 4, r))
        for j in range(p):
            for drawn, (_, oob) in zip(perms, usable):
                drawn[r * p + j] = rng.permutation(oob.size)
    copy = np.arange(copies)
    feature = copy % p

    def stacked(oob, drawn):
        # block 0 holds the OOB rows as they are, block 1 + r * p + j the
        # rows with predictor j permuted by repeat r's draw
        x_oob = model.x[oob]
        blocks = np.tile(x_oob, (1 + copies, 1, 1))
        blocks[1 + copy, :, feature] = x_oob[drawn, feature[:, None]]
        return blocks.reshape(-1, p)

    bump = np.zeros((repeats, p))
    for oob, pred in _walk((oob, tree, stacked(oob, drawn))
                           for (tree, oob), drawn in zip(usable, perms)):
        errs = np.mean((model.y[oob] - pred.reshape(1 + copies, oob.size)) ** 2, axis=1)
        bump += errs[1:].reshape(repeats, p) - errs[0]
    increases = np.zeros(p)
    for r in range(repeats):
        increases += bump[r] / len(usable)
    increases /= repeats
    order = np.argsort(-increases, kind="stable")
    ranks = np.empty(p, dtype=int)
    ranks[order] = np.arange(1, p + 1)
    return ImportanceReport(model.predictors, increases,
                            model.impurity_importance(), tuple(int(r) for r in ranks))


def _fold_assignments(n: int, k_folds: int, seed: int, repeat: int) -> np.ndarray:
    """Fold label per row; depends only on (seed, n, k_folds, repeat)."""
    rng = rng_from(split_seed(seed, 5, repeat))
    labels = np.arange(n) % k_folds
    return labels[rng.permutation(n)]


def _cv_r2(data: Dataset, response: str, cfg: ForestConfig,
           ntrees: tuple[int, ...], k_repeats: int, k_folds: int,
           seed: int) -> np.ndarray:
    """Held-out R^2 per (ntree, repeat, fold), SS_tot around the fold mean.

    Every fold's forest of cfg.ntree = max(ntrees) trees grows in one
    lockstep run over the whole table, each tree on the rows that
    ``fit_forest`` would draw from the fold's training rows.  The grown
    trees walk their folds' test rows together (``_walk``); a fold still adds
    its trees' test predictions one tree at a time, in tree order, as
    ``ForestModel.predict`` does; tree t's stream does not depend on
    ntree, so the running sum after tree k divided by k is the k-tree
    forest's prediction, float for float."""
    if k_repeats < 1:
        raise ValueError(f"k_repeats must be >= 1, got {k_repeats}")
    if not 2 <= k_folds <= data.n:
        raise ValueError(f"k_folds must be in [2, {data.n}] (the row count), "
                         f"got {k_folds}")
    if min(ntrees) < 1:
        raise ValueError("ntree must be >= 1")
    # fold 0 holds the most rows, so its training set is the smallest
    _, x, y, mtry = _design(data, response, cfg, data.n - -(-data.n // k_folds))
    row_of = {ntree: i for i, ntree in enumerate(ntrees)}
    tests = []      # test rows per fold, fold counted as repeat * k_folds + fold
    for repeat in range(k_repeats):
        folds = _fold_assignments(data.n, k_folds, seed, repeat)
        tests += [folds == fold for fold in range(k_folds)]
    test_rows = [np.flatnonzero(test) for test in tests]
    votes = [np.zeros(rows.size) for rows in test_rows]
    grown = [0] * len(tests)
    scores = np.empty((len(ntrees), len(tests)))
    # a fold's training rows are made only when its trees are drawn
    trains = (np.flatnonzero(~test) for test in tests)
    trees = _grow_trees(x, y, _lanes(trains, cfg), mtry, cfg.min_leaf)
    for fold, pred in _walk((fold, tree, x[test_rows[fold]]) for fold, tree in trees):
        votes[fold] += pred
        grown[fold] += 1
        t = grown[fold]
        if t in row_of:
            y_test = y[test_rows[fold]]
            sst = float(np.sum((y_test - y_test.mean()) ** 2))
            sse = float(np.sum((y_test - votes[fold] / t) ** 2))
            scores[row_of[t], fold] = 1.0 - sse / sst if sst > 0 else 0.0
    return scores


@dataclass(frozen=True)
class TuneCell:
    ntree: int
    mtry: int
    mean_r2: float
    sd_r2: float


@dataclass(frozen=True)
class TuneResult:
    cells: tuple[TuneCell, ...]
    best: TuneCell

    def to_csv(self) -> str:
        lines = ["ntree,mtry,mean_r2,sd_r2"]
        for c in self.cells:
            lines.append(f"{c.ntree},{c.mtry},{c.mean_r2:.6f},{c.sd_r2:.6f}")
        return "\n".join(lines) + "\n"


def default_grid(p: int) -> tuple[tuple[int, int], ...]:
    return tuple((ntree, mtry) for ntree in range(100, 1001, 100)
                 for mtry in range(1, p + 1))


def tune_forest(data: Dataset, response: str,
                grid: tuple[tuple[int, int], ...],
                k_repeats: int = 10, k_folds: int = 2, seed: int = 0,
                min_leaf: int = 5) -> TuneResult:
    """Repeated k-fold CV over the (ntree, mtry) grid; best cell by mean
    held-out R^2 (sd reported alongside, matching how tuned forests are
    usually quoted)."""
    if not grid:
        raise ValueError("grid must not be empty")
    ntrees_by_mtry: dict[int, set[int]] = {}
    for ntree, mtry in grid:
        ntrees_by_mtry.setdefault(mtry, set()).add(ntree)
    r2 = {}
    for mtry, ntrees in ntrees_by_mtry.items():
        ntrees = tuple(sorted(ntrees))
        cfg = ForestConfig(ntree=ntrees[-1], mtry=mtry, min_leaf=min_leaf,
                           seed=seed)
        scores = _cv_r2(data, response, cfg, ntrees, k_repeats, k_folds, seed)
        r2.update(((ntree, mtry), row) for ntree, row in zip(ntrees, scores))
    cells = []
    for ntree, mtry in grid:
        scores = r2[ntree, mtry]
        cells.append(TuneCell(ntree, mtry, float(scores.mean()),
                              float(scores.std(ddof=1)) if scores.size > 1 else 0.0))
    best = max(cells, key=lambda c: c.mean_r2)
    return TuneResult(tuple(cells), best)


def ablate_predictor(data: Dataset, response: str, drop: str,
                     cfg: ForestConfig, k_repeats: int = 10, k_folds: int = 2,
                     seed: int = 0) -> tuple[float, float]:
    """Paired CV estimate of mean R^2 with and without one predictor.

    Both runs share identical fold assignments so the comparison is not
    confounded by the split."""
    without = cv_r2_without(data, response, drop, cfg, k_repeats, k_folds, seed)
    (with_scores,) = _cv_r2(data, response, cfg, (cfg.ntree,), k_repeats,
                            k_folds, seed)
    return float(with_scores.mean()), without


def cv_r2_without(data: Dataset, response: str, drop: str, cfg: ForestConfig,
                  k_repeats: int = 10, k_folds: int = 2, seed: int = 0) -> float:
    """The "without" half of ``ablate_predictor``: mean CV R^2 with ``drop``
    removed, on the folds that ``tune_forest`` and the "with" half use.

    The "with" half is the tuned cell's own CV: for the best cell of a
    ``tune_forest`` run with the same folds, repeats and seed it equals
    ``best.mean_r2`` float for float."""
    if drop == response or drop not in data.variables.names:
        raise ValueError(f"{drop!r} is not a predictor column")
    p_without = len(data.variables) - 2
    if p_without < 1:
        raise ValueError("dropping the only predictor leaves nothing to fit")
    mtry_without = min(cfg.resolved_mtry(p_without + 1), p_without)
    (scores,) = _cv_r2(data.drop(drop), response, replace(cfg, mtry=mtry_without),
                       (cfg.ntree,), k_repeats, k_folds, seed)
    return float(scores.mean())

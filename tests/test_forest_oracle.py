"""Forest fast paths against the serial code they replaced.

Each reference below is the earlier implementation, kept test-local:

- the per-feature split loop and the recursive grower that called it,
  one tree at a time, appending nodes to lists;
- the list-based `_Tree.predict` walk;
- the per-tree permutation loop of `permutation_importance`;
- the per-cell CV loop of `tune_forest`, which grew one forest per cell
  and scored it through `ForestModel.predict`;
- the per-tree out-of-bag loop of `ForestModel.oob_predictions`;
- numpy's `Generator.choice(p, mtry, replace=False)`, called split after
  split, which the lockstep grower replays from raw blocks.

The fast paths must give the same floats, not merely close ones: the
`rf` outputs are byte-identical contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relqual.forest as forest
from relqual.dag import VariableSet
from relqual.data import Dataset
from relqual.forest import (
    ForestConfig,
    TuneCell,
    _fold_assignments,
    _grow_trees,
    _lanes,
    _predict_all,
    _ranked,
    _scan,
    ablate_predictor,
    cv_r2_without,
    fit_forest,
    permutation_importance,
    tune_forest,
)
from relqual.rng import RawDraws, Streams, choice_counts, replay_choice, rng_from, split_seed
from test_search_oracle import PlantedStream, PlantedStreams


# --- references ---------------------------------------------------------------


def serial_best_split(x, y, features, min_leaf):
    n = y.shape[0]
    total_sse = float(np.sum(y * y) - n * y.mean() ** 2)
    best = None
    for f in features:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        k = np.arange(min_leaf, n - min_leaf + 1)
        if k.size == 0:
            continue
        k = k[xs[k - 1] < xs[k]]
        if k.size == 0:
            continue
        left_sse = csq[k - 1] - csum[k - 1] ** 2 / k
        rs = csum[-1] - csum[k - 1]
        rq = csq[-1] - csq[k - 1]
        right_sse = rq - rs ** 2 / (n - k)
        reduction = total_sse - (left_sse + right_sse)
        i = int(np.argmax(reduction))
        if reduction[i] > 1e-12 and (best is None or reduction[i] > best[2]):
            split_at = k[i]
            threshold = (xs[split_at - 1] + xs[split_at]) / 2.0
            best = (int(f), float(threshold), float(reduction[i]))
    return best


class ListTree:
    """The tree the serial grower appends nodes to, one list per field."""

    def __init__(self, p):
        self.feature, self.threshold, self.left, self.right, self.value = \
            [], [], [], [], []
        self.gains = np.zeros(p)
        self.draws = 0      # nodes that drew candidate features
        self.sizes = []     # rows per node

    def _new_node(self):
        for name, blank in (("feature", -1), ("threshold", 0.0), ("left", -1),
                            ("right", -1), ("value", 0.0)):
            getattr(self, name).append(blank)
        return len(self.feature) - 1


def serial_grow(tree, x, y, rows, mtry, min_leaf, rng):
    node = tree._new_node()
    tree.sizes.append(rows.size)
    yn = y[rows]
    tree.value[node] = float(yn.mean())
    if rows.size < 2 * min_leaf or np.ptp(yn) == 0.0:
        return node
    features = rng.choice(x.shape[1], size=mtry, replace=False)
    tree.draws += 1
    split = serial_best_split(x[rows], yn, features, min_leaf)
    if split is None:
        return node
    f, threshold, gain = split
    tree.gains[f] += gain
    mask = x[rows, f] < threshold
    tree.feature[node] = f
    tree.threshold[node] = threshold
    tree.left[node] = serial_grow(tree, x, y, rows[mask], mtry, min_leaf, rng)
    tree.right[node] = serial_grow(tree, x, y, rows[~mask], mtry, min_leaf, rng)
    return node


def serial_forest(x, y, cfg):
    """`fit_forest`'s trees, grown one at a time on each tree's stream."""
    mtry = cfg.resolved_mtry(x.shape[1])
    trees = []
    for t in range(cfg.ntree):
        rng = rng_from(split_seed(cfg.seed, 3, t))
        drawn = rng.integers(0, x.shape[0], size=x.shape[0])
        tree = ListTree(x.shape[1])
        serial_grow(tree, x, y, np.sort(drawn), mtry, cfg.min_leaf, rng)
        trees.append(tree)
    return trees


def one_pass_split(x, y, features, min_leaf):
    """The lockstep scan on one node, in the reference's terms: a feature,
    not a column, and None unless the split gains more than 1e-12."""
    n = y.shape[0]
    if n < 2 * min_leaf:
        return None
    total_sse = float(np.sum(y * y)) - n * float(y.mean()) ** 2
    column, threshold, gain = _scan(
        _ranked(x, y), np.arange(n), np.array([0]), np.array([n]),
        features[None, :], np.array([total_sse]), min_leaf)
    if not gain[0] > 1e-12:
        return None
    return int(features[column[0]]), float(threshold[0]), float(gain[0])


def list_predict(tree, x):
    out = np.empty(x.shape[0])
    feature = np.asarray(list(tree.feature))
    threshold = np.asarray(list(tree.threshold))
    left = np.asarray(list(tree.left))
    right = np.asarray(list(tree.right))
    value = np.asarray(list(tree.value))
    node = np.zeros(x.shape[0], dtype=np.int64)
    active = np.arange(x.shape[0])
    while active.size:
        f = feature[node[active]]
        leaf = f < 0
        out[active[leaf]] = value[node[active[leaf]]]
        active = active[~leaf]
        if not active.size:
            break
        f = feature[node[active]]
        goes_left = x[active, f] < threshold[node[active]]
        node[active] = np.where(goes_left, left[node[active]], right[node[active]])
    return out


def serial_importance(model, repeats, seed):
    p = len(model.predictors)
    increases = np.zeros(p)
    baseline = []
    usable = [(tree, oob) for tree, oob in zip(model.trees, model.oob_rows)
              if oob.size > 1]
    for tree, oob in usable:
        err = float(np.mean((model.y[oob] - list_predict(tree, model.x[oob])) ** 2))
        baseline.append(err)
    for r in range(repeats):
        rng = rng_from(split_seed(seed, 4, r))
        for j in range(p):
            bump = 0.0
            for (tree, oob), err in zip(usable, baseline):
                x_perm = model.x[oob].copy()
                x_perm[:, j] = x_perm[rng.permutation(oob.size), j]
                perm_err = float(np.mean((model.y[oob] - list_predict(tree, x_perm)) ** 2))
                bump += perm_err - err
            increases[j] += bump / len(usable)
    return increases / repeats


def serial_cv_r2(data, response, cfg, k_repeats, k_folds, seed):
    y_col = data.variables.index(response)
    x_cols = [i for i in range(data.rows.shape[1]) if i != y_col]
    scores = []
    for repeat in range(k_repeats):
        folds = _fold_assignments(data.n, k_folds, seed, repeat)
        for fold in range(k_folds):
            test = folds == fold
            model = fit_forest(data.take_rows(np.flatnonzero(~test)), response, cfg)
            pred = model.predict(data.rows[test][:, x_cols])
            y_test = data.rows[test, y_col]
            sst = float(np.sum((y_test - y_test.mean()) ** 2))
            sse = float(np.sum((y_test - pred) ** 2))
            scores.append(1.0 - sse / sst if sst > 0 else 0.0)
    return np.asarray(scores)


def serial_tune(data, response, grid, k_repeats, k_folds, seed, min_leaf):
    cells = []
    for ntree, mtry in grid:
        cfg = ForestConfig(ntree=ntree, mtry=mtry, min_leaf=min_leaf, seed=seed)
        scores = serial_cv_r2(data, response, cfg, k_repeats, k_folds, seed)
        cells.append(TuneCell(ntree, mtry, float(scores.mean()),
                              float(scores.std(ddof=1)) if scores.size > 1 else 0.0))
    return cells, max(cells, key=lambda c: c.mean_r2)


def serial_oob_predictions(model):
    n = model.y.shape[0]
    total, hits = np.zeros(n), np.zeros(n)
    for tree, oob in zip(model.trees, model.oob_rows):
        total[oob] += list_predict(tree, model.x[oob])
        hits[oob] += 1
    covered = hits > 0
    preds = np.full(n, np.nan)
    preds[covered] = total[covered] / hits[covered]
    return preds, covered


def serial_choice(rng, p, mtry):
    """numpy's `choice(p, mtry, replace=False)`, one bounded draw at a time
    from `rng.integers`: Floyd's sampling, then a shuffle of the picks; or,
    when p > 10000 and mtry > p // 50, a partial shuffle of arange(p)."""
    if p > 10000 and mtry > p // 50:
        entries = list(range(p))
        for i in range(p - 1, max(p - mtry, 1) - 1, -1):
            j = int(rng.integers(i + 1))
            entries[i], entries[j] = entries[j], entries[i]
        return entries[p - mtry:]
    picks = []
    for j in range(p - mtry, p):
        v = int(rng.integers(j + 1))
        picks.append(j if v in picks else v)
    for i in range(mtry - 1, 0, -1):
        j = int(rng.integers(i + 1))
        picks[i], picks[j] = picks[j], picks[i]
    return picks


# --- data ---------------------------------------------------------------------


@st.composite
def tables(draw, min_rows=2, max_rows=30, max_predictors=4):
    """Predictors on a coarse grid, so sorted columns hold runs of equal
    values, and possibly an exact copy of an earlier column, so two
    features tie on every split."""
    n = draw(st.integers(min_rows, max_rows))
    p = draw(st.integers(1, max_predictors))
    seed = draw(st.integers(0, 2**32 - 1))
    levels = draw(st.integers(2, 8))
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, p)).astype(float) / 2.0
    if p > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(p)))[:2]
        x[:, dst] = x[:, src]
    y = rng.integers(0, 5, size=n) * 0.75 + rng.standard_normal(n) * draw(
        st.sampled_from([0.0, 0.1, 1.0]))
    return x, y


def dataset(x, y):
    names = [f"x{i}" for i in range(x.shape[1])] + ["y"]
    return Dataset(VariableSet(names), np.column_stack([x, y]))


# --- split scan ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_split_scan_matches_the_per_feature_loop(table, data):
    x, y = table
    n, p = x.shape
    min_leaf = data.draw(st.sampled_from(sorted({1, 2, max(1, n // 2), max(1, n // 3)})))
    features = np.asarray(data.draw(st.permutations(range(p))), dtype=np.int64)
    features = features[:data.draw(st.integers(1, p))]
    assert one_pass_split(x, y, features, min_leaf) == \
        serial_best_split(x, y, features, min_leaf)


def test_tied_copies_let_the_first_candidate_win():
    rng = np.random.default_rng(3)
    col = rng.integers(0, 6, 40).astype(float)
    x = np.column_stack([col, rng.standard_normal(40), col])
    y = col + 0.1 * rng.standard_normal(40)
    for features in ([0, 2], [2, 0], [1, 2, 0]):
        features = np.asarray(features)
        split = one_pass_split(x, y, features, 3)
        assert split == serial_best_split(x, y, features, 3)
        assert split[0] == features[features != 1][0]


def test_half_the_rows_per_side_leaves_one_split_point():
    x = np.array([[3.0], [1.0], [2.0], [1.0], [5.0], [4.0]])
    y = np.array([1.0, 0.0, 0.0, 0.0, 2.0, 1.0])
    split = one_pass_split(x, y, np.array([0]), 3)
    assert split == serial_best_split(x, y, np.array([0]), 3)
    assert split[1] == 2.5
    x_tied = np.array([[1.0], [1.0], [2.0], [2.0]])
    assert one_pass_split(x_tied, y[:4], np.array([0]), 2) == \
        serial_best_split(x_tied, y[:4], np.array([0]), 2)
    # equal neighbours at the only split point: no split
    assert one_pass_split(np.array([[1.0], [1.0], [1.0], [2.0]]), y[:4],
                          np.array([0]), 2) is None


@pytest.mark.parametrize("scan_bytes", [None, 1])
def test_a_scan_chunk_ends_below_half_its_widest_node(scan_bytes):
    # nodes of 12, 6, 5 and 3 rows: 6 is exactly half of 12 and shares its
    # chunk, padded to 12 rows; 5 starts the next chunk and 3 joins it.
    # SCAN_BYTES = 1 scans one node per chunk.  Rows repeat, as in a bag
    rng = np.random.default_rng(5)
    x = rng.integers(0, 4, size=(26, 3)) / 2.0
    y = rng.standard_normal(26)
    size = np.array([12, 6, 5, 3])
    nodes = [np.sort(rng.integers(0, 26, n)) for n in size]
    features = np.array([rng.permutation(3)[:2] for _ in size])
    total_sse = np.array([float(np.sum(y[r] * y[r])) - r.size * float(y[r].mean()) ** 2
                          for r in nodes])
    with pytest.MonkeyPatch.context() as mp:
        if scan_bytes is not None:
            mp.setattr(forest, "SCAN_BYTES", scan_bytes)
        column, threshold, gain = _scan(_ranked(x, y), np.concatenate(nodes),
                                        np.cumsum(size) - size, size, features,
                                        total_sse, 1)
    for i, r in enumerate(nodes):
        got = None if not gain[i] > 1e-12 else (
            int(features[i, column[i]]), float(threshold[i]), float(gain[i]))
        assert got == one_pass_split(x[r], y[r], features[i], 1)
        assert got == serial_best_split(x[r], y[r], features[i], 1)
        assert got is not None


# --- grown trees --------------------------------------------------------------


def assert_same_trees(fast, slow, x):
    assert len(fast) == len(slow)
    # probe rows on the training values, so rows land exactly on and
    # around the thresholds (midpoints of training values)
    probe = np.vstack([x, (x[:-1] + x[1:]) / 2.0, x + 0.25])
    walked = _predict_all(fast, [probe] * len(fast))
    walked_empty = _predict_all(fast, [probe[:0]] * len(fast))
    for a, b, pred, empty in zip(fast, slow, walked, walked_empty):
        for name in ("feature", "threshold", "left", "right", "value", "gains"):
            assert np.array_equal(getattr(a, name), np.asarray(getattr(b, name)))
        assert np.array_equal(pred, list_predict(b, probe))
        assert empty.shape == (0,)


def check_forest(table, min_leaf, seed, data):
    x, y = table
    cfg = ForestConfig(ntree=4, mtry=data.draw(st.integers(1, x.shape[1])),
                       min_leaf=min_leaf, seed=seed)
    if x.shape[0] < 2 * min_leaf:
        return
    fast = fit_forest(dataset(x, y), "y", cfg)
    assert_same_trees(fast.trees, serial_forest(x, y, cfg), x)


@settings(max_examples=60, deadline=None)
@given(tables(min_rows=4, max_rows=40), st.integers(1, 3), st.integers(0, 99),
       st.data())
def test_trees_and_their_walk_match_the_serial_code(table, min_leaf, seed, data):
    check_forest(table, min_leaf, seed, data)


@settings(max_examples=30, deadline=None)
@given(tables(min_rows=4, max_rows=40), st.integers(1, 3), st.integers(0, 99),
       st.data())
def test_trees_match_the_serial_code_one_node_per_scan_chunk(table, min_leaf,
                                                              seed, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "SCAN_BYTES", 1)
        check_forest(table, min_leaf, seed, data)


@settings(max_examples=40, deadline=None)
@given(tables(min_rows=5, max_rows=41), st.sampled_from([2, 3]),
       st.integers(1, 3), st.integers(0, 99), st.sampled_from([None, 1]),
       st.data())
def test_cv_lanes_from_unequal_folds_match_the_serial_code(
        table, k_folds, min_leaf, seed, lane_rows, data):
    # an odd row count splits into folds of unequal size, so lanes of one
    # batch bootstrap different numbers of rows
    x, y = table
    if x.shape[0] % 2 == 0:
        x, y = x[1:], y[1:]
    n, p = x.shape
    cfg = ForestConfig(ntree=3, mtry=data.draw(st.integers(1, p)),
                       min_leaf=min_leaf, seed=seed)
    tests = []
    for repeat in range(2):
        folds = _fold_assignments(n, k_folds, seed, repeat)
        tests += [folds == fold for fold in range(k_folds)]
    if n - max(test.sum() for test in tests) < 2 * min_leaf:
        return
    with pytest.MonkeyPatch.context() as mp:
        if lane_rows is not None:
            mp.setattr(forest, "LANE_ROWS", lane_rows)
        trains = [np.flatnonzero(~test) for test in tests]
        grown = list(_grow_trees(x, y, _lanes(trains, cfg), cfg.mtry, min_leaf))
    assert [fold for fold, _ in grown] == \
        [fold for fold in range(len(tests)) for _ in range(cfg.ntree)]
    for fold, test in enumerate(tests):
        train = np.flatnonzero(~test)
        fast = [tree for at, tree in grown if at == fold]
        assert_same_trees(fast, serial_forest(x[train], y[train], cfg), x)


def test_gains_of_a_fixed_case_are_the_serial_bits():
    # the total SSE must square each node mean as a Python float does:
    # an array square of the means changes these gains
    rng = np.random.default_rng(68)
    x = rng.standard_normal((20, 2))
    y = x[:, 0] + rng.standard_normal(20)
    cfg = ForestConfig(ntree=4, mtry=2, min_leaf=1, seed=0)
    fast = fit_forest(dataset(x, y), "y", cfg)
    for a, b in zip(fast.trees, serial_forest(x, y, cfg), strict=True):
        assert np.array_equal(a.gains, b.gains)


def lockstep_pops(tree, min_leaf):
    """A serial tree's node ids in pre-order, cut into the lockstep
    grower's steps: a step pops nodes until one of 2 * min_leaf rows or
    more, which alone can draw, or until the tree's last node."""
    pops = [[]]
    for node, size in enumerate(tree.sizes):
        pops[-1].append(node)
        if size >= 2 * min_leaf and node < len(tree.sizes) - 1:
            pops.append([])
    return pops


def grown_with_step_spy(x, y, cfg):
    """``fit_forest``'s trees and the step count of each lockstep batch."""
    steps = []
    assemble = forest._assemble

    def spy(records, gains):
        steps.append(len(records))
        return assemble(records, gains)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "_assemble", spy)
        return fit_forest(dataset(x, y), "y", cfg).trees, steps


@pytest.mark.parametrize("min_leaf, batch", [(1, None), (3, None), (3, 2), (5, 1)])
def test_a_batch_steps_once_per_node_that_can_draw(min_leaf, batch):
    # a batch runs as many steps as the lane that pops its nodes in the
    # most steps: one per node of 2 * min_leaf rows or more, and one more
    # when small leaves follow the last of those; LANE_ROWS = batch * n
    # puts `batch` lanes in a batch
    rng = np.random.default_rng(40 + min_leaf)
    x = rng.standard_normal((60, 3))
    y = x[:, 0] + 0.5 * rng.standard_normal(60)
    cfg = ForestConfig(ntree=6, mtry=2, min_leaf=min_leaf, seed=min_leaf)
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(forest, "LANE_ROWS", batch * 60)
        fast, steps = grown_with_step_spy(x, y, cfg)
    slow = serial_forest(x, y, cfg)
    assert_same_trees(fast, slow, x)
    per_batch = [slow[i:i + (batch or cfg.ntree)]
                 for i in range(0, cfg.ntree, batch or cfg.ntree)]
    assert steps == [max(len(lockstep_pops(tree, min_leaf)) for tree in trees)
                     for trees in per_batch]
    assert sum(steps) < sum(max(len(tree.feature) for tree in trees)
                            for trees in per_batch)


def test_one_step_drains_small_leaves_that_close_several_ancestors():
    # the tree's last five nodes, of 3 to 4 rows each under min_leaf = 3,
    # are the left leaf of node 11 and then the right leaves of nodes 11,
    # 10, 9 and 8: the last step pops all five, and each right leaf takes
    # its parent's id from the stack
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 2))
    y = x[:, 0] + 0.3 * rng.standard_normal(30)
    cfg = ForestConfig(ntree=1, mtry=2, min_leaf=3, seed=7)
    fast, steps = grown_with_step_spy(x, y, cfg)
    slow = serial_forest(x, y, cfg)
    assert_same_trees(fast, slow, x)
    (tree,) = slow
    pops = lockstep_pops(tree, cfg.min_leaf)
    assert steps == [len(pops)] and len(pops) < len(tree.feature)
    assert pops[-1] == [12, 13, 14, 15, 16]
    assert [tree.right.index(node) for node in pops[-1][1:]] == [11, 10, 9, 8]
    assert max(tree.sizes[12:]) < 2 * cfg.min_leaf


# --- permutation importance ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tables(min_rows=10, max_rows=40), st.integers(1, 8), st.integers(1, 3),
       st.integers(0, 99))
def test_importance_matches_the_per_tree_loop(table, ntree, repeats, seed):
    x, y = table
    model = fit_forest(dataset(x, y), "y", ForestConfig(ntree=ntree, min_leaf=2,
                                                        seed=seed))
    if not any(oob.size > 1 for oob in model.oob_rows):
        return
    report = permutation_importance(model, repeats=repeats, seed=seed + 1)
    assert np.array_equal(report.permutation,
                          serial_importance(model, repeats, seed + 1))


# --- tuning and ablation --------------------------------------------------------


@st.composite
def grids(draw, p):
    """Unsorted ntree values, mixed mtry, and repeated cells."""
    cells = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, p)),
                          min_size=1, max_size=6))
    if draw(st.booleans()):
        cells.append(draw(st.sampled_from(cells)))
    return tuple(cells)


@settings(max_examples=25, deadline=None)
@given(tables(min_rows=12, max_rows=30, max_predictors=3), st.data(),
       st.integers(1, 2), st.integers(2, 3), st.integers(0, 99))
def test_tuning_matches_the_per_cell_loop(table, data, k_repeats, k_folds, seed):
    x, y = table
    grid = data.draw(grids(x.shape[1]))
    result = tune_forest(dataset(x, y), "y", grid, k_repeats=k_repeats,
                         k_folds=k_folds, seed=seed, min_leaf=2)
    cells, best = serial_tune(dataset(x, y), "y", grid, k_repeats, k_folds, seed, 2)
    assert list(result.cells) == cells
    assert result.best == best


@settings(max_examples=15, deadline=None)
@given(tables(min_rows=12, max_rows=30, max_predictors=3), st.integers(1, 5),
       st.integers(0, 99))
def test_ablation_matches_the_per_cell_loop(table, ntree, seed):
    x, y = table
    if x.shape[1] < 2:
        x = np.column_stack([x, x[:, 0][::-1]])
    data = dataset(x, y)
    cfg = ForestConfig(ntree=ntree, min_leaf=2, seed=seed)
    with_r2, without_r2 = ablate_predictor(data, "y", "x0", cfg, k_repeats=2,
                                           k_folds=2, seed=seed)
    reduced = ForestConfig(ntree=ntree, mtry=min(cfg.resolved_mtry(x.shape[1]),
                                                 x.shape[1] - 1),
                           min_leaf=2, seed=seed)
    assert with_r2 == float(serial_cv_r2(data, "y", cfg, 2, 2, seed).mean())
    assert without_r2 == float(
        serial_cv_r2(data.drop("x0"), "y", reduced, 2, 2, seed).mean())


@settings(max_examples=15, deadline=None)
@given(tables(min_rows=12, max_rows=30, max_predictors=3), st.data(),
       st.integers(1, 2), st.integers(0, 99))
def test_tuned_best_cell_is_the_ablation_with_run(table, data, k_repeats, seed):
    # `relqual rf --ablate` writes the tuned best cell's mean R^2 as r2_with
    # and runs only the CV without the predictor
    x, y = table
    if x.shape[1] < 2:
        x = np.column_stack([x, x[:, 0][::-1]])
    grid = data.draw(grids(x.shape[1]))
    tuned = tune_forest(dataset(x, y), "y", grid, k_repeats=k_repeats,
                        k_folds=2, seed=seed, min_leaf=2)
    cfg = ForestConfig(ntree=tuned.best.ntree, mtry=tuned.best.mtry, min_leaf=2,
                       seed=seed)
    with_r2, without_r2 = ablate_predictor(dataset(x, y), "y", "x0", cfg,
                                           k_repeats=k_repeats, k_folds=2, seed=seed)
    assert with_r2 == tuned.best.mean_r2
    assert without_r2 == cv_r2_without(dataset(x, y), "y", "x0", cfg,
                                       k_repeats=k_repeats, k_folds=2, seed=seed)


# --- out-of-bag walk --------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(tables(min_rows=10, max_rows=40), st.integers(1, 8), st.integers(0, 99),
       st.sampled_from([None, 1, 60]))
def test_oob_predictions_and_importance_match_the_per_tree_loop(table, ntree, seed,
                                                                walk_rows):
    # WALK_ROWS = 1 walks one tree at a time; 60 splits a forest's walk
    # into batches of a few trees
    x, y = table
    model = fit_forest(dataset(x, y), "y", ForestConfig(ntree=ntree, min_leaf=2,
                                                        seed=seed))
    usable = any(oob.size > 1 for oob in model.oob_rows)
    with pytest.MonkeyPatch.context() as mp:
        if walk_rows is not None:
            mp.setattr(forest, "WALK_ROWS", walk_rows)
        preds, covered = model.oob_predictions()
        report = permutation_importance(model, repeats=2, seed=seed) if usable else None
    want_preds, want_covered = serial_oob_predictions(model)
    assert np.array_equal(covered, want_covered)
    assert np.array_equal(preds, want_preds, equal_nan=True)
    if usable:
        assert np.array_equal(report.permutation, serial_importance(model, 2, seed))


@settings(max_examples=30, deadline=None)
@given(tables(min_rows=4, max_rows=40), st.integers(1, 8), st.integers(1, 3),
       st.integers(0, 99), st.sampled_from([None, 1, 150]))
def test_forest_prediction_is_the_in_order_sum_of_the_serial_walks(
        table, ntree, min_leaf, seed, walk_rows):
    # a probe of 2n <= 80 rows: WALK_ROWS = 1 walks one tree at a time, 150
    # walks a forest in batches of one tree or more
    x, y = table
    if x.shape[0] < 2 * min_leaf:
        return
    model = fit_forest(dataset(x, y), "y", ForestConfig(ntree=ntree, min_leaf=min_leaf,
                                                        seed=seed))
    probe = np.vstack([x, x + 0.25])
    votes = np.zeros(probe.shape[0])
    for tree in model.trees:
        votes += list_predict(tree, probe)
    with pytest.MonkeyPatch.context() as mp:
        if walk_rows is not None:
            mp.setattr(forest, "WALK_ROWS", walk_rows)
        pred = model.predict(probe)
    assert np.array_equal(pred.view(np.int64), (votes / ntree).view(np.int64))


# --- feature draws ----------------------------------------------------------------


def raw_after(seed, before):
    """A generator of ``seed`` after ``before`` raw uint32 draws: an odd
    count leaves half of a 64-bit output buffered, an even one none."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, size=before, dtype=np.uint32)
    return rng


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.data(), st.integers(0, 2**32 - 1), st.integers(0, 5),
       st.integers(1, 6), st.integers(1, 9))
def test_replayed_feature_draws_equal_generator_choice(p, data, seed, before, calls,
                                                       width):
    mtry = data.draw(st.integers(1, p))
    serial = raw_after(seed, before)
    want = [serial.choice(p, size=mtry, replace=False).tolist() for _ in range(calls)]
    raw = RawDraws(Streams.of([raw_after(seed, before)]), width)
    picks, at = replay_choice(raw, p, mtry, calls)
    assert picks[0].tolist() == want
    assert raw(np.array([0]), at)[0] == serial.integers(0, 2**32, dtype=np.uint32)
    reference = raw_after(seed, before)
    assert [serial_choice(reference, p, mtry) for _ in range(calls)] == want


@pytest.mark.parametrize("mtry", [200, 201])
def test_feature_draws_on_each_side_of_numpys_branch(mtry):
    # numpy's choice switches from Floyd's sampling (2 * mtry - 1 draws)
    # to a partial shuffle of arange(p) (mtry draws) above p // 50 = 200
    p = 10001
    assert choice_counts(p, mtry).size == (399 if mtry == 200 else 201)
    serial = np.random.default_rng(mtry)
    want = [serial.choice(p, size=mtry, replace=False).tolist() for _ in range(3)]
    raw = RawDraws(Streams.of([np.random.default_rng(mtry)]), 64)
    picks, at = replay_choice(raw, p, mtry, 3)
    assert picks[0].tolist() == want
    assert raw(np.array([0]), at)[0] == serial.integers(0, 2**32, dtype=np.uint32)
    reference = np.random.default_rng(mtry)
    assert [serial_choice(reference, p, mtry) for _ in range(3)] == want


def test_rejected_feature_draws_shift_every_later_split():
    # p = 7, mtry = 3 draws below 5, 6, 7, 3 and 2 per split.  A planted
    # raw 0 is rejected for every count but 2: here at the first split,
    # at the fourth (position 16 after one rejection) and at the seventh
    # (32 after two), and in another stream at the 53rd split, so that
    # the draw-by-draw redo runs over the whole width of a tree's replay
    p, mtry, splits = 7, 3, 60
    clean = np.random.default_rng(8).integers(1, 2**32, size=700, dtype=np.uint32)
    planted = clean.copy()
    planted[[0, 16, 32]] = 0
    late = clean.copy()
    late[[5 * 52 + 1]] = 0
    streams = [clean, planted, late]
    raw = RawDraws(PlantedStreams(streams), 5 * splits)
    picks, at = replay_choice(raw, p, mtry, splits)
    assert at.tolist() == [5 * splits, 5 * splits + 3, 5 * splits + 1]
    for lane, values in enumerate(streams):
        reference = PlantedStream(values)
        want = [serial_choice(reference, p, mtry) for _ in range(splits)]
        assert picks[lane].tolist() == want, lane
    used = PlantedStream(planted)
    for _ in range(splits):
        serial_choice(used, p, mtry)
    assert used.pos == 5 * splits + 3


# --- array stacks ------------------------------------------------------------------


@pytest.mark.parametrize("draw_bytes, lane_rows", [(None, None), (1, None),
                                                   (1800, None), (None, 1)])
def test_deep_trees_match_the_serial_code(draw_bytes, lane_rows):
    # min_leaf = 1 on n = 300 gives trees of about 190 drawing splits.
    # The forests of seeds 23, 14 and 37 each hold a tree that draws for
    # n // min_leaf - 1 splits, the most a tree can: (n, min_leaf) =
    # (26, 5), (47, 6) and (48, 5).  DRAW_BYTES = 1 grows one lane per
    # batch, as LANE_ROWS = 1 does; 1800 does so on n = 300 and puts the
    # 20 lanes of seed 37 in batches of 16 and 4
    rng = np.random.default_rng(21)
    x = rng.standard_normal((300, 3))
    y = x[:, 0] + rng.standard_normal(300)
    cases = [(x, y, ForestConfig(ntree=3, mtry=2, min_leaf=1, seed=4))]
    for seed in (23, 14, 37):
        rng = np.random.default_rng(seed)
        n, min_leaf = int(rng.integers(20, 200)), int(rng.integers(1, 8))
        x = rng.standard_normal((n, 3))
        y = x[:, 0] + rng.standard_normal(n)
        cases.append((x, y, ForestConfig(ntree=20, mtry=2, min_leaf=min_leaf, seed=seed)))
    for x, y, cfg in cases:
        with pytest.MonkeyPatch.context() as mp:
            if draw_bytes is not None:
                mp.setattr(forest, "DRAW_BYTES", draw_bytes)
            if lane_rows is not None:
                mp.setattr(forest, "LANE_ROWS", lane_rows)
            fast = fit_forest(dataset(x, y), "y", cfg)
        slow = serial_forest(x, y, cfg)
        assert_same_trees(fast.trees, slow, x)
        if cfg.min_leaf == 1:
            assert min((tree.feature >= 0).sum() for tree in fast.trees) > 50
        else:
            assert max(tree.draws for tree in slow) == x.shape[0] // cfg.min_leaf - 1


def test_one_predictor_forest_draws_no_features():
    rng = np.random.default_rng(30)
    x = rng.integers(0, 6, size=(40, 1)) / 2.0
    y = x[:, 0] + rng.standard_normal(40)
    assert choice_counts(1, 1).size == 0
    cfg = ForestConfig(ntree=5, mtry=1, min_leaf=2, seed=3)
    fast = fit_forest(dataset(x, y), "y", cfg)
    assert all((tree.feature >= 0).any() for tree in fast.trees)
    assert_same_trees(fast.trees, serial_forest(x, y, cfg), x)

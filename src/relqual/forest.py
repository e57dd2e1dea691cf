"""Regression forests built on variance-reduction CART trees.

Trees grow on bootstrap resamples with a random candidate-feature subset
per split; the rows each tree never saw (out of bag) provide honest error
estimates, which also back the permutation importance measure.  Tuning is
repeated k-fold cross-validation over an (ntree, mtry) grid; each fold
grows the largest ntree of an mtry once and scores every smaller ntree
from the first trees of that forest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .ols import InsufficientRowsError
from .rng import rng_from, split_seed


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


class _Tree:
    """Flat-array CART: internal nodes carry (feature, threshold), leaves
    carry the training mean.  Nodes are appended to lists while the tree
    grows; ``freeze`` then turns them into arrays for prediction."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "gains")

    def __init__(self, p: int):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.gains = np.zeros(p)

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def freeze(self) -> None:
        for name in ("feature", "threshold", "left", "right", "value"):
            setattr(self, name, np.asarray(getattr(self, name)))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf value per row; all rows descend one level per step."""
        node = np.zeros(x.shape[0], dtype=np.int64)
        active = np.arange(x.shape[0])
        while active.size:
            at = node[active]
            f = self.feature[at]
            inner = f >= 0
            active, at, f = active[inner], at[inner], f[inner]
            goes_left = x[active, f] < self.threshold[at]
            node[active] = np.where(goes_left, self.left[at], self.right[at])
        return self.value[node]


def _best_split(block: np.ndarray, y: np.ndarray, mean: np.floating,
                min_leaf: int) -> tuple[int, float, float] | None:
    """Best (column, threshold, sse_reduction) over the candidate columns
    of ``block``; ``mean`` is ``y.mean()``.

    Thresholds are midpoints between consecutive distinct sorted values;
    both sides must keep at least min_leaf rows.  All candidate columns are
    sorted and prefix-summed at once; a split must reduce the SSE by more
    than 1e-12, and on a tie the first split point and the first column
    win.
    """
    n = y.shape[0]
    if n < 2 * min_leaf:
        return None
    total_sse = float((y * y).sum() - n * mean ** 2)
    cols = np.arange(block.shape[1])
    order = block.argsort(axis=0, kind="stable")
    xs = block[order, cols]
    ys = y[order]
    csum = ys.cumsum(axis=0)
    csq = (ys * ys).cumsum(axis=0)
    below = slice(min_leaf - 1, n - min_leaf)       # rows k - 1
    k = np.arange(min_leaf, n - min_leaf + 1)[:, None]
    left_sse = csq[below] - csum[below] ** 2 / k
    rs = csum[-1] - csum[below]
    rq = csq[-1] - csq[below]
    right_sse = rq - rs ** 2 / (n - k)
    reduction = total_sse - (left_sse + right_sse)
    reduction[~(xs[below] < xs[min_leaf:n - min_leaf + 1])] = -np.inf
    at = reduction.argmax(axis=0)
    gains = reduction[at, cols]
    c = int(gains.argmax())
    if not gains[c] > 1e-12:
        return None
    split_at = min_leaf + at[c]
    threshold = (xs[split_at - 1, c] + xs[split_at, c]) / 2.0
    return c, float(threshold), float(gains[c])


def _grow(tree: _Tree, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
          mtry: int, min_leaf: int, rng: np.random.Generator) -> int:
    node = tree._new_node()
    yn = y[rows]
    mean = yn.mean()
    tree.value[node] = float(mean)
    if rows.size < 2 * min_leaf or np.ptp(yn) == 0.0:
        return node
    features = rng.choice(x.shape[1], size=mtry, replace=False)
    block = x[rows[:, None], features]
    split = _best_split(block, yn, mean, min_leaf)
    if split is None:
        return node
    c, threshold, gain = split
    f = int(features[c])
    tree.gains[f] += gain
    mask = block[:, c] < threshold
    tree.feature[node] = f
    tree.threshold[node] = threshold
    tree.left[node] = _grow(tree, x, y, rows[mask], mtry, min_leaf, rng)
    tree.right[node] = _grow(tree, x, y, rows[~mask], mtry, min_leaf, rng)
    return node


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
        for tree in self.trees:
            votes += tree.predict(x)
        return votes / len(self.trees)

    def oob_predictions(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean prediction per row over the trees that held it out, plus a
        mask of rows that were out of bag at least once."""
        n = self.y.shape[0]
        total = np.zeros(n)
        hits = np.zeros(n)
        for tree, oob in zip(self.trees, self.oob_rows):
            if oob.size:
                total[oob] += tree.predict(self.x[oob])
                hits[oob] += 1
        covered = hits > 0
        preds = np.full(n, np.nan)
        preds[covered] = total[covered] / hits[covered]
        return preds, covered

    def oob_r2(self) -> float:
        preds, covered = self.oob_predictions()
        y = self.y[covered]
        sse = float(np.sum((y - preds[covered]) ** 2))
        sst = float(np.sum((y - y.mean()) ** 2))
        return 1.0 - sse / sst if sst > 0 else 0.0

    def impurity_importance(self) -> np.ndarray:
        gains = np.zeros(len(self.predictors))
        for tree in self.trees:
            gains += tree.gains
        return gains / len(self.trees)


def fit_forest(data: Dataset, response: str, cfg: ForestConfig) -> ForestModel:
    """Grow ntree bootstrap CART trees for ``response``; deterministic in
    the seed, with one derived stream per tree."""
    predictors = tuple(v for v in data.variables.names if v != response)
    if not predictors:
        raise ValueError("no predictor columns")
    cols = [data.variables.index(v) for v in predictors]
    x = data.rows[:, cols]
    y = data.column(response)
    n = x.shape[0]
    if n < 2 * cfg.min_leaf:
        raise InsufficientRowsError(f"need at least {2 * cfg.min_leaf} rows")
    mtry = cfg.resolved_mtry(len(predictors))

    trees = []
    oob_rows = []
    for t in range(cfg.ntree):
        rng = rng_from(split_seed(cfg.seed, 3, t))
        drawn = rng.integers(0, n, size=n)
        in_bag = np.zeros(n, dtype=bool)
        in_bag[drawn] = True
        tree = _Tree(len(predictors))
        _grow(tree, x, y, np.sort(drawn), mtry, cfg.min_leaf, rng)
        tree.freeze()
        trees.append(tree)
        oob_rows.append(np.flatnonzero(~in_bag))
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
    permuted copies in one call."""
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
    bump = np.zeros((repeats, p))
    for (tree, oob), drawn in zip(usable, perms):
        # block 0 holds the OOB rows as they are, block 1 + r * p + j the
        # rows with predictor j permuted by repeat r's draw
        x_oob = model.x[oob]
        stacked = np.tile(x_oob, (1 + copies, 1, 1))
        stacked[1 + copy, :, feature] = x_oob[drawn, feature[:, None]]
        pred = tree.predict(stacked.reshape(-1, p)).reshape(1 + copies, oob.size)
        errs = np.mean((model.y[oob] - pred) ** 2, axis=1)
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

    Each fold grows one forest of cfg.ntree = max(ntrees) trees and adds
    their test predictions one tree at a time, as ``ForestModel.predict``
    does; tree t's stream does not depend on ntree, so the running sum
    after tree k divided by k is the k-tree forest's prediction, float for
    float."""
    if k_repeats < 1:
        raise ValueError(f"k_repeats must be >= 1, got {k_repeats}")
    if not 2 <= k_folds <= data.n:
        raise ValueError(f"k_folds must be in [2, {data.n}] (the row count), "
                         f"got {k_folds}")
    if min(ntrees) < 1:
        raise ValueError("ntree must be >= 1")
    row_of = {ntree: i for i, ntree in enumerate(ntrees)}
    y_col = data.variables.index(response)
    x_cols = [i for i in range(data.rows.shape[1]) if i != y_col]
    scores = np.empty((len(ntrees), k_repeats * k_folds))
    for repeat in range(k_repeats):
        folds = _fold_assignments(data.n, k_folds, seed, repeat)
        for fold in range(k_folds):
            test = folds == fold
            model = fit_forest(data.take_rows(np.flatnonzero(~test)), response,
                               cfg)
            x_test = data.rows[test][:, x_cols]
            y_test = data.rows[test, y_col]
            sst = float(np.sum((y_test - y_test.mean()) ** 2))
            votes = np.zeros(y_test.shape[0])
            for t, tree in enumerate(model.trees, start=1):
                votes += tree.predict(x_test)
                if t in row_of:
                    sse = float(np.sum((y_test - votes / t) ** 2))
                    scores[row_of[t], repeat * k_folds + fold] = \
                        1.0 - sse / sst if sst > 0 else 0.0
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

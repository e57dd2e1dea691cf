"""Regression forests built on variance-reduction CART trees.

Trees grow on bootstrap resamples with a random candidate-feature subset
per split; the rows each tree never saw (out of bag) provide honest error
estimates, which also back the permutation importance measure.  Tuning is
repeated k-fold cross-validation over an (ntree, mtry) grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    carry the training mean."""

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

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[0])
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
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


def _best_split(x: np.ndarray, y: np.ndarray, features: np.ndarray,
                min_leaf: int) -> tuple[int, float, float] | None:
    """Best (feature, threshold, sse_reduction) over candidate features.

    Thresholds are midpoints between consecutive distinct sorted values;
    both sides must keep at least min_leaf rows.
    """
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


def _grow(tree: _Tree, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
          mtry: int, min_leaf: int, rng: np.random.Generator) -> int:
    node = tree._new_node()
    yn = y[rows]
    tree.value[node] = float(yn.mean())
    if rows.size < 2 * min_leaf or np.ptp(yn) == 0.0:
        return node
    features = rng.choice(x.shape[1], size=mtry, replace=False)
    split = _best_split(x[rows], yn, features, min_leaf)
    if split is None:
        return node
    f, threshold, gain = split
    tree.gains[f] += gain
    mask = x[rows, f] < threshold
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
    predictor at a time, averaged over repeats."""
    p = len(model.predictors)
    increases = np.zeros(p)
    baseline: list[float] = []
    usable = [(tree, oob) for tree, oob in zip(model.trees, model.oob_rows)
              if oob.size > 1]
    for tree, oob in usable:
        err = float(np.mean((model.y[oob] - tree.predict(model.x[oob])) ** 2))
        baseline.append(err)
    for r in range(repeats):
        rng = rng_from(split_seed(seed, 4, r))
        for j in range(p):
            bump = 0.0
            for (tree, oob), err in zip(usable, baseline):
                x_perm = model.x[oob].copy()
                x_perm[:, j] = x_perm[rng.permutation(oob.size), j]
                perm_err = float(np.mean((model.y[oob] - tree.predict(x_perm)) ** 2))
                bump += perm_err - err
            increases[j] += bump / len(usable)
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


def _cv_r2(data: Dataset, response: str, cfg: ForestConfig, k_repeats: int,
           k_folds: int, seed: int) -> np.ndarray:
    """Held-out R^2 per (repeat, fold), SS_tot around the fold mean."""
    y_col = data.variables.index(response)
    x_cols = [i for i in range(data.rows.shape[1]) if i != y_col]
    scores = []
    for repeat in range(k_repeats):
        folds = _fold_assignments(data.n, k_folds, seed, repeat)
        for fold in range(k_folds):
            test = folds == fold
            train = ~test
            model = fit_forest(data.take_rows(np.flatnonzero(train)), response,
                               cfg)
            pred = model.predict(data.rows[test][:, x_cols])
            y_test = data.rows[test, y_col]
            sst = float(np.sum((y_test - y_test.mean()) ** 2))
            sse = float(np.sum((y_test - pred) ** 2))
            scores.append(1.0 - sse / sst if sst > 0 else 0.0)
    return np.asarray(scores)


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
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    cells = []
    for ntree, mtry in grid:
        cfg = ForestConfig(ntree=ntree, mtry=mtry, min_leaf=min_leaf, seed=seed)
        scores = _cv_r2(data, response, cfg, k_repeats, k_folds, seed)
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
    from dataclasses import replace

    if drop == response or drop not in data.variables.names:
        raise ValueError(f"{drop!r} is not a predictor column")
    p_without = len(data.variables) - 2
    if p_without < 1:
        raise ValueError("dropping the only predictor leaves nothing to fit")
    mtry_without = min(cfg.resolved_mtry(p_without + 1), p_without)
    cfg_without = replace(cfg, mtry=mtry_without)
    with_scores = _cv_r2(data, response, cfg, k_repeats, k_folds, seed)
    without_scores = _cv_r2(data.drop(drop), response, cfg_without,
                            k_repeats, k_folds, seed)
    return float(with_scores.mean()), float(without_scores.mean())

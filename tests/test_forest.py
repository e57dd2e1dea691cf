import re

import numpy as np
import pytest

from relqual.dag import VariableSet
from relqual.data import Dataset
from relqual.forest import (
    ForestConfig,
    _predict_all,
    ablate_predictor,
    fit_forest,
    permutation_importance,
    tune_forest,
)
from relqual.ols import InsufficientRowsError, NonPositiveValuesError, fit_power_law


def make_data(n, columns, seed=0):
    rng = np.random.default_rng(seed)
    cols = {}
    for name, fn in columns.items():
        cols[name] = fn(rng, cols)
    names = list(columns)
    return Dataset(VariableSet(names), np.column_stack([cols[k] for k in names]))


def test_constant_response_predicts_constant():
    data = make_data(60, {
        "x": lambda rng, c: rng.standard_normal(60),
        "y": lambda rng, c: np.full(60, 7.0),
    })
    model = fit_forest(data, "y", ForestConfig(ntree=10, seed=0))
    assert np.allclose(model.predict(data.rows[:, :1]), 7.0)


def test_oob_r2_high_on_noiseless_identity():
    data = make_data(500, {
        "x": lambda rng, c: rng.uniform(-3, 3, 500),
        "y": lambda rng, c: c["x"].copy(),
    })
    model = fit_forest(data, "y", ForestConfig(ntree=60, mtry=1, seed=1))
    assert model.oob_r2() >= 0.9


def test_oob_r2_low_on_pure_noise():
    low = 0
    for rep in range(50):
        data = make_data(120, {
            "x1": lambda rng, c: rng.standard_normal(120),
            "x2": lambda rng, c: rng.standard_normal(120),
            "y": lambda rng, c: rng.standard_normal(120),
        }, seed=100 + rep)
        model = fit_forest(data, "y", ForestConfig(ntree=30, seed=rep))
        low += model.oob_r2() <= 0.1
    assert low >= 45


def test_forest_prediction_is_mean_of_trees():
    data = make_data(100, {
        "x": lambda rng, c: rng.standard_normal(100),
        "y": lambda rng, c: c["x"] + rng.standard_normal(100),
    })
    model = fit_forest(data, "y", ForestConfig(ntree=7, seed=3))
    grid = np.linspace(-2, 2, 9)[:, None]
    stacked = np.mean(_predict_all(model.trees, [grid] * len(model.trees)), axis=0)
    assert np.allclose(model.predict(grid), stacked)


def test_oob_rows_disjoint_from_bootstrap():
    data = make_data(80, {
        "x": lambda rng, c: rng.standard_normal(80),
        "y": lambda rng, c: rng.standard_normal(80),
    })
    model = fit_forest(data, "y", ForestConfig(ntree=20, seed=5))
    from relqual.rng import rng_from, split_seed
    for t, oob in enumerate(model.oob_rows):
        drawn = rng_from(split_seed(5, 3, t)).integers(0, 80, size=80)
        assert not set(oob) & set(drawn.tolist())


def test_deterministic_given_seed():
    data = make_data(100, {
        "x": lambda rng, c: rng.standard_normal(100),
        "y": lambda rng, c: c["x"] + 0.3 * rng.standard_normal(100),
    })
    a = fit_forest(data, "y", ForestConfig(ntree=15, seed=9))
    b = fit_forest(data, "y", ForestConfig(ntree=15, seed=9))
    assert np.array_equal(a.predict(data.rows[:, :1]), b.predict(data.rows[:, :1]))


def informative_vs_noise(seed, n=200):
    return make_data(n, {
        "x1": lambda rng, c: rng.standard_normal(n),
        "x2": lambda rng, c: rng.standard_normal(n),
        "y": lambda rng, c: 3 * c["x1"] + rng.standard_normal(n),
    }, seed=seed)


def test_importance_ranks_informative_over_noise():
    hits = 0
    for rep in range(50):
        data = informative_vs_noise(300 + rep)
        model = fit_forest(data, "y", ForestConfig(ntree=30, seed=rep))
        report = permutation_importance(model, repeats=3, seed=rep)
        by_name = dict(zip(report.predictors, report.permutation))
        hits += by_name["x1"] > by_name["x2"]
    assert hits >= 48


def test_importance_of_pure_noise_centers_on_zero():
    # sign test: irrelevant predictors should drop below zero about as
    # often as above
    signs = []
    for rep in range(40):
        data = make_data(150, {
            "x1": lambda rng, c: rng.standard_normal(150),
            "x2": lambda rng, c: rng.standard_normal(150),
            "y": lambda rng, c: rng.standard_normal(150),
        }, seed=600 + rep)
        model = fit_forest(data, "y", ForestConfig(ntree=25, seed=rep))
        report = permutation_importance(model, repeats=2, seed=rep)
        signs.extend(np.sign(report.permutation))
    positives = sum(1 for s in signs if s > 0)
    # two-sided binomial band at ~4 sigma around n/2
    assert abs(positives - len(signs) / 2) <= 2 * np.sqrt(len(signs))


def test_duplicate_informative_predictor_outranks_noise():
    hits = 0
    for rep in range(20):
        n = 200
        data = make_data(n, {
            "x1": lambda rng, c: rng.standard_normal(n),
            "dup": lambda rng, c: c["x1"] + 0.01 * rng.standard_normal(n),
            "n1": lambda rng, c: rng.standard_normal(n),
            "n2": lambda rng, c: rng.standard_normal(n),
            "y": lambda rng, c: 2 * c["x1"] + 0.5 * rng.standard_normal(n),
        }, seed=900 + rep)
        model = fit_forest(data, "y", ForestConfig(ntree=40, seed=rep))
        report = permutation_importance(model, repeats=3, seed=rep)
        by_name = dict(zip(report.predictors, report.permutation))
        hits += (by_name["x1"] > max(by_name["n1"], by_name["n2"]) and
                 by_name["dup"] > max(by_name["n1"], by_name["n2"]))
    assert hits >= 18


def test_importance_ranks_are_permutation():
    data = informative_vs_noise(7)
    model = fit_forest(data, "y", ForestConfig(ntree=20, seed=0))
    report = permutation_importance(model, repeats=2, seed=0)
    assert sorted(report.ranks) == [1, 2]


def test_tune_single_cell_is_best():
    data = informative_vs_noise(11, n=80)
    result = tune_forest(data, "y", ((20, 1),), k_repeats=2, k_folds=2, seed=0)
    assert result.best.ntree == 20 and result.best.mtry == 1
    assert len(result.cells) == 1
    assert result.cells[0].sd_r2 >= 0.0


def test_tune_prefers_full_mtry_on_joint_signal():
    n = 300
    data = make_data(n, {
        "x1": lambda rng, c: rng.standard_normal(n),
        "x2": lambda rng, c: rng.standard_normal(n),
        "x3": lambda rng, c: rng.standard_normal(n),
        "y": lambda rng, c: c["x1"] + c["x2"] + c["x3"] + 0.1 * rng.standard_normal(n),
    }, seed=13)
    result = tune_forest(data, "y", ((40, 1), (40, 3)), k_repeats=3,
                         k_folds=2, seed=2)
    assert result.best.mtry == 3


def test_ablate_informative_column_collapses_r2():
    data = informative_vs_noise(17, n=250)
    with_r2, without_r2 = ablate_predictor(
        data, "y", "x1", ForestConfig(ntree=30, seed=0), k_repeats=3,
        k_folds=2, seed=4)
    assert with_r2 - without_r2 > 0.3
    assert without_r2 <= 0.15


def test_ablate_irrelevant_column_changes_little():
    data = informative_vs_noise(23, n=250)
    with_r2, without_r2 = ablate_predictor(
        data, "y", "x2", ForestConfig(ntree=30, seed=0), k_repeats=3,
        k_folds=2, seed=4)
    assert abs(with_r2 - without_r2) < 0.1


def test_importance_without_usable_oob_rows_names_the_cause():
    data = Dataset(VariableSet(["a", "b", "y"]),
                   np.random.default_rng(0).standard_normal((10, 3)))
    model = fit_forest(data, "y", ForestConfig(ntree=1, seed=185))
    assert all(oob.size < 2 for oob in model.oob_rows)
    with pytest.raises(InsufficientRowsError, match="two or more out-of-bag rows"):
        permutation_importance(model)


def test_oob_r2_without_out_of_bag_rows_names_the_cause():
    # both rows drawn into the one tree's bootstrap: no row is ever held out
    data = Dataset(VariableSet(["x", "y"]), np.array([[0.0, 1.0], [1.0, 3.0]]))
    model = fit_forest(data, "y", ForestConfig(ntree=1, min_leaf=1, seed=1))
    assert model.oob_rows[0].size == 0
    with pytest.raises(InsufficientRowsError, match="no row is out of bag"):
        model.oob_r2()


def test_importance_rejects_zero_repeats():
    model = fit_forest(informative_vs_noise(3, n=60), "y", ForestConfig(ntree=5))
    with pytest.raises(ValueError, match="repeats must be >= 1, got 0"):
        permutation_importance(model, repeats=0)


CV_SETTINGS_THAT_SCORE_NOTHING = [
    ({"k_repeats": 0}, "k_repeats must be >= 1, got 0"),
    ({"k_folds": 61}, "k_folds must be in [2, 60] (the row count), got 61"),
    ({"k_folds": 1}, "k_folds must be in [2, 60] (the row count), got 1"),
]


@pytest.mark.parametrize("kwargs, message", CV_SETTINGS_THAT_SCORE_NOTHING)
def test_cv_rejects_settings_that_score_nothing(kwargs, message):
    data = informative_vs_noise(5, n=60)
    with pytest.raises(ValueError, match=re.escape(message)):
        tune_forest(data, "y", ((5, 1),), **kwargs)
    with pytest.raises(ValueError, match=re.escape(message)):
        ablate_predictor(data, "y", "x2", ForestConfig(ntree=5), **kwargs)


def test_tune_rejects_a_cell_without_trees():
    with pytest.raises(ValueError, match="ntree must be >= 1"):
        tune_forest(informative_vs_noise(5, n=60), "y", ((5, 1), (0, 1)),
                    k_repeats=1)


def test_power_law_exact_square():
    x = np.linspace(1, 5, 40)
    data = Dataset(VariableSet(["x", "y"]), np.column_stack([x, x ** 2]))
    fit = fit_power_law(data, "y", "x")
    assert fit.exponent == pytest.approx(2.0, abs=1e-10)
    assert fit.ci_high - fit.ci_low < 1e-8


def test_power_law_rescaling_invariance():
    rng = np.random.default_rng(31)
    x = rng.uniform(1, 10, 200)
    y = 3 * x ** 1.3 * np.exp(0.05 * rng.standard_normal(200))
    base = Dataset(VariableSet(["x", "y"]), np.column_stack([x, y]))
    scaled = Dataset(VariableSet(["x", "y"]), np.column_stack([x * 1000, y]))
    a = fit_power_law(base, "y", "x")
    b = fit_power_law(scaled, "y", "x")
    assert a.exponent == pytest.approx(b.exponent, abs=1e-12)


def test_power_law_rejects_nonpositive():
    data = Dataset(VariableSet(["x", "y"]),
                   np.column_stack([[1.0, 2.0, 0.0], [1.0, 2.0, 3.0]]))
    with pytest.raises(NonPositiveValuesError):
        fit_power_law(data, "y", "x")


def test_power_law_ci_coverage():
    covered = 0
    for rep in range(300):
        rng = np.random.default_rng(5000 + rep)
        exponent = rng.uniform(1.0, 1.6)
        x = rng.uniform(1, 20, 120)
        y = 2.0 * x ** exponent * np.exp(0.3 * rng.standard_normal(120))
        data = Dataset(VariableSet(["x", "y"]), np.column_stack([x, y]))
        fit = fit_power_law(data, "y", "x")
        covered += fit.ci_low <= exponent <= fit.ci_high
    assert 0.91 <= covered / 300 <= 0.99

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.dag import Dag, VariableSet
from relqual.data import Dataset, DiscreteDataset
from relqual.discretize import (
    EQUAL_FREQUENCY,
    EQUAL_INTERVAL,
    HARTEMINK,
    KMEANS,
    DegenerateColumnError,
    DiscreteScoreCache,
    DiscretizationSpec,
    bic_discrete,
    discretize,
)

ONE = VariableSet(["X"])


def pairwise_mutual_information(data):
    """Plug-in mutual information (nats) of every variable pair of the
    level-coded ``data``: symmetric, with each variable's marginal entropy
    on the diagonal."""
    p = len(data.levels)
    out = np.zeros((p, p))
    for a in range(p):
        for b in range(a, p):
            joint = np.zeros((data.levels[a], data.levels[b]))
            np.add.at(joint, (data.rows[:, a], data.rows[:, b]), 1.0 / data.n)
            outer = joint.sum(axis=1)[:, None] * joint.sum(axis=0)
            seen = joint > 0
            mi = float(np.sum(joint[seen] * np.log(joint[seen] / outer[seen])))
            out[a, b] = out[b, a] = max(mi, 0.0)
    return out


def one_col(values):
    return Dataset(ONE, np.asarray(values, dtype=float)[:, None])


def test_equal_frequency_median_split():
    out = discretize(one_col([1, 2, 3, 4]), DiscretizationSpec(EQUAL_FREQUENCY, 2))
    assert out.dataset.rows[:, 0].tolist() == [0, 0, 1, 1]


def test_equal_interval_midpoint():
    out = discretize(one_col([0, 0.1, 0.2, 10]), DiscretizationSpec(EQUAL_INTERVAL, 2))
    assert out.dataset.rows[:, 0].tolist() == [0, 0, 0, 1]


def brute_force_two_means_split(values):
    # try every split point; minimize within-cluster SSE
    values = sorted(values)
    best = None
    for cut in range(1, len(values)):
        left, right = np.array(values[:cut]), np.array(values[cut:])
        sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        if best is None or sse < best[0]:
            best = (sse, cut)
    return best[1]


def test_kmeans_matches_brute_force():
    values = [0, 0.1, 9.9, 10]
    cut = brute_force_two_means_split(values)
    out = discretize(one_col(values), DiscretizationSpec(KMEANS, 2))
    expected = [0] * cut + [1] * (len(values) - cut)
    assert out.dataset.rows[:, 0].tolist() == expected == [0, 0, 1, 1]


def test_equal_interval_rejects_constant_column():
    with pytest.raises(DegenerateColumnError):
        discretize(one_col([3, 3, 3]), DiscretizationSpec(EQUAL_INTERVAL, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        DiscretizationSpec("quantile", 2)
    with pytest.raises(ValueError):
        DiscretizationSpec(EQUAL_INTERVAL, 1)
    with pytest.raises(ValueError):
        DiscretizationSpec(HARTEMINK, 5, hartemink_initial_bins=3)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=6, max_size=40,
             unique=True),
    st.sampled_from([EQUAL_INTERVAL, EQUAL_FREQUENCY, KMEANS]),
    st.integers(2, 4),
)
def test_binning_is_monotone(values, method, bins):
    data = one_col(values)
    out = discretize(data, DiscretizationSpec(method, bins))
    order = np.argsort(data.rows[:, 0])
    levels = out.dataset.rows[order, 0]
    assert np.all(np.diff(levels) >= 0)
    assert levels.max() < bins


def hartemink_fixture(seed=0, n=120):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = a + 0.3 * rng.standard_normal(n)
    c = rng.standard_normal(n)
    return Dataset(VariableSet(["a", "b", "c"]), np.column_stack([a, b, c]))


def test_hartemink_reaches_target_levels_and_is_monotone():
    data = hartemink_fixture()
    out = discretize(data, DiscretizationSpec(HARTEMINK, 3, hartemink_initial_bins=12))
    assert out.dataset.levels == (3, 3, 3)
    for j in range(3):
        order = np.argsort(data.rows[:, j])
        assert np.all(np.diff(out.dataset.rows[order, j]) >= 0)
    # correlated pair should retain more information than the noise column
    mi = pairwise_mutual_information(out.dataset)
    assert mi[0, 1] > mi[0, 2]


def test_hartemink_total_mi_not_below_direct_merge_floor():
    # the greedy merge path keeps total pairwise MI at or above a plain
    # equal-frequency reduction to the same number of bins
    data = hartemink_fixture(seed=3)
    greedy = discretize(data, DiscretizationSpec(HARTEMINK, 3, hartemink_initial_bins=16))
    plain = discretize(data, DiscretizationSpec(EQUAL_FREQUENCY, 3))
    off_diag = ~np.eye(3, dtype=bool)
    assert pairwise_mutual_information(greedy.dataset)[off_diag].sum() >= \
        pairwise_mutual_information(plain.dataset)[off_diag].sum() - 1e-9


def test_bic_discrete_closed_form_single_binary():
    rows = np.array([[0]] * 5 + [[1]] * 5)
    data = DiscreteDataset(ONE, rows, (2,))
    expected = 10 * np.log(0.5) - 0.5 * np.log(10)
    assert bic_discrete(Dag(ONE), data) == pytest.approx(expected, abs=1e-12)


def test_bic_discrete_independence_prefers_empty():
    # exactly independent 4-cell table: 25 rows per joint cell
    ab = VariableSet(["A", "B"])
    rows = np.array(list(itertools.product([0, 1], [0, 1])) * 25)
    data = DiscreteDataset(ab, rows, (2, 2))
    empty = bic_discrete(Dag(ab), data)
    edge = bic_discrete(Dag.from_names(ab, [("A", "B")]), data)
    assert empty >= edge


def test_bic_discrete_decomposes():
    rng = np.random.default_rng(9)
    variables = VariableSet(["A", "B", "C"])
    rows = rng.integers(0, 3, size=(60, 3))
    data = DiscreteDataset(variables, rows, (3, 3, 3))
    dag = Dag.from_names(variables, [("A", "B"), ("B", "C")])
    cache = DiscreteScoreCache(data)
    parts = cache.family_score(0, 0) + cache.family_score(1, 1) + cache.family_score(2, 2)
    assert bic_discrete(dag, data) == parts


def test_mutual_information_identical_columns():
    rows = np.array([[0, 0], [1, 1], [1, 1], [0, 0], [1, 1]])
    data = DiscreteDataset(VariableSet(["A", "B"]), rows, (2, 2))
    mi = pairwise_mutual_information(data)
    entropy = -(2 / 5) * np.log(2 / 5) - (3 / 5) * np.log(3 / 5)
    assert mi[0, 0] == pytest.approx(entropy)
    assert mi[0, 1] == pytest.approx(entropy)
    assert mi[0, 1] == mi[1, 0]


def test_mutual_information_xor_exact_counts():
    # X,Y uniform independent; Z = X xor Y; the plug-in estimate on exact
    # counts gives MI(X,Y) = MI(X,Z) = 0 and entropy ln 2 on the diagonal
    rows = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    data = DiscreteDataset(VariableSet(["X", "Y", "Z"]), rows, (2, 2, 2))
    mi = pairwise_mutual_information(data)
    assert mi[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert mi[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert mi[1, 2] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.diag(mi), np.log(2))


def test_mutual_information_independent_columns_near_zero():
    rng = np.random.default_rng(17)
    rows = rng.integers(0, 4, size=(100_000, 2))
    data = DiscreteDataset(VariableSet(["A", "B"]), rows, (4, 4))
    assert pairwise_mutual_information(data)[0, 1] <= 0.01

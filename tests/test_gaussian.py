import numpy as np
import pytest

from relqual.dag import Dag, VariableSet
from relqual.data import Dataset
from relqual.gaussian import (
    DegenerateVarianceError,
    GaussianBn,
    GaussianScoreCache,
    bic_g,
    edge_inference,
    fit,
    implied_moments,
    simulate,
)
from relqual.ols import fit_ols

AB = VariableSet(["A", "B"])


def two_node_bn(coef=2.0, sd_a=1.0, sd_b=1.0, intercepts=(0.0, 0.0)):
    dag = Dag.from_names(AB, [("A", "B")])
    return GaussianBn(dag, np.array(intercepts),
                      (np.empty(0), np.array([coef])), np.array([sd_a, sd_b]))


def random_six_node_bn(seed=0):
    rng = np.random.default_rng(seed)
    variables = VariableSet(f"V{i}" for i in range(6))
    edges = frozenset({(0, 2), (1, 2), (2, 3), (3, 4), (1, 5), (4, 5)})
    dag = Dag(variables, edges)
    coefs = tuple(rng.uniform(0.5, 1.5, size=len(dag.parents(i))) *
                  rng.choice([-1.0, 1.0], size=len(dag.parents(i)))
                  for i in range(6))
    return GaussianBn(dag, rng.normal(0, 1, 6), coefs, rng.uniform(0.5, 1.5, 6))


def test_fit_empty_dag_means_and_ml_sd():
    rng = np.random.default_rng(1)
    rows = rng.normal(3.0, 2.0, size=(40, 2))
    data = Dataset(AB, rows)
    bn = fit(Dag(AB), data)
    assert np.allclose(bn.intercepts, rows.mean(axis=0))
    assert np.allclose(bn.residual_sds, rows.std(axis=0))  # ML: divide by n


def test_fit_exact_linear_relation():
    a = np.linspace(1, 4, 12)
    data = Dataset(AB, np.column_stack([a, 2 * a]))
    bn = fit(Dag.from_names(AB, [("A", "B")]), data)
    assert bn.coefficients[1] == pytest.approx([2.0], abs=1e-12)
    assert bn.residual_sds[1] == pytest.approx(0.0, abs=1e-10)


def test_fit_recovers_generating_coefficients():
    truth = random_six_node_bn(seed=5)
    data = simulate(truth, 10_000, seed=6)
    refit = fit(truth.dag, data)
    n = data.n
    for node in range(6):
        parents = truth.dag.parents(node)
        if not parents:
            continue
        res = fit_ols(data.rows[:, node], data.rows[:, parents])
        for est, true, se in zip(refit.coefficients[node],
                                 truth.coefficients[node], res.std_errors):
            assert abs(est - true) < 3 * se


def test_simulate_deterministic_and_degenerate():
    bn = GaussianBn(Dag(AB), np.array([1.0, 2.0]),
                    (np.empty(0), np.empty(0)), np.array([0.0, 0.0]))
    data = simulate(bn, 5, seed=0)
    assert np.all(data.rows == [1.0, 2.0])
    noisy = two_node_bn()
    assert np.array_equal(simulate(noisy, 100, seed=7).rows,
                          simulate(noisy, 100, seed=7).rows)
    assert not np.array_equal(simulate(noisy, 100, seed=7).rows,
                              simulate(noisy, 100, seed=8).rows)


def test_simulate_chain_covariance_ratio():
    # law of large numbers: cov(A,B)/var(A) -> coefficient
    data = simulate(two_node_bn(coef=1.0), 100_000, seed=3)
    cov = np.cov(data.rows, rowvar=False)
    assert abs(cov[0, 1] / cov[0, 0] - 1.0) < 0.05


def test_implied_moments_no_edges():
    bn = GaussianBn(Dag(AB), np.array([1.0, 2.0]),
                    (np.empty(0), np.empty(0)), np.array([3.0, 4.0]))
    mean, cov = implied_moments(bn)
    assert np.allclose(mean, [1.0, 2.0])
    assert np.allclose(cov, np.diag([9.0, 16.0]))


def test_implied_moments_chain_closed_form():
    bn = two_node_bn(coef=1.5, sd_a=2.0, sd_b=0.5)
    mean, cov = implied_moments(bn)
    assert cov[0, 1] == pytest.approx(1.5 * 4.0)
    assert cov[1, 1] == pytest.approx(1.5 ** 2 * 4.0 + 0.25)


def test_implied_moments_match_simulation():
    bn = random_six_node_bn(seed=11)
    mean, cov = implied_moments(bn)
    data = simulate(bn, 200_000, seed=12)
    sample_mean = data.rows.mean(axis=0)
    sample_cov = np.cov(data.rows, rowvar=False)
    assert np.all(np.abs(sample_mean - mean) < 0.02 * np.maximum(1.0, np.abs(mean)))
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(sample_cov - cov) / scale < 0.02)


def test_bic_g_closed_form_single_column():
    rng = np.random.default_rng(2)
    col = rng.standard_normal(50)
    data = Dataset(VariableSet(["A"]), col[:, None])
    n = 50
    sigma2 = col.var()
    expected = -n / 2 * (np.log(2 * np.pi * sigma2) + 1) - (2 / 2) * np.log(n)
    assert bic_g(Dag(VariableSet(["A"])), data) == pytest.approx(expected, abs=1e-9)


def test_bic_g_decomposes_and_penalty_step():
    truth = random_six_node_bn(seed=21)
    data = simulate(truth, 300, seed=22)
    cache = GaussianScoreCache(data)
    total = bic_g(truth.dag, data)
    parts = 0.0
    for node in range(6):
        mask = 0
        for p in truth.dag.parents(node):
            mask |= 1 << p
        parts += cache.family_score(node, mask)
    assert total == parts  # exact equality by construction

    # fixed likelihood: one extra parameter costs exactly ln(n)/2
    flat = Dataset(AB, np.column_stack([data.rows[:, 0], data.rows[:, 1]]))
    c = GaussianScoreCache(flat)
    sse_only = c.family_score(1, 0)
    n = flat.n
    sigma2_full = np.cov(flat.rows, rowvar=False, bias=True)
    resid = sigma2_full[1, 1] - sigma2_full[0, 1] ** 2 / sigma2_full[0, 0]
    loglik = -n / 2 * (np.log(2 * np.pi * resid) + 1)
    assert c.family_score(1, 1) == pytest.approx(loglik - (3 / 2) * np.log(n))
    assert sse_only == pytest.approx(
        -n / 2 * (np.log(2 * np.pi * sigma2_full[1, 1]) + 1) - np.log(n))


def test_bic_g_prefers_empty_graph_on_independent_noise():
    # Analytic null oracle: the edge wins iff r^2 exceeds 1 - n^(-1/n), and
    # under independence r^2 ~ Beta(1/2, (n-2)/2).  The Monte-Carlo rate
    # must track that closed form.
    from scipy import stats

    n = 50
    analytic_rate = float(stats.beta.cdf(1 - n ** (-1 / n), 0.5, (n - 2) / 2))
    assert analytic_rate > 0.94

    empty = Dag(AB)
    single = Dag.from_names(AB, [("A", "B")])
    wins = 0
    for rep in range(200):
        rng = np.random.default_rng(1000 + rep)
        data = Dataset(AB, rng.standard_normal((n, 2)))
        if bic_g(empty, data) > bic_g(single, data):
            wins += 1
    tolerance = 4 * np.sqrt(analytic_rate * (1 - analytic_rate) / 200)
    assert abs(wins / 200 - analytic_rate) <= tolerance


def test_bic_g_degenerate_variance():
    a = np.linspace(0, 1, 30)
    data = Dataset(AB, np.column_stack([a, 2 * a]))
    with pytest.raises(DegenerateVarianceError):
        bic_g(Dag.from_names(AB, [("A", "B")]), data)


def test_edge_inference_overwhelming_signal():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(100)
    b = 2 * a + rng.normal(0, 1e-6, 100)
    data = Dataset(AB, np.column_stack([a, b]))
    inf = edge_inference(Dag.from_names(AB, [("A", "B")]), data)
    assert inf.p_values[(0, 1)] < 1e-10


def test_edge_inference_hand_dataset_perfect_fit():
    data = Dataset(AB, np.column_stack([[1, 2, 3, 4], [2, 4, 6, 8]]))
    inf = edge_inference(Dag.from_names(AB, [("A", "B")]), data)
    assert inf.coefficients[(0, 1)] == pytest.approx(2.0, abs=1e-12)
    assert inf.p_values[(0, 1)] < 1e-300
    assert inf.adjusted_r2[1] == pytest.approx(1.0, abs=1e-12)
    assert inf.adjusted_r2[0] == 0.0


@pytest.mark.parametrize("level", [0.0, 0.1, 3.0, 1e6])
def test_fit_ols_constant_response_has_no_slope(level):
    """Rounding in the solve is not evidence: whatever the constant, every
    coefficient is exactly 0 with p = 1, and R^2 is 0."""
    x = np.arange(30.0)
    for design in (x, np.column_stack([x, x ** 2])):
        res = fit_ols(np.full(30, level), design)
        assert res.intercept == level
        assert np.all(res.coefficients == 0.0)
        assert np.all(res.p_values == 1.0)
        assert res.sse == 0.0 and res.r_squared == 0.0


def test_edge_inference_null_p_values_uniform():
    hits = 0
    for rep in range(1000):
        rng = np.random.default_rng(20_000 + rep)
        data = Dataset(AB, rng.standard_normal((100, 2)))
        inf = edge_inference(Dag.from_names(AB, [("A", "B")]), data)
        p = inf.p_values[(0, 1)]
        assert 0.0 <= p <= 1.0
        if p < 0.05:
            hits += 1
    assert 0.03 <= hits / 1000 <= 0.07


def test_bn_json_round_trip():
    bn = random_six_node_bn(seed=31)
    again = GaussianBn.from_json(bn.to_json())
    assert again.dag == bn.dag
    assert np.allclose(again.intercepts, bn.intercepts)
    for a, b in zip(again.coefficients, bn.coefficients):
        assert np.allclose(a, b)
    assert np.allclose(again.residual_sds, bn.residual_sds)

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.dag import Dag, VariableSet, enumerate_dags, count_dags, topological_order
from relqual.data import Dataset
from relqual.gaussian import GaussianBn, GaussianScoreCache, bic_g, simulate
from relqual.search import (
    ArcConfidence,
    HcConfig,
    ScoreLearner,
    averaged_network,
    bootstrap_average,
    exact_map_edge_probabilities,
    hc_learner,
    hill_climb,
    hybrid_search,
    map_dag,
    map_learner,
    restrict_gs,
    restrict_mmpc,
    _dag_weight_sums,
    _edge_posteriors,
    _sink_tables,
    _table,
)
from relqual.rng import split_seed
from relqual.simstudy import default_truth
from test_search_oracle import masks

AB = VariableSet(["A", "B"])
ABC = VariableSet(["A", "B", "C"])


def strong_pair_data(n=500, seed=0, coef=5.0, sd_b=0.1):
    bn = GaussianBn(Dag.from_names(AB, [("A", "B")]), np.zeros(2),
                    (np.empty(0), np.array([coef])), np.array([1.0, sd_b]))
    return simulate(bn, n, seed=seed)


def chain_data(n=2000, seed=0, c1=1.0, c2=1.0):
    bn = GaussianBn(Dag.from_names(ABC, [("A", "B"), ("B", "C")]),
                    np.zeros(3),
                    (np.empty(0), np.array([c1]), np.array([c2])),
                    np.ones(3))
    return simulate(bn, n, seed=seed)


def test_hill_climb_recovers_strong_pair_at_global_optimum():
    data = strong_pair_data()
    learned = hill_climb(data, HcConfig(restarts=3, seed=1))
    assert learned.edges in (frozenset({(0, 1)}), frozenset({(1, 0)}))
    best = max(bic_g(d, data) for d in enumerate_dags(2, AB))
    assert bic_g(learned, data) == pytest.approx(best, abs=1e-9)


def test_hill_climb_empty_on_independent_columns():
    wins = 0
    for rep in range(100):
        rng = np.random.default_rng(3000 + rep)
        data = Dataset(AB, rng.standard_normal((500, 2)))
        learned = hill_climb(data, HcConfig(restarts=2, seed=rep))
        wins += not learned.edges
    assert wins >= 95


def test_hill_climb_matches_exhaustive_three_node_oracle():
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(4000 + rep)
        rows = rng.standard_normal((120, 3))
        rows[:, 1] += 0.8 * rows[:, 0]
        rows[:, 2] += rng.uniform(-1, 1) * rows[:, 1]
        data = Dataset(ABC, rows)
        learned = hill_climb(data, HcConfig(restarts=10, seed=rep))
        best = max(bic_g(d, data) for d in enumerate_dags(3, ABC))
        hits += abs(bic_g(learned, data) - best) < 1e-9
    assert hits >= 90


def test_hill_climb_score_at_least_empty_graph():
    for rep in range(5):
        rng = np.random.default_rng(rep)
        data = Dataset(ABC, rng.standard_normal((80, 3)))
        learned = hill_climb(data, HcConfig(restarts=3, seed=rep))
        assert bic_g(learned, data) >= bic_g(Dag(ABC), data) - 1e-12


def test_hill_climb_deterministic():
    data = chain_data(n=300, seed=9)
    cfg = HcConfig(restarts=5, seed=42)
    assert hill_climb(data, cfg) == hill_climb(data, cfg)


def test_hill_climb_respects_max_parents():
    rng = np.random.default_rng(8)
    variables = VariableSet(["A", "B", "C", "D"])
    rows = rng.standard_normal((400, 4))
    rows[:, 3] = rows[:, 0] + rows[:, 1] + rows[:, 2] + 0.1 * rows[:, 3]
    data = Dataset(variables, rows)
    learned = hill_climb(data, HcConfig(restarts=3, max_parents=2, seed=0))
    assert all(len(learned.parents(i)) <= 2 for i in range(4))


def test_restrict_gs_chain():
    hits = 0
    for rep in range(100):
        pairs = restrict_gs(chain_data(seed=5000 + rep), alpha=0.05)
        hits += pairs == frozenset({(0, 1), (1, 2)})
    assert hits >= 90


def test_restrict_gs_independent_empty():
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(6000 + rep)
        data = Dataset(ABC, rng.standard_normal((500, 3)))
        hits += restrict_gs(data, alpha=0.01) == frozenset()
    assert hits >= 90


def test_restrict_gs_perfect_correlation():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(200)
    data = Dataset(AB, np.column_stack([a, a * 2.0]))
    assert restrict_gs(data, alpha=0.05) == frozenset({(0, 1)})


def test_restrict_mmpc_chain_and_null():
    hits = 0
    for rep in range(100):
        pairs = restrict_mmpc(chain_data(seed=7000 + rep), alpha=0.05)
        hits += pairs == frozenset({(0, 1), (1, 2)})
    assert hits >= 90
    nulls = 0
    for rep in range(100):
        rng = np.random.default_rng(8000 + rep)
        data = Dataset(ABC, rng.standard_normal((500, 3)))
        nulls += restrict_mmpc(data, alpha=0.01) == frozenset()
    assert nulls >= 90


def test_restrict_mmpc_perfect_correlation():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(200)
    data = Dataset(AB, np.column_stack([a, -a]))
    assert restrict_mmpc(data, alpha=0.05) == frozenset({(0, 1)})


def test_hybrid_empty_restrict_yields_empty_dag():
    data = chain_data(n=200, seed=1)
    learned = hill_climb(data, HcConfig(restarts=3, seed=0), restrict=frozenset())
    assert learned.edges == frozenset()


def test_hybrid_full_restrict_equals_plain_climb():
    data = chain_data(n=200, seed=2)
    cfg = HcConfig(restarts=4, seed=3)
    all_pairs = frozenset((a, b) for a in range(3) for b in range(a + 1, 3))
    assert hill_climb(data, cfg, restrict=all_pairs) == hill_climb(data, cfg)


def test_restrict_pairs_are_unordered():
    data = simulate(default_truth(), 200, seed=1)
    cfg = HcConfig(restarts=2)
    learned = hill_climb(data, cfg, restrict=frozenset({(2, 3)}))
    assert learned.edges == frozenset({(2, 3)})
    assert hill_climb(data, cfg, restrict=frozenset({(3, 2)})) == learned
    assert hill_climb(data, cfg, restrict=frozenset({(3, 2), (2, 3)})) == learned


@pytest.mark.parametrize("pair", [(2, 9), (9, 2), (-1, 2), (6, 0), (4, 4)])
def test_restrict_pairs_outside_the_variables_are_refused(pair):
    data = simulate(default_truth(), 200, seed=1)
    with pytest.raises(ValueError, match=rf"restrict pair \({pair[0]}, {pair[1]}\)"):
        hill_climb(data, HcConfig(restarts=2), restrict=frozenset({(0, 1), pair}))


@pytest.mark.parametrize("restrict", [
    frozenset({(0, 1), (1, 2)}),   # a set of pairs: one dataset's restrict
    frozenset({(0, 1)}),
    [frozenset({(0, 1)}), 5],
    [None, frozenset({1, 2})],
], ids=["pair-set", "one-pair-set", "int-element", "set-of-ints"])
def test_a_table_takes_one_pair_set_or_none_per_seed(restrict):
    data = simulate(default_truth(), 200, seed=1)
    table = _table(data, 2, np.random.default_rng(0).integers(0, data.n, (2, data.n)))
    seeds = [split_seed(1, 2, i) for i in range(2)]
    with pytest.raises(ValueError, match=r"one pair set \(or None\) per seed"):
        hill_climb(table, HcConfig(restarts=2, max_parents=2), restrict=restrict, seed=seeds)


def test_hybrid_search_recovers_chain_skeleton():
    hits = 0
    for rep in range(20):
        data = chain_data(n=1000, seed=9000 + rep)
        learned = hybrid_search(data, 0.05, HcConfig(restarts=3, seed=rep), "gs")
        skeleton = {frozenset(e) for e in learned.edges}
        hits += skeleton == {frozenset({0, 1}), frozenset({1, 2})}
    assert hits >= 18


def test_dag_weight_sum_reduces_to_dag_counting():
    # with unit weights the best DAG weighs 1, and the inclusion-exclusion
    # recursion must count DAGs
    for p in range(1, 6):
        masks = np.arange(1 << p)
        scores = np.where((masks >> np.arange(p)[:, None]) & 1, -np.inf, 0.0)
        assert _dag_weight_sums(_sink_tables(scores))[-1] == pytest.approx(count_dags(p))


def brute_force_edge_probabilities(data, max_parents):
    p = len(data.variables)
    cache = GaussianScoreCache(data, max_parents)
    shift = {}
    for child in range(p):
        best = -np.inf
        for mask in range(1 << p):
            if mask & (1 << child) or bin(mask).count("1") > max_parents:
                continue
            best = max(best, cache.family_score(child, mask))
        shift[child] = best
    totals = np.zeros((p, p))
    denom = 0.0
    for dag in enumerate_dags(p, data.variables):
        weight = 1.0
        for child in range(p):
            mask = 0
            for parent in dag.parents(child):
                mask |= 1 << parent
            weight *= np.exp(cache.family_score(child, mask) - shift[child])
        denom += weight
        for u, v in dag.edges:
            totals[u, v] += weight
    return totals / denom


def test_exact_map_two_node_symmetry():
    rng = np.random.default_rng(11)
    data = Dataset(AB, rng.standard_normal((100, 2)))
    conf = exact_map_edge_probabilities(data)
    # score equivalence: both orientations carry identical posterior mass
    assert conf.direction[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert conf.strength[0, 1] == conf.strength[1, 0]


def test_exact_map_matches_enumeration_three_nodes():
    for rep in range(5):
        data = chain_data(n=60, seed=10_000 + rep)
        conf = exact_map_edge_probabilities(data, max_parents=2)
        expected = brute_force_edge_probabilities(data, max_parents=2)
        strength = expected + expected.T
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                assert conf.strength[a, b] == pytest.approx(strength[a, b], abs=1e-9)
                if strength[a, b] > 0:
                    assert conf.direction[a, b] == pytest.approx(
                        expected[a, b] / strength[a, b], abs=1e-9)


def test_exact_map_overwhelming_edge():
    data = strong_pair_data(n=1000, seed=13, coef=10.0, sd_b=0.01)
    conf = exact_map_edge_probabilities(data)
    assert conf.strength[0, 1] > 0.999


def test_overwhelming_edge_matches_extended_precision():
    """The family weights of this pair reach 7.2e-3014, far below float64's
    range.  Scaled by the best DAG's weight, the float64 recursion gives
    the answer that an 80-bit long double computed from unscaled weights:
    P(A -> B) = 0.5000000302421199 and P(B -> A) = 0.4999999697578801."""
    data = strong_pair_data(n=1000, seed=13, coef=10.0, sd_b=0.01)
    prob = _edge_posteriors(_table(data, 5).read_rows(slice(None))[0])
    expected = [[0.0, 0.5000000302421199], [0.4999999697578801, 0.0]]
    assert np.max(np.abs(prob - expected)) <= 1e-9


def test_map_dag_matches_exhaustive_best():
    for rep in range(10):
        data = chain_data(n=80, seed=11_000 + rep)
        best = max(bic_g(d, data) for d in enumerate_dags(3, ABC))
        assert bic_g(map_dag(data, max_parents=2), data) == pytest.approx(best, abs=1e-9)


def test_bootstrap_fixed_learner_all_strength_one():
    fixed = np.array([[0], [0b001], [0]])   # A -> B
    data = chain_data(n=50, seed=3)
    learner = ScoreLearner(1, lambda d, resamples, table, seeds:
                           fixed.repeat(len(seeds), axis=1))
    conf = bootstrap_average(data, learner, boot_samples=25, seed=0)
    assert conf.strength[0, 1] == 1.0
    assert conf.direction[0, 1] == 1.0
    assert conf.direction[1, 0] == 0.0
    assert conf.strength[0, 2] == 0.0


def test_bootstrap_direction_complement():
    # learner alternates orientation 66/34: the mirrored rows must add to 1
    def search(d, resamples, table, seeds):
        forward = np.arange(len(seeds)) < 66   # A -> B, else B -> A
        return np.stack([np.where(forward, 0, 0b10), np.where(forward, 0b01, 0)])

    data = strong_pair_data(n=40, seed=5)
    conf = bootstrap_average(data, ScoreLearner(1, search), boot_samples=100, seed=0)
    assert conf.strength[0, 1] == 1.0
    assert conf.direction[0, 1] == pytest.approx(0.66)
    assert conf.direction[1, 0] == pytest.approx(0.34)


DAGS_4 = list(enumerate_dags(4))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(DAGS_4), min_size=1, max_size=12), st.integers(0, 99))
def test_bootstrap_counts_the_masks_a_learner_returns(dags, seed):
    """A learner that returns the masks of given DAGs gets the confidence
    of counting those DAGs' edges."""
    data = Dataset(DAGS_4[0].variables,
                   np.random.default_rng(seed).standard_normal((30, 4)))
    learner = ScoreLearner(1, lambda d, resamples, table, seeds: masks(dags))
    conf = bootstrap_average(data, learner, len(dags), seed=seed)
    counts = np.zeros((4, 4))
    for dag in dags:
        for u, v in dag.edges:
            counts[u, v] += 1.0
    either = counts + counts.T
    assert np.array_equal(conf.strength, either / len(dags))
    assert np.array_equal(conf.direction, np.where(
        either > 0, counts / np.where(either > 0, either, 1.0), 0.5))


CHAIN = np.array([[0], [0b001], [0b010]]).repeat(4, axis=1)   # A -> B -> C


def test_bootstrap_accepts_masks_of_any_integer_dtype():
    data = chain_data(n=50, seed=3)
    for dtype in (np.int64, np.int8, np.uint64):
        conf = bootstrap_average(data, ScoreLearner(
            1, lambda d, resamples, table, seeds: CHAIN.astype(dtype)), 4, seed=0)
        assert conf.strength[0, 1] == conf.strength[1, 2] == 1.0
        assert conf.strength[0, 2] == 0.0


def _with(row, column, mask):
    parents = CHAIN.copy()
    parents[row, column] = mask
    return parents


@pytest.mark.parametrize("parents", [
    CHAIN[:, :3], CHAIN.T, CHAIN[:, :, None],
    CHAIN.astype(float),
    _with(0, 2, 0b010),   # B -> A with A -> B
    _with(1, 1, 0b011),   # B is its own parent
    _with(2, 0, 0b1010),  # a parent past the three nodes
    _with(2, 3, np.iinfo(np.int64).min),   # the sign bit alone
    [Dag.from_names(ABC, [("A", "B")])] * 4,
], ids=["too-few", "transposed", "three-axes", "float", "two-cycle", "self-loop",
        "bit-past-p", "negative", "dag-list"])
def test_bootstrap_refuses_what_is_not_acyclic_parent_masks(parents):
    """Three nodes and four resamples: the message names the (3, 4) shape."""
    learner = ScoreLearner(1, lambda d, resamples, table, seeds: parents)
    with pytest.raises(ValueError, match=r"\(3, 4\) int parent masks"):
        bootstrap_average(chain_data(n=50, seed=3), learner, 4, seed=0)


def test_bootstrap_deterministic_given_seed():
    data = chain_data(n=150, seed=21)
    cfg = HcConfig(restarts=2, seed=0)
    a = bootstrap_average(data, hc_learner(cfg), boot_samples=10, seed=7)
    b = bootstrap_average(data, hc_learner(cfg), boot_samples=10, seed=7)
    assert np.array_equal(a.strength, b.strength)
    assert np.array_equal(a.direction, b.direction)


def test_bootstrap_recovers_strong_network_edges():
    data = chain_data(n=800, seed=30)
    conf = bootstrap_average(data, hc_learner(HcConfig(restarts=3, seed=0)),
                             boot_samples=40, seed=1)
    assert conf.strength[0, 1] >= 0.9
    assert conf.strength[1, 2] >= 0.9
    assert conf.strength[0, 2] <= 0.5


def _conf(variables, entries):
    p = len(variables)
    strength = np.zeros((p, p))
    direction = np.full((p, p), 0.5)
    for (a, b), (s, d) in entries.items():
        strength[a, b] = strength[b, a] = s
        direction[a, b] = d
        direction[b, a] = 1.0 - d
    return ArcConfidence(variables, strength, direction)


def test_averaged_network_threshold_and_orientation():
    conf = _conf(ABC, {(0, 1): (0.86, 0.34), (0, 2): (0.46, 0.9)})
    net = averaged_network(conf, 0.85)
    # only the strong pair survives, rendered against the minority direction
    assert net.dag.edges == frozenset({(1, 0)})


def test_averaged_network_threshold_zero_keeps_nonzero_pairs():
    conf = _conf(ABC, {(0, 1): (0.2, 0.7), (1, 2): (0.1, 0.6)})
    net = averaged_network(conf, 0.0)
    assert net.dag.edges == frozenset({(0, 1), (1, 2)})


def test_averaged_network_strict_mode():
    conf = _conf(ABC, {(0, 1): (0.85, 0.9)})
    assert averaged_network(conf, 0.85).dag.edges == frozenset({(0, 1)})
    assert averaged_network(conf, 0.85, strict=True).dag.edges == frozenset()


def test_averaged_network_cycle_repair_flips_weakest():
    # majority directions form a 3-cycle; the pair closest to 0.5 flips
    conf = _conf(ABC, {(0, 1): (1.0, 0.9), (1, 2): (1.0, 0.8), (0, 2): (1.0, 0.45)})
    net = averaged_network(conf, 0.5)
    assert net.dag.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    assert net.flipped == frozenset({(2, 0)})


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 6), st.data())
def test_averaged_network_always_acyclic(p, data):
    variables = VariableSet(f"V{i}" for i in range(p))
    entries = {}
    for a in range(p):
        for b in range(a + 1, p):
            if data.draw(st.booleans()):
                s = data.draw(st.floats(0.01, 1.0))
                d = data.draw(st.floats(0.0, 1.0))
                entries[(a, b)] = (s, d)
    conf = _conf(variables, entries)
    threshold = data.draw(st.sampled_from([0.0, 0.3, 0.85, 1.0]))
    net = averaged_network(conf, threshold)
    topological_order(net.dag)  # raises on a cycle
    for u, v in net.dag.edges:
        key = (min(u, v), max(u, v))
        assert entries[key][0] >= threshold

"""The family-score table and the bitmask greedy search against references.

The references here are the straightforward versions: one BIC family score
at a time from the (re)sample's own rows, memoized per (child, mask), and
a greedy search that yields every legal move and checks acyclicity with a
depth-first search per candidate.  The library must match them bit for bit.

The exact edge posterior is checked against one restricted pass of the
sink-layer recursion per ordered pair, and against weighted averaging over
all 29,281 five-node DAGs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.dag import Dag, SizeLimitError, VariableSet, enumerate_dags
from relqual.data import Dataset, DiscreteDataset
from relqual.discretize import DiscretizationSpec, discretize
from relqual.gaussian import DegenerateVarianceError
from relqual.ols import InsufficientRowsError, RankDeficientError
from relqual.rng import rng_from, split_seed
from relqual.search import (
    MAX_EXACT_NODES,
    FamilyScoreTable,
    FamilyScores,
    HcConfig,
    _dag_weight_sums,
    _edge_posteriors,
    _family_weight_tables,
    _scorer,
    bootstrap_average,
    exact_map_edge_probabilities,
    family_scores,
    hc_learner,
    hill_climb,
    hybrid_learner,
    map_dag,
    map_learner,
)
from test_acceptance import random_four_node_dataset

# ---------------------------------------------------------------------------
# reference family scores


class ReferenceScores:
    """BIC family scores of one dataset, one family at a time."""

    def __init__(self, data):
        self.data = data
        self.p = len(data.variables)
        self.n = data.n
        self._log_n = float(np.log(self.n))
        self._memo = {}
        if isinstance(data, Dataset):
            centered = data.rows - data.rows.mean(axis=0)
            self.cov = (centered.T @ centered) / self.n

    def family_score(self, child, mask):
        key = (child, mask)
        if key not in self._memo:
            parents = [i for i in range(self.p) if mask >> i & 1]
            if isinstance(self.data, Dataset):
                self._memo[key] = self._gaussian(child, parents)
            else:
                self._memo[key] = self._discrete(child, parents)
        value = self._memo[key]
        if isinstance(value, Exception):
            raise value
        return value

    def _gaussian(self, child, parents):
        if self.n < len(parents) + 2:
            return InsufficientRowsError(
                f"n={self.n} rows cannot support {len(parents)} parents")
        s_yy = self.cov[child, child]
        if parents:
            sub = self.cov[np.ix_(parents, parents)]
            cross = self.cov[parents, child]
            try:
                solved = np.linalg.solve(sub, cross)
            except np.linalg.LinAlgError:
                return RankDeficientError(f"singular parent covariance for node {child}")
            sigma2 = float(s_yy - cross @ solved)
        else:
            sigma2 = float(s_yy)
        sigma2 = max(sigma2, 0.0)
        if sigma2 <= 1e-12 * max(float(s_yy), 1e-300):
            return DegenerateVarianceError(
                f"node {child} has (near) zero residual variance")
        loglik = -0.5 * self.n * (np.log(2.0 * np.pi * sigma2) + 1.0)
        return float(loglik - 0.5 * (len(parents) + 2) * self._log_n)

    def _discrete(self, child, parents):
        rows, levels = self.data.rows, self.data.levels
        child_levels = levels[child]
        config_size = 1
        code = rows[:, child].copy()
        radix = child_levels
        for parent in parents:
            code += radix * rows[:, parent]
            radix *= levels[parent]
            config_size *= levels[parent]
        cell = np.bincount(code, minlength=radix).reshape(config_size, child_levels)
        config = cell.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            loglik = float(np.sum(np.where(cell > 0, cell * np.log(
                np.where(cell > 0, cell, 1.0)
                / np.where(config > 0, config, 1.0)[:, None]), 0.0)))
        k = (child_levels - 1) * config_size
        return loglik - 0.5 * k * self._log_n


# ---------------------------------------------------------------------------
# reference greedy search: a legal-move generator with a DFS per candidate


class RefGraph:
    def __init__(self, p):
        self.p = p
        self.parents = [0] * p
        self.children = [0] * p

    def has_edge(self, u, v):
        return bool(self.parents[v] & (1 << u))

    def add(self, u, v):
        self.parents[v] |= 1 << u
        self.children[u] |= 1 << v

    def remove(self, u, v):
        self.parents[v] &= ~(1 << u)
        self.children[u] &= ~(1 << v)

    def reaches(self, start, target):
        frontier, seen = 1 << start, 0
        while frontier:
            node = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt = self.children[node] & ~seen
            if nxt & (1 << target):
                return True
            seen |= nxt
            frontier |= nxt
        return False


def ref_legal_moves(state, max_parents, allowed):
    p = state.p
    for u in range(p):
        for v in range(p):
            if u == v:
                continue
            if state.has_edge(u, v):
                yield ("delete", u, v)
                if bin(state.parents[u]).count("1") < max_parents:
                    state.remove(u, v)
                    cyclic = state.reaches(u, v)
                    state.add(u, v)
                    if not cyclic:
                        yield ("reverse", u, v)
            elif not state.has_edge(v, u):
                if allowed is not None and (min(u, v), max(u, v)) not in allowed:
                    continue
                if bin(state.parents[v]).count("1") >= max_parents:
                    continue
                if not state.reaches(v, u):
                    yield ("add", u, v)


def ref_move_delta(state, scorer, kind, u, v):
    bit_u, bit_v = 1 << u, 1 << v
    fs = scorer.family_score
    if kind == "add":
        return fs(v, state.parents[v] | bit_u) - fs(v, state.parents[v])
    if kind == "delete":
        return fs(v, state.parents[v] & ~bit_u) - fs(v, state.parents[v])
    return (fs(v, state.parents[v] & ~bit_u) - fs(v, state.parents[v])
            + fs(u, state.parents[u] | bit_v) - fs(u, state.parents[u]))


def ref_apply(state, kind, u, v):
    if kind == "add":
        state.add(u, v)
    elif kind == "delete":
        state.remove(u, v)
    else:
        state.remove(u, v)
        state.add(v, u)


def ref_climb(state, scorer, max_parents, allowed):
    score = sum(scorer.family_score(v, state.parents[v]) for v in range(state.p))
    while True:
        best_delta, best_move = 0.0, None
        for kind, u, v in ref_legal_moves(state, max_parents, allowed):
            delta = ref_move_delta(state, scorer, kind, u, v)
            if delta > best_delta + 1e-12:
                best_delta, best_move = delta, (kind, u, v)
        if best_move is None:
            return score
        ref_apply(state, *best_move)
        score += best_delta


def ref_perturbed_start(p, moves, max_parents, allowed, rng):
    state = RefGraph(p)
    for _ in range(moves):
        options = list(ref_legal_moves(state, max_parents, allowed))
        if not options:
            break
        ref_apply(state, *options[rng.integers(len(options))])
    return state


def ref_hill_climb(data, cfg, restrict=None, seed=None):
    scorer = ReferenceScores(data)
    p = scorer.p
    rng = rng_from(split_seed(cfg.seed, 0) if seed is None else seed)
    best_state = RefGraph(p)
    best_score = ref_climb(best_state, scorer, cfg.max_parents, restrict)
    for _ in range(cfg.restarts - 1):
        state = ref_perturbed_start(p, cfg.perturb, cfg.max_parents, restrict, rng)
        score = ref_climb(state, scorer, cfg.max_parents, restrict)
        if score > best_score + 1e-12:
            best_score, best_state = score, state
    edges = {(u, v) for v in range(p) for u in range(p)
             if best_state.parents[v] >> u & 1}
    return Dag(data.variables, frozenset(edges))


def ref_bootstrap_counts(data, learn, boot_samples, seed):
    p = len(data.variables)
    counts = np.zeros((p, p))
    for i in range(boot_samples):
        idx = rng_from(split_seed(seed, 1, i)).integers(0, data.n, size=data.n)
        for u, v in learn(data.take_rows(idx), split_seed(seed, 2, i)).edges:
            counts[u, v] += 1.0
    return counts


# ---------------------------------------------------------------------------
# data


def gaussian_data(seed, p, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    for j in range(1, p):
        x[:, j] += x[:, :j] @ (rng.uniform(-1.0, 1.0, j) * (rng.random(j) < 0.5))
    return Dataset(VariableSet([f"X{i}" for i in range(p)]), x)


def discrete_data(seed, p, n):
    return discretize(gaussian_data(seed, p, n),
                      DiscretizationSpec("equal-frequency", 3)).dataset


def resamples(n, boot_samples, seed):
    return np.stack([rng_from(split_seed(seed, 1, i)).integers(0, n, size=n)
                     for i in range(boot_samples)])


def table_entries(data, max_parents, idx):
    """(sample, child, mask) -> score or error class, for every family
    within the cap, read from the library's table."""
    table = FamilyScoreTable(_scorer(data, max_parents, idx), data.variables)
    out = {}
    for b in range(len(idx)):
        rows = FamilyScores(table, b).rows()
        for child, mask in families(len(data.variables), table.max_parents):
            try:
                out[b, child, mask] = rows[child][mask]
            except (RankDeficientError, DegenerateVarianceError,
                    InsufficientRowsError) as exc:
                out[b, child, mask] = type(exc)
    return table, out


def families(p, max_parents):
    for child in range(p):
        others = [i for i in range(p) if i != child]
        for k in range(max_parents + 1):
            for parents in itertools.combinations(others, k):
                yield child, sum(1 << i for i in parents)


def reference_entry(scorer, child, mask):
    try:
        return scorer.family_score(child, mask)
    except (RankDeficientError, DegenerateVarianceError,
            InsufficientRowsError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# the table


@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
def test_table_is_bit_equal_to_per_family_bic(kind):
    data = (gaussian_data if kind == "gaussian" else discrete_data)(3, 6, 40)
    idx = resamples(data.n, 6, seed=11)
    table, entries = table_entries(data, 5, idx)
    assert table.values is not None   # dense
    sizes = set()
    for b in range(len(idx)):
        scorer = ReferenceScores(data.take_rows(idx[b]))
        for child, mask in families(6, 5):
            sizes.add(bin(mask).count("1"))
            want = reference_entry(scorer, child, mask)
            got = entries[b, child, mask]
            assert got == want and type(got) is type(want), (b, child, mask)
    assert sizes == {0, 1, 2, 3, 4, 5}


def test_table_marks_failing_families_and_raises_them_on_read():
    data = gaussian_data(5, 5, 12)
    rows = data.rows.copy()
    rows[:, 4] = 2.0 * rows[:, 0] - rows[:, 1]   # X4 is X0 and X1 combined
    data = Dataset(data.variables, rows)
    idx = resamples(data.n, 4, seed=2)
    table, entries = table_entries(data, 4, idx)
    kinds = set()
    for b in range(len(idx)):
        scorer = ReferenceScores(data.take_rows(idx[b]))
        first_failure = {}
        for child, mask in families(5, 4):
            want = reference_entry(scorer, child, mask)
            assert entries[b, child, mask] == want, (b, child, mask)
            kinds.add(want if isinstance(want, type) else float)
            if isinstance(want, type):
                first_failure[child] = min(first_failure.get(child, (mask, want)),
                                           (mask, want), key=lambda item: item[0])
        # whole-row reads (the exact searches) raise the lowest marked family
        for child in range(5):
            if child in first_failure:
                with pytest.raises(first_failure[child][1]):
                    FamilyScores(table, b).array(child)
            else:
                FamilyScores(table, b).array(child)
    # n=12 covers every size; the collinear column makes failures
    assert DegenerateVarianceError in kinds or RankDeficientError in kinds


def test_wide_data_fills_the_table_one_family_at_a_time():
    data = gaussian_data(7, 17, 40)
    cfg = HcConfig(restarts=1, max_parents=5, seed=3)
    idx = resamples(data.n, 2, seed=4)
    table = FamilyScoreTable(_scorer(data, cfg.max_parents, idx), data.variables)
    assert table.values is None   # filled on first read
    rows = FamilyScores(table, 1).rows()
    scorer = ReferenceScores(data.take_rows(idx[1]))
    for child, mask in [(0, 0), (3, 0b101), (16, 0b11011), (5, (1 << 16) | 7)]:
        assert rows[child][mask] == scorer.family_score(child, mask)
    assert hill_climb(data, cfg) == ref_hill_climb(data, cfg)
    conf = bootstrap_average(data, hc_learner(cfg), 2, seed=4)
    counts = ref_bootstrap_counts(
        data, lambda d, s: ref_hill_climb(d, cfg, seed=s), 2, seed=4)
    assert np.array_equal(conf.strength, _strength(counts, 2))


def _strength(counts, total):
    strength = (counts + counts.T) / total
    np.fill_diagonal(strength, 0.0)
    return strength


# ---------------------------------------------------------------------------
# the greedy search


@st.composite
def search_cases(draw):
    p = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["gaussian", "discrete"]))
    n = draw(st.integers(20, 80))
    data = (gaussian_data if kind == "gaussian" else discrete_data)(
        draw(st.integers(0, 10_000)), p, n)
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    restrict = None
    if draw(st.booleans()):
        restrict = frozenset(draw(st.lists(st.sampled_from(pairs), unique=True)))
    cfg = HcConfig(restarts=draw(st.integers(1, 4)), perturb=draw(st.integers(0, 6)),
                   max_parents=draw(st.integers(1, 5)), seed=draw(st.integers(0, 99)))
    return data, cfg, restrict


@settings(max_examples=40, deadline=None)
@given(search_cases())
def test_hill_climb_matches_dfs_reference(case):
    data, cfg, restrict = case
    assert hill_climb(data, cfg, restrict=restrict) == \
        ref_hill_climb(data, cfg, restrict=restrict)


@settings(max_examples=25, deadline=None)
@given(search_cases(), st.integers(0, 99))
def test_bootstrap_average_matches_per_resample_reference(case, seed):
    data, cfg, _ = case
    conf = bootstrap_average(data, hc_learner(cfg), 3, seed=seed)
    counts = ref_bootstrap_counts(
        data, lambda d, s: ref_hill_climb(d, cfg, seed=s), 3, seed)
    either = counts + counts.T
    assert np.array_equal(conf.strength, _strength(counts, 3))
    assert np.array_equal(conf.direction[either > 0],
                          (counts / np.where(either > 0, either, 1.0))[either > 0])


def test_table_learners_match_their_plain_calls():
    """Each library learner learns the same DAG from the shared table as
    from a table scored on each resample's rows alone."""
    data = gaussian_data(21, 5, 60)
    cfg = HcConfig(restarts=3, max_parents=3, seed=1)
    for learner in (hc_learner(cfg), map_learner(3), hybrid_learner(cfg, "gs"),
                    hybrid_learner(cfg, "mmpc")):
        counts = ref_bootstrap_counts(
            data, lambda d, s: learner.search(d, family_scores(d, learner.max_parents), s),
            4, seed=9)
        either = counts + counts.T
        tabled = bootstrap_average(data, learner, 4, seed=9)
        assert np.array_equal(tabled.strength, _strength(counts, 4))
        assert np.array_equal(tabled.direction, np.where(
            either > 0, counts / np.where(either > 0, either, 1.0), 0.5))


def test_discrete_bootstrap_matches_reference():
    data = discrete_data(8, 5, 70)
    assert isinstance(data, DiscreteDataset)
    cfg = HcConfig(restarts=3, seed=2)
    conf = bootstrap_average(data, hc_learner(cfg), 4, seed=5)
    counts = ref_bootstrap_counts(
        data, lambda d, s: ref_hill_climb(d, cfg, seed=s), 4, seed=5)
    assert np.array_equal(conf.strength, _strength(counts, 4))


# ---------------------------------------------------------------------------
# reference exact posterior: one restricted sink-layer pass per ordered pair


def ref_zeta_transform(values, p):
    out = values.copy()
    for i in range(p):
        bit = 1 << i
        for mask in range(1 << p):
            if mask & bit:
                out[mask] += out[mask ^ bit]
    return out


def ref_dag_weight_sum(acc, p):
    f = np.zeros(1 << p, dtype=np.longdouble)
    f[0] = 1.0
    for s in range(1, 1 << p):
        total = 0.0
        t = s
        while t:
            rest = s ^ t
            prod = f[rest]
            if prod != 0.0:
                m = t
                while m:
                    c = (m & -m).bit_length() - 1
                    m &= m - 1
                    prod *= acc[c][rest]
                    if prod == 0.0:
                        break
                if t.bit_count() % 2 == 1:
                    total += prod
                else:
                    total -= prod
            t = (t - 1) & s
        f[s] = total
    return f[(1 << p) - 1]


def ref_edge_posteriors(weights):
    p = len(weights)
    acc = [ref_zeta_transform(w, p) for w in weights]
    denom = ref_dag_weight_sum(acc, p)
    if denom <= 0:
        raise ArithmeticError("posterior mass underflowed; data too extreme")
    prob = np.zeros((p, p))
    for u in range(p):
        for v in range(p):
            if u == v:
                continue
            restricted = np.where((np.arange(1 << p) >> u) & 1, weights[v],
                                  np.longdouble(0.0))
            acc_v = ref_zeta_transform(restricted, p)
            numer = ref_dag_weight_sum(acc[:v] + [acc_v] + acc[v + 1:], p)
            prob[u, v] = float(numer / denom)
    return prob


@st.composite
def weight_tables(draw):
    """Non-negative family weights, zero at every mask holding the child
    (as in the library's tables); some entries zero, some children with
    only the empty parent set, some with no family at all."""
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random((p, 1 << p)) * 10.0 ** rng.integers(-6, 1, (p, 1 << p))
    weights[rng.random(weights.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    for child in range(p):
        weights[child, (np.arange(1 << p) >> child) & 1 == 1] = 0.0
        kind = draw(st.sampled_from(["full"] * 6 + ["root", "none"]))
        if kind != "full":
            weights[child, 1:] = 0.0
        if kind == "none":
            weights[child, 0] = 0.0
    return weights.astype(np.longdouble)


@settings(max_examples=80, deadline=None)
@given(weight_tables())
def test_edge_posteriors_match_per_edge_reruns(weights):
    try:
        expected = ref_edge_posteriors(list(weights))
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _edge_posteriors(weights)
        return
    assert np.max(np.abs(_edge_posteriors(weights) - expected)) <= 1e-12


@pytest.fixture(scope="module")
def five_node_parent_masks():
    """Per labeled five-node DAG, each child's parent mask."""
    masks = []
    for dag in enumerate_dags(5):
        row = [0] * 5
        for u, v in dag.edges:
            row[v] |= 1 << u
        masks.append(row)
    assert len(masks) == 29_281
    return np.array(masks)


FIVE_NODE_CASES = [(0, 4), (1, 4), (2, 3), (3, 2)]   # (dataset seed, max_parents)


def brute_force_posteriors(data, max_parents, parent_masks):
    """P(u -> v) by weighting every DAG with its family scores."""
    p = len(data.variables)
    scorer = ReferenceScores(data)
    scores = np.full((p, 1 << p), -np.inf)
    for child, mask in families(p, max_parents):
        scores[child, mask] = scorer.family_score(child, mask)
    scores -= scores.max(axis=1, keepdims=True)
    dag_weights = np.exp(scores[np.arange(p), parent_masks].sum(axis=1))
    has_edge = (parent_masks[:, None, :] >> np.arange(p)[None, :, None]) & 1
    return np.einsum("d,duv->uv", dag_weights, has_edge) / dag_weights.sum()


@pytest.mark.parametrize("seed,max_parents", FIVE_NODE_CASES)
def test_exact_posterior_matches_five_node_enumeration(seed, max_parents,
                                                       five_node_parent_masks):
    data = gaussian_data(seed, 5, 60)
    expected = brute_force_posteriors(data, max_parents, five_node_parent_masks)
    conf = exact_map_edge_probabilities(data, max_parents=max_parents)
    strength = expected + expected.T
    np.fill_diagonal(strength, 0.0)
    assert np.max(np.abs(conf.strength - strength)) <= 1e-9
    present = strength > 1e-12
    assert np.max(np.abs(conf.direction - expected / np.where(present, strength, 1.0))
                  [present]) <= 1e-9


def test_float64_tables_agree_with_extended_precision():
    """Where long double is plain float64 the same computation runs in
    float64; on the criterion-3 and five-node datasets it must not need
    the extra range."""
    cases = [(random_four_node_dataset(42_000 + rep), 3) for rep in range(20)]
    cases += [(gaussian_data(seed, 5, 60), mp) for seed, mp in FIVE_NODE_CASES]
    for data, max_parents in cases:
        weights = _family_weight_tables(data, max_parents)
        narrow = weights.astype(np.float64)
        assert _dag_weight_sums(narrow).dtype == np.float64
        assert np.max(np.abs(_edge_posteriors(narrow)
                             - _edge_posteriors(weights))) <= 1e-9


def test_exact_searches_refuse_one_node_past_the_limit():
    data = gaussian_data(0, MAX_EXACT_NODES + 1, 30)
    with pytest.raises(SizeLimitError):
        exact_map_edge_probabilities(data)
    with pytest.raises(SizeLimitError):
        map_dag(data)

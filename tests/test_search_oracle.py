"""The family-score table, the bitmask greedy search and the MAP search
against references.

The references here are the straightforward versions: one BIC family score
at a time from the (re)sample's own rows, memoized per (child, mask), a
greedy search that yields every legal move and checks acyclicity with a
depth-first search per candidate, and a best-sink dynamic program that
loops over int bitmasks one set at a time.  The library must match them
bit for bit.

The exact edge posterior is checked against one restricted pass of the
sink-layer recursion per ordered pair, against weighted averaging over
all 29,281 five-node DAGs, and against every DAG over up to four nodes
weighted in logs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.dag import Dag, SizeLimitError, VariableSet, enumerate_dags
from relqual.data import Dataset, DiscreteDataset, FamilyScorer
from relqual.discretize import DiscretizationSpec, discretize
from relqual.gaussian import DegenerateVarianceError
from relqual.ols import InsufficientRowsError, RankDeficientError
from relqual.rng import RawDraws, Streams, replay_integers, rng_from, split_seed
from relqual.search import (
    MAX_EXACT_NODES,
    HcConfig,
    SingularCorrelationError,
    _allow_masks,
    _ascend,
    _edge_posteriors,
    _perturbed_starts,
    _dag,
    _table,
    bootstrap_average,
    exact_map_edge_probabilities,
    hc_learner,
    hill_climb,
    hybrid_learner,
    map_dag,
    map_learner,
    restrict_gs,
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


def ref_hill_climb(data, cfg, restrict=None, seed=None, scorer=None):
    scorer = ReferenceScores(data) if scorer is None else scorer
    p = len(data.variables)
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


# ---------------------------------------------------------------------------
# reference MAP search: the serial best-sink dynamic program


def ref_map_dag(data, max_parents, table_cap=None):
    """Best parents per child within every candidate set, then the best
    sink per node set, one int bitmask at a time; strict comparisons keep
    the first maximum.  Reads every family within ``table_cap`` (default
    ``max_parents``) in (child, mask) order, raising the first failure."""
    p = len(data.variables)
    scorer = ReferenceScores(data)
    rows = np.full((p, 1 << p), -np.inf)
    cap = max_parents if table_cap is None else table_cap
    for child, mask in sorted(families(p, min(cap, p - 1))):
        rows[child, mask] = scorer.family_score(child, mask)

    best_score = [[-np.inf] * (1 << p) for _ in range(p)]
    best_mask = [[0] * (1 << p) for _ in range(p)]
    for child in range(p):
        child_bit = 1 << child
        bs, bm = best_score[child], best_mask[child]
        row = rows[child].tolist()
        for cand in range(1 << p):
            if cand & child_bit:
                continue
            if cand.bit_count() <= max_parents:
                bs[cand] = row[cand]
                bm[cand] = cand
            m = cand
            while m:
                i_bit = m & -m
                m ^= i_bit
                prev = cand ^ i_bit
                if bs[prev] > bs[cand]:
                    bs[cand] = bs[prev]
                    bm[cand] = bm[prev]

    total = [-np.inf] * (1 << p)
    sink = [-1] * (1 << p)
    total[0] = 0.0
    for s in range(1, 1 << p):
        m = s
        while m:
            c_bit = m & -m
            m ^= c_bit
            c = c_bit.bit_length() - 1
            value = total[s ^ c_bit] + best_score[c][s ^ c_bit]
            if value > total[s]:
                total[s] = value
                sink[s] = c
    edges = set()
    s = (1 << p) - 1
    while s:
        c = sink[s]
        s ^= 1 << c
        edges.update((u, c) for u in range(p) if best_mask[c][s] >> u & 1)
    return Dag(data.variables, frozenset(edges))


def masks(dags):
    """The (p, len(dags)) int64 parent masks of the ``dags``, the form in
    which table searches return their DAGs: bit u of [v, s] is u -> v."""
    out = np.zeros((len(dags[0].variables), len(dags)), dtype=np.int64)
    for s, dag in enumerate(dags):
        for u, v in dag.edges:
            out[v, s] |= 1 << u
    return out


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


def duplicated(data, copies):
    """Discrete data with column j replaced by column i for each (j, i):
    families that differ only by a copy score exactly the same."""
    rows, levels = data.rows.copy(), list(data.levels)
    for j, i in copies:
        rows[:, j], levels[j] = rows[:, i], levels[i]
    return DiscreteDataset(data.variables, rows, tuple(levels))


def resamples(n, boot_samples, seed):
    return np.stack([rng_from(split_seed(seed, 1, i)).integers(0, n, size=n)
                     for i in range(boot_samples)])


def table_entries(data, max_parents, idx):
    """(sample, child, mask) -> score or error class, for every family
    within the cap, read from the library's table."""
    table = _table(data, max_parents, idx)
    out = {}
    for b in range(len(idx)):
        for child, mask in families(len(data.variables), table.max_parents):
            out[b, child, mask] = read_family(table, b, child, mask)
    return table, out


def read_family(table, sample, child, mask):
    """One family's score as a search reads it, or its error class."""
    value = float(table.read(sample, child, np.array([mask]), np.array([True]))[0])
    if value == value:
        return value
    try:
        table.family_score(child, mask, sample)
    except (RankDeficientError, DegenerateVarianceError,
            InsufficientRowsError) as exc:
        return type(exc)
    raise AssertionError("a marked family must raise")


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


def collinear_data(seed=5, n=12):
    """Five columns, X4 = 2 X0 - X1: families holding X0, X1 and X4 fail."""
    data = gaussian_data(seed, 5, n)
    rows = data.rows.copy()
    rows[:, 4] = 2.0 * rows[:, 0] - rows[:, 1]   # X4 is X0 and X1 combined
    return Dataset(data.variables, rows)


def test_table_marks_failing_families_and_raises_them_on_read():
    data = collinear_data()
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
        # whole-row reads (the exact searches) raise the first marked
        # family in (child, mask) order
        row = slice(b, b + 1)
        if first_failure:
            child = min(first_failure)
            with pytest.raises(first_failure[child][1], match=rf"node {child}\b"):
                table.read_rows(row)
        else:
            assert np.array_equal(table.read_rows(row), table.values[row])
    # n=12 covers every size; the collinear column makes failures
    assert DegenerateVarianceError in kinds or RankDeficientError in kinds


def test_row_read_raises_the_first_sample_s_first_failure():
    """X2 = 2 X1, so X1's family {X2} fails in every resample; X0 is zero
    but in one row, which resample 0 holds and resample 1 lacks, so there
    X0's empty family fails first.  A read of both resamples, and the MAP
    search of the table, raise resample 0's failure, as the serial search
    resample by resample does."""
    idx = resamples(12, 2, seed=3)
    rows = np.random.default_rng(0).standard_normal((12, 3))
    rows[:, 0] = 0.0
    rows[min(set(idx[0].tolist()) - set(idx[1].tolist())), 0] = 1.0
    rows[:, 2] = 2.0 * rows[:, 1]
    data = Dataset(VariableSet(["X0", "X1", "X2"]), rows)
    table = _table(data, 1, idx)
    with pytest.raises(DegenerateVarianceError, match=r"node 0\b"):
        table.read_rows(slice(1, 2))
    with pytest.raises(DegenerateVarianceError, match=r"node 1\b"):
        table.read_rows(slice(None))
    want = outcome(lambda: masks([ref_map_dag(data.take_rows(i), 1) for i in idx]))
    assert want[0] is DegenerateVarianceError
    assert outcome(lambda: map_dag(table, 1)) == want


def test_wide_data_fills_the_table_one_family_at_a_time():
    data = gaussian_data(7, 17, 40)
    cfg = HcConfig(restarts=1, max_parents=5, seed=3)
    idx = resamples(data.n, 2, seed=4)
    table = _table(data, cfg.max_parents, idx)
    assert table.values is None   # filled on first read
    scorer = ReferenceScores(data.take_rows(idx[1]))
    for child, mask in [(0, 0), (3, 0b101), (16, 0b11011), (5, (1 << 16) | 7)]:
        assert read_family(table, 1, child, mask) == scorer.family_score(child, mask)
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


class TableSample:
    """One sample of a dense table, read one family at a time."""

    def __init__(self, table, sample):
        self.values = table.values[sample]

    def family_score(self, child, mask):
        return float(self.values[child, mask])


@pytest.mark.parametrize("seed", range(6))
def test_near_ties_follow_the_serial_scan(seed):
    """Scores a fraction of 1e-12 apart make gains whose near-best groups
    overlap and chain, which only a replay of the scan settles; every
    lane must still take the move the serial scan takes."""
    data = gaussian_data(seed, 5, 30)
    idx = resamples(data.n, 8, seed)
    table = _table(data, 3, idx)
    finite = np.isfinite(table.values)
    table.values[finite] = 1.0 + 0.4e-12 * np.random.default_rng(seed).integers(
        0, 16, finite.sum())
    cfg = HcConfig(restarts=4, perturb=2, max_parents=3, seed=seed)
    seeds = [split_seed(seed, 2, i) for i in range(len(idx))]
    assert np.array_equal(hill_climb(table, cfg, seed=seeds), masks([
        ref_hill_climb(data, cfg, seed=s, scorer=TableSample(table, b))
        for b, s in enumerate(seeds)]))


def test_table_learners_match_their_plain_calls():
    """Each library learner learns the same DAG from the shared table as
    from a table scored on each resample's rows alone."""
    data = gaussian_data(21, 5, 60)
    cfg = HcConfig(restarts=3, max_parents=3, seed=1)
    for learner in (hc_learner(cfg), map_learner(3), hybrid_learner(cfg, "gs"),
                    hybrid_learner(cfg, "mmpc")):
        counts = ref_bootstrap_counts(
            data, lambda d, s: _dag(d.variables, learner.search(
                d, [np.arange(d.n)], _table(d, learner.max_parents), [s])),
            4, seed=9)
        either = counts + counts.T
        tabled = bootstrap_average(data, learner, 4, seed=9)
        assert np.array_equal(tabled.strength, _strength(counts, 4))
        assert np.array_equal(tabled.direction, np.where(
            either > 0, counts / np.where(either > 0, either, 1.0), 0.5))


NUMERIC_FAILURES = (RankDeficientError, DegenerateVarianceError,
                    InsufficientRowsError, SingularCorrelationError)


def outcome(run):
    """What a call returns, or the class and message of what it raises."""
    try:
        return "ok", run()
    except NUMERIC_FAILURES as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """Two outcomes are equal, a returned array compared whole."""
    if want[0] == "ok":
        assert got[0] == "ok" and np.array_equal(got[1], want[1])
    else:
        assert got == want


def test_marked_families_raise_what_the_serial_search_raises():
    """Every resample's climbs read the shared table in lanes; the error is
    the one the resample-by-resample reference raises first, and counts
    are equal when no read hits a marked family."""
    seen = set()
    for seed in range(12):
        data = gaussian_data(seed, 6, 14)
        rows = data.rows.copy()
        rows[:, 4] = 2.0 * rows[:, 0] - rows[:, 1]   # two collinear triples
        rows[:, 5] = rows[:, 2] + 0.5 * rows[:, 3]
        data = Dataset(data.variables, rows)
        cfg = HcConfig(restarts=3, perturb=3, max_parents=1 + seed % 4, seed=seed)
        table = _table(data, 4, resamples(data.n, 4, seed))
        assert np.isnan(table.values).any()
        for learner, reference in (
                (hc_learner(cfg), lambda d, s: ref_hill_climb(d, cfg, seed=s)),
                (hybrid_learner(cfg, "gs"), lambda d, s: ref_hill_climb(
                    d, cfg, restrict=restrict_gs(d), seed=s)),
                (map_learner(cfg.max_parents),
                 lambda d, s: ref_map_dag(d, cfg.max_parents))):
            want = outcome(lambda: _strength(
                ref_bootstrap_counts(data, reference, 4, seed), 4))
            got = outcome(lambda: bootstrap_average(data, learner, 4, seed=seed).strength)
            assert_same_outcome(got, want)
            seen.add(want[0] if want[0] == "ok" else want)
    assert "ok" in seen and len(seen) >= 3   # counts and different errors


def test_restrict_failure_waits_for_earlier_climbs(monkeypatch):
    """Resample by resample, a hybrid restrict that raises comes after the
    climbs of the resamples before it, which may raise first."""
    import relqual.search as search

    real = search._restrict_pairs

    def third_fails(data, restrict, alpha):
        third_fails.calls += 1
        if third_fails.calls % 4 == 3:
            raise SingularCorrelationError("third restrict")
        return real(data, restrict, alpha)

    monkeypatch.setattr(search, "_restrict_pairs", third_fails)
    seen = set()
    for seed in range(6):
        data = gaussian_data(seed, 5, 14)
        if seed % 2:
            data = collinear_data(seed=seed, n=14)
        cfg = HcConfig(restarts=2, perturb=2, max_parents=2, seed=seed)
        third_fails.calls = 0
        want = outcome(lambda: ref_bootstrap_counts(
            data, lambda d, s: ref_hill_climb(
                d, cfg, restrict=third_fails(d, "gs", 0.05), seed=s), 4, seed))
        third_fails.calls = 0
        got = outcome(lambda: bootstrap_average(data, hybrid_learner(cfg), 4, seed))
        assert got == want and want[0] != "ok"
        seen.add(want[0])
    assert seen == {SingularCorrelationError, DegenerateVarianceError}


def test_lowest_lane_reports_its_first_marked_read():
    """One lane starts on a marked family of child 0, the other on one of
    child 4, either way round: lane 0's read comes first in the serial
    order, which reads lane by lane, whichever child lane 0's marked family
    has, and lane 1 stops."""
    data = collinear_data(n=14)
    table = _table(data, 4, resamples(data.n, 2, 0))
    for lane_0, lane_4 in ((0, 1), (1, 0)):
        parents = np.zeros((5, 3), dtype=np.int64)
        children = np.zeros_like(parents)
        parents[0, lane_0], children[1, lane_0], children[4, lane_0] = 0b10010, 1, 1
        parents[4, lane_4], children[0, lane_4], children[1, lane_4] = 0b00011, 1 << 4, 1 << 4
        _, failure = _ascend(table, np.array([1, 1, 0]), parents, children,
                             np.full((5, 3), 0b11111), 2)
        child, mask = (0, 0b10010) if lane_0 == 0 else (4, 0b00011)
        assert failure == (0, child, mask)
        with pytest.raises(DegenerateVarianceError, match=f"node {child}"):
            table.family_score(child, mask, 1)


def test_marks_behind_illegal_moves_are_never_read():
    """With a parent cap of one, no climb may read the marked families of
    two or more parents: the dense table holds them, the lazy one never
    scores them."""
    data = collinear_data(n=14)
    cfg = HcConfig(restarts=4, max_parents=1, seed=3)
    idx = resamples(data.n, 5, seed=1)
    table = _table(data, 4, idx)
    assert np.isnan(table.values).any()
    seeds = [split_seed(1, 2, i) for i in range(len(idx))]
    learned = hill_climb(table, cfg, seed=seeds)
    assert np.array_equal(learned, masks([ref_hill_climb(data.take_rows(i), cfg, seed=s)
                                          for i, s in zip(idx, seeds)]))
    lazy = _table(data, 4)
    assert np.array_equal(hill_climb(lazy, cfg, seed=[split_seed(cfg.seed, 0)]),
                          masks([ref_hill_climb(data, cfg)]))
    assert max(mask.bit_count() for _, _, mask in lazy._scored) == 1


def test_discrete_bootstrap_matches_reference():
    data = discrete_data(8, 5, 70)
    assert isinstance(data, DiscreteDataset)
    cfg = HcConfig(restarts=3, seed=2)
    conf = bootstrap_average(data, hc_learner(cfg), 4, seed=5)
    counts = ref_bootstrap_counts(
        data, lambda d, s: ref_hill_climb(d, cfg, seed=s), 4, seed=5)
    assert np.array_equal(conf.strength, _strength(counts, 4))


# ---------------------------------------------------------------------------
# the perturbed starts: every restart's draws replayed from one raw block


class PlantedStream:
    """A stand-in generator over a planted uint32 stream.  ``integers(count)``
    is numpy's bounded draw, one value at a time (Lemire's method with
    numpy's rejection rule); ``integers(0, 2**32, size, dtype=np.uint32)``
    returns the next raw values.  A raw 0 is rejected for every count that
    is not a power of two."""

    def __init__(self, values):
        self.values, self.pos = [int(v) for v in values], 0

    def _next(self):
        self.pos += 1
        return self.values[self.pos - 1]

    def integers(self, low, high=None, size=None, dtype=np.int64):
        if high is None:
            if low == 1:
                return 0
            while True:
                m = self._next() * low
                if m & 0xFFFFFFFF >= (2**32 - low) % low:
                    return m >> 32
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        return np.array([self._next() for _ in range(size)], dtype=np.uint32)


class PlantedStreams:
    """Stand-in ``Streams`` whose row r draws ``values[r]``, for
    ``RawDraws``."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.uint32)

    def __len__(self):
        return len(self.values)

    def block(self, width):
        return self.values[:, :width]

    def raw(self, rows, at):
        return self.values[rows, at]


def replay(counts, raw):
    """``replay_integers`` of one generator row, one count at a time: the values
    and the raw draws used."""
    at, got = np.zeros(1, dtype=np.int64), []
    for c in counts:
        value, at = replay_integers(raw, np.zeros(1, dtype=np.intp), at, np.array([c]))
        got.append(int(value[0]))
    return got, int(at[0])


COUNTS = st.one_of(st.integers(1, 2**32 - 1),
                   st.sampled_from([1, 2, 3, 6, 2**31, 2**31 + 1, 2**32 - 1]))


@settings(max_examples=150, deadline=None)
@given(st.lists(COUNTS, min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_replayed_draws_equal_generator_integers(counts, seed):
    """The same values as ``Generator.integers(count)`` call by call, from
    the same number of raw draws: a generator that made exactly that many
    raw draws is where the serial one is.  Blocks of 4 make reads run
    past the block, where each draw is replayed on its own."""
    serial = np.random.default_rng(seed)
    want = [int(serial.integers(c)) for c in counts]
    got, used = replay(counts, RawDraws(Streams.of([np.random.default_rng(seed)]), 4))
    assert got == want
    raw = np.random.default_rng(seed)
    raw.integers(0, 2**32, size=used, dtype=np.uint32)
    assert raw.bit_generator.state == serial.bit_generator.state
    assert raw.integers(0, 2**32, dtype=np.uint32) == \
        serial.integers(0, 2**32, dtype=np.uint32)
    # the stand-in generator draws as numpy does
    planted = PlantedStream(np.random.default_rng(seed).integers(
        0, 2**32, size=used + 1, dtype=np.uint32))
    assert [planted.integers(c) for c in counts] == want and planted.pos == used


def test_about_half_the_draws_are_rejected_at_two_to_the_31_plus_one():
    """(2^32 - c) mod c is 2^31 - 1 at c = 2^31 + 1: a draw is rejected
    whenever its low word falls below it, about every other draw."""
    counts = [2**31 + 1] * 200
    serial = np.random.default_rng(7)
    want = [int(serial.integers(c)) for c in counts]
    got, used = replay(counts, RawDraws(Streams.of([np.random.default_rng(7)]), 64))
    assert got == want
    assert 300 < used < 500
    assert np.random.default_rng(7).integers(0, 2**32, size=used + 1, dtype=np.uint32)[-1] \
        == serial.integers(0, 2**32, dtype=np.uint32)


def serial_starts(p, cfg, restrict, rng):
    """The reference's perturbed starts, restart after restart from one
    generator, with the stream position after each restart when the
    generator is a ``PlantedStream``."""
    starts, ends = [], []
    for _ in range(cfg.restarts - 1):
        starts.append(ref_perturbed_start(p, cfg.perturb, cfg.max_parents, restrict, rng))
        ends.append(getattr(rng, "pos", None))
    return starts, ends


def assert_starts_equal(parents, children, refs):
    """Library starts of one sample, (p, restarts - 1), against reference
    graphs."""
    for r, state in enumerate(refs):
        assert parents[:, r].tolist() == state.parents, r
        assert children[:, r].tolist() == state.children, r


def test_rejected_draws_shift_every_later_restart():
    """Raw zeros planted in restart 0, in a middle restart and as a run
    that outlasts the block in the last restart: each is rejected, so
    those restarts draw more than ``perturb`` values and every later
    restart reads from further on, as the serial draws did."""
    p, cfg = 5, HcConfig(restarts=5, perturb=3, max_parents=2)
    stream = np.random.default_rng(3).integers(1, 2**32, size=400, dtype=np.uint32)
    stream[[0, 7]] = 0        # the first move of restart 0 and of restart 2
    stream[12:32] = 0         # restart 3's second move, past the block of 12
    refs, ends = serial_starts(p, cfg, None, PlantedStream(stream))
    drawn = np.diff([0] + ends)
    assert drawn[0] > cfg.perturb and drawn[2] > cfg.perturb and drawn[3] > 20
    assert ends[-1] > (cfg.restarts - 1) * cfg.perturb
    allow = np.full((p, 1), (1 << p) - 1, dtype=np.int64)
    parents, children, used = _perturbed_starts(allow, cfg, PlantedStreams([stream]))
    assert_starts_equal(parents[:, 0], children[:, 0], refs)
    assert used.tolist() == [ends[-1]]


def test_samples_replay_their_own_streams_with_planted_rejections():
    """Three samples, the middle one allowing no pair: it draws nothing,
    and the others' rejections move only their own restarts."""
    p, cfg = 4, HcConfig(restarts=4, perturb=4, max_parents=3)
    restricts = [None, frozenset(), frozenset({(0, 1), (1, 3), (2, 3)})]
    streams = [np.random.default_rng(s).integers(1, 2**32, size=200, dtype=np.uint32)
               for s in range(3)]
    streams[0][[1, 5]] = 0
    streams[2][[4, 9, 10]] = 0
    refs = [serial_starts(p, cfg, r, PlantedStream(s)) for r, s in zip(restricts, streams)]
    assert refs[1][1] == [0] * 3 and refs[0][1][-1] > 12 and refs[2][1][-1] > 12
    allow = np.stack([_allow_masks(p, r) for r in restricts], axis=1)
    parents, children, used = _perturbed_starts(
        allow, cfg, PlantedStreams(streams))
    for s, (states, ends) in enumerate(refs):
        assert_starts_equal(parents[:, s], children[:, s], states)
        assert used[s] == ends[-1]


def test_a_caller_s_generator_ends_where_the_serial_draws_leave_it():
    data = gaussian_data(4, 5, 40)
    cfg = HcConfig(restarts=6, perturb=4, max_parents=3)
    mine, ref = np.random.default_rng(12), np.random.default_rng(12)
    assert hill_climb(data, cfg, seed=mine) == ref_hill_climb(data, cfg, seed=ref)
    assert mine.bit_generator.state == ref.bit_generator.state
    # on a table, a generator among the seeds; the others are the callee's
    idx = resamples(data.n, 3, seed=2)
    mine, ref = np.random.default_rng(5), np.random.default_rng(5)
    seeds = [split_seed(2, 2, 0), mine, 7]
    refs = [split_seed(2, 2, 0), ref, 7]
    assert np.array_equal(hill_climb(_table(data, 3, idx), cfg, seed=seeds), masks([
        ref_hill_climb(data.take_rows(i), cfg, seed=s) for i, s in zip(idx, refs)]))
    assert mine.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("restarts,perturb,p", [(1, 5, 5), (4, 0, 5), (4, 3, 1),
                                                (2, 1, 2), (1, 0, 1)])
def test_search_edge_cases_match_the_reference(restarts, perturb, p):
    """No perturbed start, no perturbing move, a single node (no pair at
    all), and the smallest graphs; resamples whose restrict allows no
    pair draw nothing."""
    data = gaussian_data(restarts + perturb, p, 30)
    cfg = HcConfig(restarts=restarts, perturb=perturb, max_parents=2, seed=1)
    assert hill_climb(data, cfg) == ref_hill_climb(data, cfg)
    idx = resamples(data.n, 4, seed=3)
    pairs = frozenset(itertools.combinations(range(p), 2))
    restricts = [frozenset(), pairs, None, frozenset()]
    mine = [np.random.default_rng(s) for s in range(4)]
    ref = [np.random.default_rng(s) for s in range(4)]
    assert np.array_equal(
        hill_climb(_table(data, 2, idx), cfg, restrict=restricts, seed=mine), masks([
            ref_hill_climb(data.take_rows(i), cfg, restrict=r, seed=s)
            for i, r, s in zip(idx, restricts, ref)]))
    assert [g.bit_generator.state for g in mine] == [g.bit_generator.state for g in ref]


def test_climbing_a_table_checks_its_seeds_and_restricts():
    data = gaussian_data(1, 4, 30)
    table = _table(data, 2, resamples(data.n, 3, seed=1))
    cfg = HcConfig(restarts=2, max_parents=2)
    seeds = [split_seed(1, 2, i) for i in range(3)]
    with pytest.raises(ValueError, match="table of 3 samples"):
        hill_climb(table, cfg)
    with pytest.raises(ValueError, match="2 restricts for 3 seeds"):
        hill_climb(table, cfg, restrict=[None, frozenset()], seed=seeds)
    with pytest.raises(ValueError, match="4 seeds for a table of 3 samples"):
        hill_climb(table, cfg, seed=seeds + [split_seed(1, 2, 3)])
    shared = np.random.default_rng(0)
    with pytest.raises(ValueError, match="Generator appears more than once"):
        hill_climb(table, cfg, seed=[shared, seeds[1], shared])
    assert hill_climb(table, cfg, seed=seeds[:2]).shape == (4, 2)


# ---------------------------------------------------------------------------
# the MAP search


@st.composite
def map_cases(draw):
    """Gaussian or discrete data, p 1 to 7, and a parent cap of 1 to 5;
    some discrete columns are copies of others, so that families and
    whole DAGs tie exactly."""
    p = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["gaussian", "discrete", "duplicated"]))
    seed, n = draw(st.integers(0, 10_000)), draw(st.integers(20, 60))
    if kind == "gaussian":
        data = gaussian_data(seed, p, n)
    else:
        data = discrete_data(seed, p, n)
    if kind == "duplicated" and p > 1:
        copies = draw(st.lists(st.integers(1, p - 1), min_size=1, unique=True))
        data = duplicated(data, [(j, draw(st.integers(0, j - 1))) for j in copies])
    return data, draw(st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(map_cases())
def test_map_dag_matches_serial_reference(case):
    data, cap = case
    assert outcome(lambda: map_dag(data, cap)) == outcome(lambda: ref_map_dag(data, cap))


@settings(max_examples=40, deadline=None)
@given(map_cases(), st.integers(1, 5), st.integers(0, 4), st.integers(0, 99))
def test_map_dag_of_a_table_matches_serial_reference_per_sample(
        case, boot_samples, extra_cap, seed):
    """A table scored for a wider cap than the search's gives every
    sample the DAG of the serial search on that resample's rows."""
    data, cap = case
    idx = resamples(data.n, boot_samples, seed)
    table = _table(data, cap + extra_cap, idx)
    assert_same_outcome(outcome(lambda: map_dag(table, cap)), outcome(lambda: masks([
        ref_map_dag(data.take_rows(i), cap, cap + extra_cap) for i in idx])))


def test_map_dag_breaks_ties_as_the_serial_search():
    """Copied columns tie families and DAGs exactly; only the first-maximum
    rule of the serial scan picks the DAG."""
    data = duplicated(discrete_data(4, 6, 80), [(3, 0), (4, 0), (5, 1)])
    table = _table(data, 3, resamples(data.n, 6, 2))
    learned = map_dag(table, 3)
    assert np.array_equal(learned, masks([ref_map_dag(data.take_rows(i), 3)
                                          for i in resamples(data.n, 6, 2)]))
    assert map_dag(data, 3) == ref_map_dag(data, 3)
    assert len(np.unique(learned, axis=1).T) > 1


def test_map_dag_keeps_its_cap_on_a_wider_table():
    """X3 is the sum of the others: its best family holds all three, which
    a search capped at one parent must not take from a table scored for
    three."""
    data = gaussian_data(1, 4, 60)
    rows = data.rows.copy()
    rows[:, 3] = rows[:, :3].sum(axis=1) + 0.1 * np.random.default_rng(1).standard_normal(60)
    data = Dataset(data.variables, rows)
    idx = resamples(data.n, 3, 5)
    table = _table(data, 3, idx)
    learned = map_dag(table, 1)
    assert np.array_equal(learned, masks([ref_map_dag(data.take_rows(i), 1, 3) for i in idx]))
    assert (np.bitwise_count(learned) <= 1).all()
    assert not np.array_equal(map_dag(table, 3), learned)


@pytest.mark.parametrize("chunk", [1, 3])
def test_lazy_map_table_reads_rows_in_chunks(monkeypatch, chunk):
    """A table too big to be dense is read ``chunk`` samples at a time,
    and learns and raises what the serial search does sample by sample."""
    import relqual.search as search

    p, boot_samples = 5, 5
    monkeypatch.setattr("relqual.data.DENSE_TABLE_ENTRIES", chunk * p << p)
    monkeypatch.setattr(search, "DENSE_TABLE_ENTRIES", chunk * p << p)
    reads = []
    real = FamilyScorer.read_rows

    def read_rows(table, samples):
        reads.append(len(range(table.samples)[samples]))
        return real(table, samples)

    monkeypatch.setattr(FamilyScorer, "read_rows", read_rows)
    seen = set()
    for seed in range(6):
        data = collinear_data(seed=seed, n=14) if seed % 2 else gaussian_data(seed, p, 30)
        idx = resamples(data.n, boot_samples, seed)
        table = _table(data, 3, idx)
        assert table.values is None
        reads.clear()
        want = outcome(lambda: masks([ref_map_dag(data.take_rows(i), 3) for i in idx]))
        assert_same_outcome(outcome(lambda: map_dag(table, 3)), want)
        if want[0] == "ok":
            assert reads == [chunk] * (boot_samples // chunk) + [boot_samples % chunk] * (
                boot_samples % chunk > 0)
        seen.add(want[0])
    assert "ok" in seen and len(seen) > 1


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
    with np.errstate(divide="ignore"):
        scores = np.log(weights.astype(float))
    try:
        expected = ref_edge_posteriors(list(weights))
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _edge_posteriors(scores)
        return
    assert np.max(np.abs(_edge_posteriors(scores) - expected)) <= 1e-12


def parent_masks(p):
    """Per labeled DAG over p nodes, each child's parent mask."""
    masks = []
    for dag in enumerate_dags(p):
        row = [0] * p
        for u, v in dag.edges:
            row[v] |= 1 << u
        masks.append(row)
    return np.array(masks)


SMALL_PARENT_MASKS = {p: parent_masks(p) for p in range(1, 5)}


def enumerated_posteriors(scores, masks):
    """P(u -> v) by weighting every DAG, its log weight shifted by the
    largest before exp."""
    p = scores.shape[0]
    log_weights = scores[np.arange(p), masks].sum(axis=1)
    weights = np.exp(log_weights - log_weights.max())
    has_edge = (masks[:, None, :] >> np.arange(p)[None, :, None]) & 1
    return np.einsum("d,duv->uv", weights, has_edge) / weights.sum()


@st.composite
def log_score_tables(draw):
    """Log family weights as real scores have them: finite for every parent
    set within a random cap, the empty one included, and spread over up to
    thousands of nats.  In some tables each child's best family holds the
    next child, so that the best families form a cycle and no DAG comes
    close to taking every child's best."""
    p = draw(st.integers(1, 4))
    cap = draw(st.integers(0, p - 1))
    spread = draw(st.sampled_from([1.0, 50.0, 3e3, 3e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = np.arange(1 << p)
    scores = -spread * rng.random((p, 1 << p))
    scores[(masks >> np.arange(p)[:, None]) & 1 == 1] = -np.inf
    scores[:, np.bitwise_count(masks) > cap] = -np.inf
    if cap and draw(st.booleans()):
        for child in range(p):
            scores[child, 1 << (child + 1) % p] = spread
    return scores


@settings(max_examples=150, deadline=None)
@given(log_score_tables())
def test_edge_posteriors_match_dag_enumeration(scores):
    expected = enumerated_posteriors(scores, SMALL_PARENT_MASKS[len(scores)])
    assert np.max(np.abs(_edge_posteriors(scores) - expected)) <= 1e-9


def test_cycle_of_best_families_far_apart():
    """Each child prefers the next by 20,000 nats, so every weight but the
    three best underflows even an 80-bit long double.  The best DAGs hold
    two of the cycle's three edges each, so each edge reads 2/3."""
    scores = np.full((3, 8), -20_000.0)
    scores[(np.arange(8) >> np.arange(3)[:, None]) & 1 == 1] = -np.inf
    for child in range(3):
        scores[child, 1 << (child + 1) % 3] = 0.0
    prob = _edge_posteriors(scores)
    cycle = np.zeros((3, 3), dtype=bool)
    cycle[[1, 2, 0], [0, 1, 2]] = True
    assert np.max(np.abs(prob[cycle] - 2 / 3)) <= 1e-9
    assert np.max(prob[~cycle]) <= 1e-9


@pytest.fixture(scope="module")
def five_node_parent_masks():
    masks = parent_masks(5)
    assert len(masks) == 29_281
    return masks


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
    """On the criterion-3 and five-node datasets the float64 posterior
    matches the per-edge reruns on long-double weights."""
    cases = [(random_four_node_dataset(42_000 + rep), 3) for rep in range(20)]
    cases += [(gaussian_data(seed, 5, 60), mp) for seed, mp in FIVE_NODE_CASES]
    for data, max_parents in cases:
        scores = _table(data, max_parents).read_rows(slice(None))[0]
        wide = scores.astype(np.longdouble)
        weights = np.exp(wide - wide.max(axis=1, keepdims=True))
        assert np.max(np.abs(_edge_posteriors(scores)
                             - ref_edge_posteriors(list(weights)))) <= 1e-9


def test_exact_searches_refuse_one_node_past_the_limit():
    data = gaussian_data(0, MAX_EXACT_NODES + 1, 30)
    with pytest.raises(SizeLimitError):
        exact_map_edge_probabilities(data)
    with pytest.raises(SizeLimitError):
        map_dag(data)

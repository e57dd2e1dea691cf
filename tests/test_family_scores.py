"""Batched family scoring against families scored alone, the arguments
``family_score`` refuses, and the subset layers the exact searches share.

A ``family_scores`` call takes one child per row, so a fill scores every
child's families of one parent count in one batch.  Each row must come out
bit for bit as its family scored alone, with the same error where scoring
fails: the golden digests and the exact searches rest on that.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relqual.data
from relqual.dag import VariableSet
from relqual.data import Dataset, DiscreteDataset
from relqual.discretize import DiscreteScoreCache
from relqual.gaussian import DegenerateVarianceError, GaussianScoreCache
from relqual.ols import RankDeficientError
from relqual.search import _layers, _sink_blocks, exact_map_edge_probabilities, map_dag


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@st.composite
def scoring_cases(draw):
    """A scorer of one dataset or of 2-4 resamples, and rows of one parent
    count k whose children mix.  Gaussian data may copy one column into
    another (singular parent covariances), hold a near-constant column
    (degenerate residuals) or have n < k + 2 rows; discrete data has
    unequal levels, some never observed."""
    kind = draw(st.sampled_from(["gaussian", "discrete"]))
    p = draw(st.integers(2, 6))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = VariableSet([f"v{j}" for j in range(p)])
    if kind == "gaussian":
        rows = rng.standard_normal((n, p))
        if draw(st.booleans()):
            source, target = draw(st.permutations(range(p)))[:2]
            rows[:, target] = rows[:, source]
        if draw(st.booleans()):
            spread = draw(st.sampled_from([0.0, 1e-13]))
            rows[:, draw(st.integers(0, p - 1))] = 3.0 + spread * rng.standard_normal(n)
        data, scorer = Dataset(names, rows), GaussianScoreCache
    else:
        levels = tuple(draw(st.lists(st.integers(1, 5), min_size=p, max_size=p)))
        rows = np.column_stack([rng.integers(0, draw(st.integers(1, k)), n) for k in levels])
        data, scorer = DiscreteDataset(names, rows, levels), DiscreteScoreCache
    samples = draw(st.sampled_from([1, 2, 4]))
    scorer = scorer(data, None, None if samples == 1 else rng.integers(0, n, (samples, n)))
    k = draw(st.integers(0, p - 1))
    families = draw(st.lists(
        st.integers(0, p - 1).flatmap(lambda child: st.tuples(
            st.just(child),
            st.lists(st.sampled_from([j for j in range(p) if j != child]),
                     min_size=k, max_size=k, unique=True).map(sorted))),
        min_size=1, max_size=8))
    lo = draw(st.integers(0, samples - 1))
    chosen = slice(lo, draw(st.integers(lo + 1, samples)))
    return scorer, families, chosen


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_rows_of_mixed_children_equal_each_family_scored_alone(case):
    scorer, families, chosen = case
    children = np.array([child for child, _ in families])
    sets = np.array([parents for _, parents in families], dtype=np.intp).reshape(
        len(families), -1)
    scores, failures = scorer.family_scores(children, sets, chosen)
    assert scores.shape == (len(range(scorer.samples)[chosen]), len(families))
    want_failures = {}
    for m, (child, _) in enumerate(families):
        alone, alone_failures = scorer.family_scores(child, sets[m:m + 1], chosen)
        assert np.array_equal(bits(scores[:, m]), bits(alone[:, 0])), (m, child)
        want_failures.update({(b, m): error for (b, _), error in alone_failures.items()})
    assert failures.keys() == want_failures.keys()
    for (b, m), error in failures.items():
        want = want_failures[b, m]
        assert (type(error), str(error)) == (type(want), str(want))
        if isinstance(error, (RankDeficientError, DegenerateVarianceError)):
            assert re.search(rf"\bnode {children[m]}\b", str(error))
    # a fill batches every child's families of one count, through the memo
    # of joint counts where the discrete scorer keeps one
    filled = scorer.fill(chosen)
    masks = (1 << sets).sum(axis=1)
    assert np.array_equal(bits(filled[:, children, masks]), bits(scores))


def small_scorers(kind, samples=None):
    rng = np.random.default_rng(11)
    names = VariableSet(["a", "b", "c", "d"])
    resamples = None if samples is None else rng.integers(0, 40, (samples, 40))
    if kind == "gaussian":
        return GaussianScoreCache(Dataset(names, rng.standard_normal((40, 4))), None, resamples)
    levels = (2, 3, 4, 2)
    rows = np.column_stack([rng.integers(0, k, 40) for k in levels])
    return DiscreteScoreCache(DiscreteDataset(names, rows, levels), None, resamples)


@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
def test_a_fill_splits_its_batches_at_the_dense_table_bound(monkeypatch, kind):
    """With the bound at 40 entries, no batch of a fill over 3 resamples
    holds more than 40 parent-covariance entries unless it is one family,
    and the fill is bit-equal to one in whole batches."""
    scorer = small_scorers(kind, samples=3)
    whole = scorer.fill(slice(None))
    batches = []
    real = type(scorer).family_scores

    def family_scores(self, children, parent_sets, resamples=slice(None)):
        batches.append((len(parent_sets), parent_sets.shape[1]))
        return real(self, children, parent_sets, resamples)

    monkeypatch.setattr(relqual.data, "DENSE_TABLE_ENTRIES", 40)
    monkeypatch.setattr(type(scorer), "family_scores", family_scores)
    assert np.array_equal(bits(scorer.fill(slice(None))), bits(whole))
    assert all(rows == 1 or 3 * rows * k * k <= 40 for rows, k in batches)
    assert sum(rows for rows, _ in batches) == 4 * 2 ** 3
    assert any(k == 3 for _, k in batches) and any(rows > 1 for rows, k in batches if k)


def test_a_stack_with_one_singular_matrix_takes_two_solves(monkeypatch):
    """Column e copies column a, so of five rows of two parents only the
    first, {a, e}, has a singular parent covariance: the stack is solved
    once, then once more without that matrix, not once per matrix, and
    every row still equals its family scored alone."""
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((30, 5))
    rows[:, 4] = rows[:, 0]
    scorer = GaussianScoreCache(Dataset(VariableSet(list("abcde")), rows))
    children = np.array([1, 2, 3, 2, 3])
    sets = np.array([[0, 4], [0, 1], [0, 1], [1, 3], [1, 4]])
    calls = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or real(*args))
    scores, failures = scorer.family_scores(children, sets)
    assert len(calls) <= 2
    assert list(failures) == [(0, 0)] and isinstance(failures[0, 0], RankDeficientError)
    for m, child in enumerate(children):
        alone, _ = scorer.family_scores(child, sets[m:m + 1])
        assert bits(scores[0, m]) == bits(alone[0, 0])


# ---------------------------------------------------------------------------
# family_score refuses what no family can be


@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
def test_family_score_refuses_a_mask_with_bits_beyond_the_nodes(kind):
    with pytest.raises(ValueError, match=r"^parent_mask=16 is outside \[0, 16\)$"):
        small_scorers(kind).family_score(0, 0b10000)


@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
def test_family_score_refuses_a_mask_holding_the_child(kind):
    with pytest.raises(ValueError, match="^parent_mask=3 holds the child 0$"):
        small_scorers(kind).family_score(0, 0b0011)


@pytest.mark.parametrize("sample", [5, -1])
@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
def test_family_score_refuses_a_sample_the_scorer_lacks(kind, sample):
    with pytest.raises(ValueError, match=rf"^sample={sample} is outside \[0, 1\)$"):
        small_scorers(kind).family_score(1, 0b0001, sample)


@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
def test_family_score_refuses_a_child_beyond_the_nodes(kind):
    with pytest.raises(ValueError, match=r"^child=5 is outside \[0, 4\)$"):
        small_scorers(kind).family_score(5, 0b0001)


@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
def test_family_score_still_answers_every_legal_family(kind):
    scorer = small_scorers(kind, samples=2)
    filled = scorer.fill(slice(None))
    for sample in range(2):
        for child in range(4):
            for mask in range(16):
                if not mask >> child & 1:
                    assert bits(scorer.family_score(child, mask, sample)) == \
                        bits(filled[sample, child, mask])


# ---------------------------------------------------------------------------
# the subset layers, built once per node count


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12))
def test_cached_layers_equal_fresh_ones_and_refuse_writes(p):
    for cached, fresh in ((_layers(p), _layers.__wrapped__(p)),
                          (_sink_blocks(p), _sink_blocks.__wrapped__(p))):
        assert len(cached) == len(fresh)
        for got, want in zip(cached, fresh):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert not a.flags.writeable
                if a.size:
                    with pytest.raises(ValueError, match="read-only"):
                        a[(0,) * a.ndim] = 1
    assert _layers(p) is _layers(p) and _sink_blocks(p) is _sink_blocks(p)


def test_exact_searches_leave_the_cached_layers_as_built():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((50, 6))
    rows[:, 3] += rows[:, 0] - rows[:, 1]
    data = Dataset(VariableSet([f"x{i}" for i in range(6)]), rows)
    exact_map_edge_probabilities(data, max_parents=3)
    map_dag(data, max_parents=3)
    for got, want in zip(_layers(6) + _sink_blocks(6),
                         _layers.__wrapped__(6) + _sink_blocks.__wrapped__(6)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

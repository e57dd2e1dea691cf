"""Discretized-arm fast paths against the code they replaced.

Each reference below is the earlier implementation, kept test-local:

- Hartemink's merge loop, which recomputed the loss vector of every
  ordered variable pair at every merge step;
- the multinomial family score that ran its `where`, division, `log` and
  masking over every cell of the (sample, configuration, level) count
  table, observed or not.

The fast paths must give the same floats, not merely close ones: the
`simstudy` table and the digests of `discretize` are byte-identical
contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.dag import VariableSet
from relqual.data import Dataset, DiscreteDataset
from relqual.discretize import (
    HARTEMINK,
    DegenerateColumnError,
    DiscreteScoreCache,
    DiscretizationSpec,
    Discretized,
    _assign,
    _equal_frequency_edges,
    _mi_row_terms,
    discretize,
)
from relqual.search import FamilyScoreTable, _table


# --- references ---------------------------------------------------------------


def serial_hartemink(data, spec):
    n, p = data.rows.shape
    initial = min(spec.hartemink_initial_bins, n)

    base_edges = []
    base_codes = np.zeros((n, p), dtype=np.int64)
    counts = []
    for j in range(p):
        col = data.rows[:, j]
        if float(col.min()) == float(col.max()):
            raise DegenerateColumnError("constant column cannot be discretized")
        interior = np.unique(_equal_frequency_edges(col, initial))
        codes = _assign(col, interior)
        used, codes = np.unique(codes, return_inverse=True)
        base_codes[:, j] = codes
        base_edges.append(interior[used[:-1]] if used.size > 1 else np.empty(0))
        counts.append(used.size)
        if used.size < spec.bins:
            raise DegenerateColumnError(
                f"column {data.variables.names[j]} has only {used.size} distinct bins")

    tables = {}
    for a in range(p):
        for b in range(a + 1, p):
            t = np.zeros((counts[a], counts[b]), dtype=float)
            np.add.at(t, (base_codes[:, a], base_codes[:, b]), 1.0)
            tables[(a, b)] = t

    starts = [list(range(c)) for c in counts]

    def table_for(v, w):
        return tables[(v, w)] if v < w else tables[(w, v)].T

    def candidate_losses(v):
        b = len(starts[v])
        losses = np.zeros(b - 1)
        for w in range(p):
            if w == v:
                continue
            t = table_for(v, w)
            r = t.sum(axis=1)
            c = t.sum(axis=0)
            before = _mi_row_terms(t, r, c, n)
            merged = t[:-1] + t[1:]
            after = _mi_row_terms(merged, r[:-1] + r[1:], c, n)
            losses += before[:-1] + before[1:] - after
        return losses

    while True:
        best = None
        for v in range(p):
            if len(starts[v]) <= spec.bins:
                continue
            losses = candidate_losses(v)
            i = int(np.argmin(losses))
            if best is None or losses[i] < best[0] - 1e-12:
                best = (float(losses[i]), v, i)
        if best is None:
            break
        _, v, i = best
        for w in range(p):
            if w == v:
                continue
            if v < w:
                t = tables[(v, w)]
                t[i] += t[i + 1]
                tables[(v, w)] = np.delete(t, i + 1, axis=0)
            else:
                t = tables[(w, v)]
                t[:, i] += t[:, i + 1]
                tables[(w, v)] = np.delete(t, i + 1, axis=1)
        del starts[v][i + 1]

    codes = np.zeros((n, p), dtype=np.int64)
    edges = []
    for j in range(p):
        group_starts = np.asarray(starts[j][1:], dtype=np.int64)
        codes[:, j] = np.searchsorted(group_starts, base_codes[:, j], side="right")
        edges.append(base_edges[j][group_starts - 1] if group_starts.size else np.empty(0))
    dataset = DiscreteDataset(data.variables, codes, tuple(len(s) for s in starts))
    return Discretized(dataset, tuple(edges))


class DenseScoreCache(DiscreteScoreCache):
    """Multinomial family scores over every cell of the count table."""

    def family_scores(self, child, parent_sets, resamples=slice(None)):
        idx = self.resamples[resamples]
        if parent_sets.shape[1] > self.max_parents:
            raise ValueError("parent set exceeds max_parents")
        child_levels = self.levels[child]
        scores = np.empty((len(idx), len(parent_sets)))
        for m, parents in enumerate(parent_sets):
            config_size = 1
            code = self.rows[:, child].copy()
            radix = child_levels
            for parent in parents:
                code += radix * self.rows[:, parent]
                radix *= self.levels[parent]
                config_size *= self.levels[parent]
            offsets = np.arange(len(idx))[:, None] * radix
            cell = np.bincount((code[idx] + offsets).ravel(),
                               minlength=len(idx) * radix)
            cell = cell.reshape(len(idx), config_size, child_levels)
            config = cell.sum(axis=2)
            observed = cell > 0
            terms = np.where(observed, cell, 1.0)
            terms /= np.where(config > 0, config, 1.0)[:, :, None]
            np.log(terms, out=terms)
            terms *= cell
            terms[~observed] = 0.0
            loglik = terms.reshape(len(idx), -1).sum(axis=1)
            k = (child_levels - 1) * config_size
            scores[:, m] = loglik - 0.5 * k * self._log_n
        return scores, {}


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


# --- Hartemink ----------------------------------------------------------------


@st.composite
def hartemink_cases(draw):
    """Columns that may be rounded (so quantile cut points repeat and
    fine bins come out empty), exact copies of an earlier column (so
    losses tie across variables), or constant; and a target bin count
    anywhere from 2 up to the initial count, where no merge happens."""
    p = draw(st.sampled_from(range(1, 6)))
    n = draw(st.sampled_from([2, 3, 5, 8, 13, 21, 40, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n, p))
    for j in range(p):
        kind = draw(st.sampled_from(["raw", "rounded", "coarse", "copy", "constant"]))
        if kind == "rounded":
            rows[:, j] = np.round(rows[:, j], 1)
        elif kind == "coarse":
            rows[:, j] = np.round(rows[:, j] * 2.0)
        elif kind == "copy" and j > 0:
            rows[:, j] = rows[:, draw(st.integers(0, j - 1))]
        elif kind == "constant" and draw(st.integers(0, 3)) == 0:
            rows[:, j] = 1.5
    initial = draw(st.sampled_from(range(2, 15)))
    bins = max(2, min(initial, n) - draw(st.sampled_from(range(13))))
    data = Dataset(VariableSet([f"v{j}" for j in range(p)]), rows)
    return data, DiscretizationSpec(HARTEMINK, bins, hartemink_initial_bins=initial)


def assert_same_discretization(got, want):
    assert got.dataset.levels == want.dataset.levels
    assert np.array_equal(got.dataset.rows, want.dataset.rows)
    assert len(got.edges) == len(want.edges)
    for e_got, e_want in zip(got.edges, want.edges):
        assert np.array_equal(bits(e_got), bits(e_want))


@settings(max_examples=400, deadline=None)
@given(hartemink_cases())
def test_hartemink_matches_the_full_recompute_loop(case):
    data, spec = case
    try:
        want = serial_hartemink(data, spec)
    except DegenerateColumnError as exc:
        with pytest.raises(DegenerateColumnError, match=str(exc)):
            discretize(data, spec)
        return
    assert_same_discretization(discretize(data, spec), want)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bins", [2, 3, 20])
def test_hartemink_one_and_two_columns(p, bins):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(80)
    rows = np.column_stack([a, a + 0.5 * rng.standard_normal(80)])[:, :p]
    data = Dataset(VariableSet(["a", "b"][:p]), rows)
    spec = DiscretizationSpec(HARTEMINK, bins)
    got = discretize(data, spec)
    assert_same_discretization(got, serial_hartemink(data, spec))
    assert got.dataset.levels == (bins,) * p
    if p == 1:
        # no pair to keep information with: every merge loses nothing, so
        # the first pair of levels always merges and the top cuts remain
        fine = np.unique(_equal_frequency_edges(a, 20))
        assert np.array_equal(got.edges[0], fine[20 - bins:])


def test_hartemink_duplicated_columns_tie_across_variables():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(150)
    rows = np.column_stack([a, a, a + rng.standard_normal(150), a])
    data = Dataset(VariableSet(["a", "copy", "noisy", "copy2"]), rows)
    spec = DiscretizationSpec(HARTEMINK, 3, hartemink_initial_bins=16)
    got = discretize(data, spec)
    assert_same_discretization(got, serial_hartemink(data, spec))
    assert np.array_equal(got.dataset.rows[:, 0], got.dataset.rows[:, 1])


def test_hartemink_still_rejects_columns_with_too_few_bins():
    rows = np.column_stack([np.arange(30.0), np.repeat([0.0, 1.0], 15)])
    data = Dataset(VariableSet(["x", "two"]), rows)
    spec = DiscretizationSpec(HARTEMINK, 3)
    with pytest.raises(DegenerateColumnError, match="column two has only 2"):
        serial_hartemink(data, spec)
    with pytest.raises(DegenerateColumnError, match="column two has only 2"):
        discretize(data, spec)
    constant = Dataset(VariableSet(["x", "c"]),
                       np.column_stack([np.arange(30.0), np.full(30, 4.0)]))
    with pytest.raises(DegenerateColumnError, match="constant column"):
        discretize(constant, DiscretizationSpec(HARTEMINK, 2))


# --- multinomial family scores ------------------------------------------------


@st.composite
def discrete_tables(draw):
    """Level-coded data with unequal declared levels, some of them never
    observed, bootstrap resamples, and a parent cap anywhere from 0 up to
    p - 1."""
    p = draw(st.sampled_from(range(1, 6)))
    n = draw(st.sampled_from([1, 2, 5, 12, 40]))
    levels = tuple(draw(st.lists(st.sampled_from(range(1, 6)), min_size=p, max_size=p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = [draw(st.integers(1, k)) for k in levels]
    rows = np.column_stack([rng.integers(0, m, size=n) for m in observed])
    data = DiscreteDataset(VariableSet([f"v{j}" for j in range(p)]), rows, levels)
    samples = draw(st.integers(2, 6))
    resamples = rng.integers(0, n, size=(samples, n))
    return data, draw(st.integers(0, p - 1)), resamples


def assert_same_table(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


@settings(max_examples=200, deadline=None)
@given(discrete_tables())
def test_family_scores_match_the_dense_cell_table(case):
    data, cap, resamples = case
    dense = _table(data, cap, resamples)
    assert dense.values is not None
    want = FamilyScoreTable(DenseScoreCache(data, cap, resamples), data.variables)
    assert_same_table(dense.values, want.values)
    # one dataset: the table is lazy and scores each family on its read
    lazy = _table(data, cap)
    assert lazy.values is None
    reference = FamilyScoreTable(DenseScoreCache(data, cap), data.variables)
    assert_same_table(lazy.read_rows(slice(None)), reference.read_rows(slice(None)))


def test_family_scores_of_the_unequal_levels_example():
    rng = np.random.default_rng(5)
    levels = (2, 3, 5, 4)
    # level 4 of the third column and level 3 of the last are never seen
    rows = np.column_stack([rng.integers(0, 2, 60), rng.integers(0, 3, 60),
                            rng.integers(0, 4, 60), rng.integers(0, 3, 60)])
    data = DiscreteDataset(VariableSet(["a", "b", "c", "d"]), rows, levels)
    resamples = rng.integers(0, 60, size=(7, 60))
    for cap in range(4):
        assert_same_table(
            _table(data, cap, resamples).values,
            FamilyScoreTable(DenseScoreCache(data, cap, resamples), data.variables).values)
        scorer, reference = DiscreteScoreCache(data, cap), DenseScoreCache(data, cap)
        for child in range(4):
            sets = np.array([[j for j in range(4) if j != child][:cap]], dtype=np.intp)
            got, _ = scorer.family_scores(child, sets)
            want, _ = reference.family_scores(child, sets)
            assert_same_table(got, want)

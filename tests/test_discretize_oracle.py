"""Discretized-arm fast paths against the code they replaced.

Each reference below is the earlier implementation, kept test-local:

- Hartemink's merge loop, which recomputed the loss vector of every
  ordered variable pair at every merge step, one pair table at a time
  (`_mi_row_terms`), C-ordered or as the transpose of a C-ordered table;
- the multinomial family score that counted each family with its own
  bincount and ran its `where`, division, `log` and masking over every
  cell of the (sample, configuration, level) count table, observed or not.

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
    MARGINAL_ENTRIES,
    DegenerateColumnError,
    DiscreteScoreCache,
    DiscretizationSpec,
    Discretized,
    _assign,
    _equal_frequency_edges,
    _merge_losses,
    discretize,
)
from relqual.gaussian import simulate
from relqual.search import _table
from relqual.simstudy import default_truth


# --- references ---------------------------------------------------------------


def _mi_row_terms(block, row_marg, col_marg, n):
    """Per-row contribution to n*MI for the given rows of a count table."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = block * n / np.outer(row_marg, col_marg)
        terms = np.where(block > 0, block * np.log(np.where(block > 0, ratio, 1.0)), 0.0)
    return terms.sum(axis=1)


def serial_hartemink(data, spec, merges=None):
    """The full-recompute loop; each merge, as (variable, its first level
    of the pair, its levels before), is appended to ``merges`` if given."""
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
        if merges is not None:
            merges.append((v, i, len(starts[v])))
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
    """Multinomial family scores over every cell of the count table, one
    child per row of ``parent_sets`` (an int child is every row's)."""

    def family_scores(self, children, parent_sets, resamples=slice(None)):
        idx = self.resamples[resamples]
        if parent_sets.shape[1] > self.max_parents:
            raise ValueError("parent set exceeds max_parents")
        children = np.broadcast_to(children, len(parent_sets))
        scores = np.empty((len(idx), len(parent_sets)))
        for m, (child, parents) in enumerate(zip(children, parent_sets)):
            child_levels = self.levels[child]
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
    anywhere from 2 up to the initial count, where no merge happens.  Up
    to the simulation study's scale (six variables, 200 rows, 20 initial
    bins), so that pair tables of 8 or more columns are merged in both
    layouts."""
    p = draw(st.sampled_from(range(1, 7)))
    n = draw(st.sampled_from([2, 3, 5, 8, 13, 21, 40, 60, 120, 200]))
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
    initial = draw(st.sampled_from(range(2, 21)))
    bins = max(2, min(initial, n) - draw(st.sampled_from(range(19))))
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


@pytest.mark.parametrize("copies", [(), (1, 3), (0, 2, 5)], ids=["plain", "one-copy", "two-copies"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hartemink_at_the_study_scale(seed, copies):
    """Six variables, 200 rows, 20 initial bins merged to 3, as in the
    study's HC-D-H arm; copies of the first listed column tie across
    variables.  Every run merges at the first and at the last pair of some
    variable and closes each variable on its last merge."""
    data = simulate(default_truth(), 200, seed=seed)
    rows = data.rows.copy()
    for j in copies[1:]:
        rows[:, j] = rows[:, copies[0]]
    data = Dataset(data.variables, rows)
    spec = DiscretizationSpec(HARTEMINK, 3, hartemink_initial_bins=20)
    merges = []
    want = serial_hartemink(data, spec, merges)
    assert_same_discretization(discretize(data, spec), want)
    assert len(merges) == 6 * (20 - 3)
    assert any(i == 0 for _, i, _ in merges)
    assert any(i == levels - 2 for _, i, levels in merges)
    # a variable is closed on its last merge, from 4 levels to 3, while
    # others still merge after it
    closing = [k for k, (_, _, levels) in enumerate(merges) if levels == 4]
    assert len(closing) == 6 and closing[0] < len(merges) - 1
    if copies:
        assert all(np.array_equal(want.dataset.rows[:, j], want.dataset.rows[:, copies[0]])
                   for j in copies[1:])


def pair_losses(t, n):
    """The loss vector of one pair table, as the full-recompute loop takes
    it."""
    r, c = t.sum(axis=1), t.sum(axis=0)
    before = _mi_row_terms(t, r, c, n)
    after = _mi_row_terms(t[:-1] + t[1:], r[:-1] + r[1:], c, n)
    return before[:-1] + before[1:] - after


@st.composite
def pair_tables(draw):
    """Count tables over up to 200 rows of one variable of 2 to 20 levels
    against 1 to 5 others of 2 to 20 levels, with the first variable's
    levels as rows: a C-ordered table (the first variable first in the
    pair) or the transpose of one (the first variable second)."""
    n = draw(st.sampled_from([2, 13, 60, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.integers(2, 20), min_size=2, max_size=6))
    codes = [rng.integers(0, k, size=n) for k in levels]
    tables = []
    for k, other in zip(levels[1:], codes[1:]):
        first = draw(st.booleans())
        t = np.zeros((levels[0], k) if first else (k, levels[0]))
        np.add.at(t, (codes[0], other) if first else (other, codes[0]), 1.0)
        tables.append(t if first else t.T)
    return n, tables


@settings(max_examples=200, deadline=None)
@given(pair_tables())
def test_batched_merge_losses_match_one_table_at_a_time(case):
    n, tables = case
    # the transposes stacked: each other variable's losses against the
    # first along the rows, and the first variable's against each other
    flipped = [t.T for t in tables]
    lengths = np.array([t.shape[0] for t in flipped])
    r = tables[0].sum(axis=1)
    down, got = _merge_losses(np.vstack(flipped),
                              np.concatenate([t.sum(axis=1) for t in flipped]), r,
                              lengths, 0, len(r), n)
    assert down.shape == (lengths.sum() - 1,)
    for lo, t in zip(np.cumsum(lengths) - lengths, flipped):
        assert np.array_equal(bits(down[lo:lo + len(t) - 1]), bits(pair_losses(t, n)))
    assert got.shape == (len(r) - 1, len(tables))
    for loss, t in zip(got.T, tables):
        assert np.array_equal(bits(loss), bits(pair_losses(t, n)))


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
    p - 1.  One draw in eight has six variables of 8 to 10 levels, whose
    joint count table has more marginals than ``MARGINAL_ENTRIES`` holds,
    so that a fill across resamples counts each family on its own; its
    cap stays at 2 or less to keep the reference's cell tables small."""
    wide = draw(st.integers(0, 7)) == 0
    p = 6 if wide else draw(st.sampled_from(range(1, 7)))
    n = draw(st.sampled_from([1, 2, 5, 12, 40, 200]))
    choices = range(8, 11) if wide else range(1, 6)
    levels = tuple(draw(st.lists(st.sampled_from(choices), min_size=p, max_size=p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = [draw(st.integers(1, k)) for k in levels]
    rows = np.column_stack([rng.integers(0, m, size=n) for m in observed])
    data = DiscreteDataset(VariableSet([f"v{j}" for j in range(p)]), rows, levels)
    samples = draw(st.integers(2, 6))
    resamples = rng.integers(0, n, size=(samples, n))
    return data, draw(st.integers(0, 2 if wide else p - 1)), resamples


def assert_same_table(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


@settings(max_examples=200, deadline=None)
@given(discrete_tables())
def test_family_scores_match_the_dense_cell_table(case):
    data, cap, resamples = case
    dense = _table(data, cap, resamples)
    assert dense.values is not None
    want = DenseScoreCache(data, cap, resamples)
    assert_same_table(dense.values, want.values)
    # one dataset: the table is lazy and scores each family on its read
    lazy = _table(data, cap)
    assert lazy.values is None
    reference = DenseScoreCache(data, cap)
    assert_same_table(lazy.read_rows(slice(None)), reference.read_rows(slice(None)))


class MemoKeeper(DiscreteScoreCache):
    """Keeps the last memo a fill's family scores saw: the whole memo,
    since it only grows during a fill."""

    def family_scores(self, children, parent_sets, resamples=slice(None)):
        scores = super().family_scores(children, parent_sets, resamples)
        self.kept = None if self._memo is None else dict(self._memo)
        return scores


@st.composite
def memo_tables(draw):
    """Level-coded data of 2 to 5 declared levels a variable, some never
    observed, and 2 or 100 bootstrap resamples; up to five variables at
    100 resamples, so that the marginals fit ``MARGINAL_ENTRIES``."""
    samples = draw(st.sampled_from([2, 100]))
    p = draw(st.integers(1, 5 if samples == 100 else 6))
    levels = tuple(draw(st.lists(st.integers(2, 5), min_size=p, max_size=p)))
    n = draw(st.sampled_from([1, 7, 40, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = [draw(st.integers(1, k)) for k in levels]
    rows = np.column_stack([rng.integers(0, m, size=n) for m in observed])
    data = DiscreteDataset(VariableSet([f"v{j}" for j in range(p)]), rows, levels)
    return data, draw(st.integers(0, p - 1)), rng.integers(0, n, size=(samples, n))


@settings(max_examples=100, deadline=None)
@given(memo_tables())
def test_every_memoized_marginal_is_the_direct_bincount(case):
    data, cap, resamples = case
    assert len(resamples) * np.prod([k + 1 for k in data.levels]) <= MARGINAL_ENTRIES
    scorer = MemoKeeper(data, cap, resamples)
    assert scorer._memo is None and scorer.kept
    sampled = data.rows[resamples]              # (sample, row, variable)
    for variables, counts in scorer.kept.items():
        shape = tuple(data.levels[j] for j in variables)
        assert variables == tuple(sorted(variables, reverse=True))
        code = np.zeros(sampled.shape[:2], dtype=np.intp)
        for j in variables:
            code = code * data.levels[j] + sampled[:, :, j]
        want = np.stack([np.bincount(c, minlength=int(np.prod(shape))) for c in code])
        assert counts.shape == (len(resamples),) + shape
        assert np.array_equal(counts, want.reshape(counts.shape))
    assert_same_table(scorer.values, DenseScoreCache(data, cap, resamples).values)


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
            DenseScoreCache(data, cap, resamples).values)
        scorer, reference = DiscreteScoreCache(data, cap), DenseScoreCache(data, cap)
        for child in range(4):
            sets = np.array([[j for j in range(4) if j != child][:cap]], dtype=np.intp)
            got, _ = scorer.family_scores(child, sets)
            want, _ = reference.family_scores(child, sets)
            assert_same_table(got, want)


def test_marginals_are_shared_only_where_they_fit(monkeypatch):
    """A fill whose marginals fit counts the joint table of all six
    variables once and nothing else; one whose marginals do not fit
    counts each family on its own and never the joint."""
    real = DiscreteScoreCache._counts
    counted = []

    def counts(scorer, idx, variables):
        counted.append(len(variables))
        return real(scorer, idx, variables)

    monkeypatch.setattr(DiscreteScoreCache, "_counts", counts)
    rng = np.random.default_rng(9)
    for levels, shared in (((3,) * 6, True), ((8,) * 6, False)):
        rows = np.column_stack([rng.integers(0, k, 50) for k in levels])
        data = DiscreteDataset(VariableSet([f"v{j}" for j in range(6)]), rows, levels)
        resamples = rng.integers(0, 50, size=(2, 50))
        counted.clear()
        table = _table(data, 2, resamples)
        assert table._memo is None   # dropped when the fill ends
        if shared:
            assert counted == [6]
        else:
            assert counted and 6 not in counted
        assert_same_table(
            table.values,
            DenseScoreCache(data, 2, resamples).values)


def test_one_dataset_with_the_child_between_its_parents():
    """One dataset of unequal levels, one never observed, scored for
    children whose parents lie on both sides of them: lone families take
    their own bincounts, a fill reads them from the memo, and both match
    the cell table bit for bit."""
    rng = np.random.default_rng(13)
    levels = (3, 2, 5, 4)
    rows = np.column_stack([rng.integers(0, 3, 80), rng.integers(0, 2, 80),
                            rng.integers(0, 4, 80), rng.integers(0, 4, 80)])
    data = DiscreteDataset(VariableSet(["a", "b", "c", "d"]), rows, levels)
    scorer, reference = DiscreteScoreCache(data, 3), DenseScoreCache(data, 3)
    for child, sets in ((1, [[0, 2], [0, 3], [0, 2, 3]]), (2, [[0, 3], [1, 3], [0, 1, 3]])):
        for k in (2, 3):
            group = np.array([s for s in sets if len(s) == k], dtype=np.intp)
            got, _ = scorer.family_scores(child, group)
            want, _ = reference.family_scores(child, group)
            assert_same_table(got, want)
    assert_same_table(scorer.fill(slice(None)), reference.fill(slice(None)))
    assert scorer._memo is None


def test_an_interrupted_fill_leaves_no_counts_behind():
    """A fill that raises part way drops its memo: the other resamples'
    lone families and fill still match the cell table."""
    rng = np.random.default_rng(17)
    levels = (3, 2, 4, 3)
    rows = np.column_stack([rng.integers(0, k, 60) for k in levels])
    data = DiscreteDataset(VariableSet(["a", "b", "c", "d"]), rows, levels)
    resamples = rng.integers(0, 60, size=(5, 60))
    scorer, reference = DiscreteScoreCache(data, 2, resamples), DenseScoreCache(data, 2, resamples)
    calls = []

    def log_terms(counts, config):
        calls.append(1)
        if len(calls) == 6:
            raise RuntimeError("interrupted")
        return DiscreteScoreCache._log_terms(scorer, counts, config)

    scorer._log_terms = log_terms
    with pytest.raises(RuntimeError, match="interrupted"):
        scorer.fill(slice(0, 2))
    del scorer._log_terms
    assert scorer._memo is None
    sets = np.array([[0, 2], [2, 3]], dtype=np.intp)
    got, _ = scorer.family_scores(1, sets, slice(2, 5))
    want, _ = reference.family_scores(1, sets, slice(2, 5))
    assert_same_table(got, want)
    assert_same_table(scorer.fill(slice(2, 5)), reference.fill(slice(2, 5)))


def test_the_count_pair_table_keeps_only_the_counts_seen():
    rng = np.random.default_rng(3)
    n = 20_000
    data = DiscreteDataset(VariableSet(["a", "b", "c"]),
                           rng.integers(0, 3, size=(n, 3)), (3, 3, 3))
    resamples = rng.integers(0, n, size=(2, n))
    table = _table(data, 2, resamples)
    assert_same_table(
        table.values,
        DenseScoreCache(data, 2, resamples).values)
    assert table._terms.size < 0.01 * (n + 1) ** 2

"""The windowed, blocked LOESS against the straightforward per-point loop.

The reference is the original implementation: at every evaluation point a
full ``np.partition`` of all n distances for h, tricube weights over all n
samples and five dot products.  It returns NaN when every weight vanishes
and a meaningless slope when the weighted samples share one x; the library
replaces those two with means, so the reference also says which points are
degenerate and what the library must return there.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqual.loess import loess

loess_module = importlib.import_module("relqual.loess")


def reference_point(x, y, x0, r):
    """(value, degenerate) at x0: the original loop body, plus the value
    the library promises where that body has no line to fit."""
    d = np.abs(x - x0)
    h = np.partition(d, r - 1)[r - 1]
    if h <= 0:
        return y[d == 0].mean(), False
    w = np.clip(d / h, 0.0, 1.0)
    w = (1.0 - w ** 3) ** 3
    sw = w.sum()
    if sw == 0:
        return y[d <= h].mean(), True
    xm = (w @ x) / sw
    ym = (w @ y) / sw
    if np.unique(x[w > 0]).size < 2:
        return ym, True
    sxx = w @ ((x - xm) ** 2)
    if sxx <= 0:
        return ym, True
    slope = (w @ ((x - xm) * (y - ym))) / sxx
    return ym + slope * (x0 - xm), False


def reference_loess(x, y, x_eval, span):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    r = max(2, math.ceil(span * x.shape[0]))
    points = [reference_point(x, y, x0, r) for x0 in np.asarray(x_eval, float)]
    return (np.array([v for v, _ in points]),
            np.array([flag for _, flag in points], dtype=bool))


@st.composite
def loess_cases(draw):
    """Unsorted, often duplicated integer x; x_eval on a half-integer grid
    reaching past the data on both sides; spans from r = 2 up to r = n."""
    n = draw(st.integers(2, 40))
    x = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=n,
                      max_size=n))
    x_eval = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=60))
    span = draw(st.one_of(st.floats(1e-3, 1.0), st.just(1.0),
                          st.just(2.0 / n), st.just(1e-3)))
    return (np.array(x, dtype=float), np.array(y), np.array(x_eval) / 2.0,
            span)


@settings(max_examples=300, deadline=None)
@given(loess_cases())
def test_loess_matches_reference_loop(case):
    x, y, x_eval, span = case
    got = loess(x, y, x_eval=x_eval, span=span)
    want, _ = reference_loess(x, y, x_eval, span)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("block_bytes", [8, 8 * 7 * 3, 1 << 16])
def test_loess_blocks_of_any_size(monkeypatch, block_bytes):
    """Blocks of one point, of a few points (101 is not a multiple of
    them), and one block for all."""
    monkeypatch.setattr(loess_module, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(3)
    x = rng.permutation(np.repeat(np.arange(30.0), 2))
    y = rng.normal(size=x.size)
    x_eval = np.linspace(-5, 35, 101)
    want, _ = reference_loess(x, y, x_eval, 0.1)
    np.testing.assert_allclose(loess(x, y, x_eval=x_eval, span=0.1), want,
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("span", [0.02, 0.05, 0.3, 1.0])
def test_loess_timeline_shape(span):
    """Two years of days with about 2% missing, as a package timeline has."""
    rng = np.random.default_rng(11)
    days = np.arange(728.0)
    usable = rng.random(days.size) > 0.02
    quality = np.where(rng.random(days.size) < 0.3,
                       rng.exponential(1e-3, days.size), 0.0)
    got = loess(days[usable], quality[usable], x_eval=days, span=span)
    want, degenerate = reference_loess(days[usable], quality[usable], days,
                                       span)
    assert not degenerate.any()
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_loess_all_weights_zero_gives_mean_within_h():
    # r = 2 nearest of 1.5 are all at distance 0.5, so every weight is 0
    got = loess([0, 1, 1, 2, 2], [1, 2, 3, 4, 5], x_eval=[1.5], span=0.4)
    assert got.tolist() == [3.5]


def test_loess_single_distinct_x_gives_weighted_mean():
    # the weighted samples all sit at x = 0.1, whose mean is off by an ulp,
    # so the loop's slope was rounding noise over rounding noise (2.33 at
    # x0 = -0.3 against a mean of -0.38)
    rng = np.random.default_rng(5)
    x = np.array([-0.9, 0.1, 0.1, 0.1, 2.1])
    y = rng.standard_normal(x.size)
    got = loess(x, y, x_eval=[-0.3, 0.6], span=0.8)
    np.testing.assert_allclose(got, y[1:4].mean(), rtol=1e-12)


def test_loess_zero_radius_keeps_the_mean_at_the_point():
    x = np.array([2.0, 1.0, 1.0, 1.0, 3.0])
    y = np.array([7.0, 1.0, 2.0, 6.0, 5.0])
    assert loess(x, y, x_eval=[1.0], span=0.6).tolist() == [3.0]


def test_loess_empty_x_eval():
    assert loess([0.0, 1.0], [1.0, 2.0], x_eval=[]).shape == (0,)

"""Tricube-weighted local linear smoothing."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# bytes of one (points x window) float temporary; blocks of evaluation
# points are sized to it so memory stays flat in the number of points
BLOCK_BYTES = 1 << 16


def loess(x: np.ndarray, y: np.ndarray, x_eval: np.ndarray | None = None,
          span: float = 0.3) -> np.ndarray:
    """Smooth y over x, evaluated at ``x_eval`` (default: the sample points).

    At each evaluation point x0 the nearest ``r = max(2, ceil(span * n))``
    samples set the radius h (the r-th smallest distance), the samples get
    tricube weights ``(1 - (d/h)^3)^3`` and a weighted straight line is
    fitted; on exactly linear input the fit reproduces the line regardless
    of the weights.

    The samples are sorted once.  The r nearest always form a contiguous
    run of the sorted samples, so h is the smaller radius of the two runs
    around the point where the run's midpoint passes x0, found by one
    ``searchsorted`` over the run sums; with sums that are exact (integer
    days) this is the very float a full partition gives.  Only samples
    with d < h carry weight, and they lie between ``searchsorted(x0 - h)``
    and ``searchsorted(x0 + h, "right")``: no float sits between a rounded
    bound and the exact one, so every sample outside has d >= h.  Points
    are evaluated in blocks over that window alone, never over all n.

    Two neighbourhoods have no line to fit.  h == 0 (at least r samples at
    x0) and a zero weight sum (all r nearest exactly at distance h) give
    the mean of y over d <= h; fewer than two distinct x with positive
    weight give the weighted mean of y.  Finite input never yields NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    if not 0 < span <= 1:
        raise ValueError("span must be in (0, 1]")
    if x_eval is None:
        x_eval = x
    x_eval = np.asarray(x_eval, dtype=float)

    r = max(2, math.ceil(span * n))
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]

    # h: the smaller radius of the runs starting just before and at the
    # first run whose midpoint is not left of x0
    first = np.searchsorted(xs[:n - r + 1] + xs[r - 1:], 2.0 * x_eval)
    h = np.minimum(_run_radius(xs, x_eval, np.maximum(first - 1, 0), r),
                   _run_radius(xs, x_eval, np.minimum(first, n - r), r))
    lo = np.searchsorted(xs, x_eval - h)
    hi = np.searchsorted(xs, x_eval + h, side="right")

    out = np.empty(x_eval.shape[0])
    flat = []   # points whose fit falls back to the mean over d <= h
    rows = np.flatnonzero(h > 0)
    flat.extend(np.flatnonzero(h <= 0))
    if rows.size:
        width = int((hi[rows] - lo[rows]).max())
        block = max(1, BLOCK_BYTES // (8 * width))
        for s in range(0, rows.size, block):
            part = rows[s:s + block]
            out[part], empty = _fit_block(xs, ys, x_eval[part], h[part],
                                          lo[part], hi[part])
            flat.extend(part[empty])
    for i in flat:
        d = np.abs(x - x_eval[i])
        out[i] = y[d <= h[i]].mean()
    return out


def _run_radius(xs, x0, start, r):
    """Largest distance from x0 within the sorted run xs[start:start + r]."""
    return np.maximum(x0 - xs[start], xs[start + r - 1] - x0)


def _fit_block(xs, ys, x0, h, lo, hi):
    """Local linear fits at the points x0 whose weighted samples lie in
    xs[lo:hi], and the mask of points whose weights all vanish.

    Every point gets a window of the same width, shifted left where it
    would run past the end; the extra samples lie at d >= h and weigh 0.
    """
    width = int((hi - lo).max())
    start = np.minimum(lo, xs.shape[0] - width)
    xw = sliding_window_view(xs, width)[start]
    yw = sliding_window_view(ys, width)[start]
    # offsets from x0 and from the window's first y, so y that is constant
    # over a window gives exactly that constant
    dx = xw - x0[:, None]
    y0 = yw[:, 0]
    dy = yw - y0[:, None]
    # tricube, in place: (1 - min(d/h, 1)^3)^3
    w = np.abs(dx)
    w /= h[:, None]
    np.minimum(w, 1.0, out=w)
    w *= w * w
    np.subtract(1.0, w, out=w)
    w *= w * w
    sw = w.sum(axis=1)
    empty = sw == 0
    sw[empty] = 1.0
    mx = np.einsum("ij,ij->i", w, dx) / sw
    my = np.einsum("ij,ij->i", w, dy) / sw
    dx -= mx[:, None]
    dy -= my[:, None]
    wdx = w * dx
    sxx = np.einsum("ij,ij->i", wdx, dx)
    sxy = np.einsum("ij,ij->i", wdx, dy)
    # weighted samples form one contiguous run in each row
    positive = w > 0
    head = positive.argmax(axis=1)
    tail = width - 1 - positive[:, ::-1].argmax(axis=1)
    at = np.arange(x0.size)
    line = (xw[at, head] != xw[at, tail]) & (sxx > 0)
    slope = sxy / np.where(line, sxx, 1.0)
    ym = y0 + my
    return np.where(line, ym - slope * mx, ym), empty

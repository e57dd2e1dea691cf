"""Seed handling, and numpy's bounded draws replayed from raw blocks.

Every parallelizable unit gets a counter-derived stream (``split_seed``).
Code that runs many streams in lockstep draws one block of each stream's
raw uint32 values up front (``RawDraws``), as wide as its reads usually
go, and replays from it, value for value and raw draw for raw draw, what
the stream's own calls would have returned: ``Generator.integers(count)``
(``replay_integers``) and ``Generator.choice(p, mtry, replace=False)``
(``replay_choice``).  Only a read past a block's end, after rejected
draws, draws more.

The replays hold only while numpy keeps these algorithms: the bounded
draw (Lemire 2019, with numpy's rejection rule), unchanged since numpy
1.17, and ``choice``'s Floyd sampling (Bentley & Floyd, CACM 1987) with a
tail shuffle, or its partial Fisher-Yates shuffle of ``arange(p)`` when
p > 10000 and mtry > p // 50.  The property tests in
tests/test_search_oracle.py and tests/test_forest_oracle.py check them
against the installed numpy.
"""

from __future__ import annotations

import numpy as np


def rng_from(seed) -> np.random.Generator:
    """Coerce an int / SeedSequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def split_seed(seed: int, *path: int) -> np.random.SeedSequence:
    """Derive an independent child seed at a counter path.

    The same (seed, path) always yields the same stream, regardless of how
    many workers exist or in which order units run.
    """
    return np.random.SeedSequence(seed, spawn_key=tuple(path))


class RawDraws:
    """Each generator's raw uint32 draws (numpy's ``next_uint32``), one row
    per generator, read by stream position.  Every row starts with a block
    of ``width`` draws; a read past a row's end draws another ``width``
    from that row's generator only."""

    def __init__(self, rngs: list, width: int):
        self.rngs, self.width = rngs, width
        self.block = self._draw(np.arange(len(rngs)))
        self.end = np.full(len(rngs), width, dtype=np.int64)

    def _draw(self, rows: np.ndarray) -> np.ndarray:
        return np.array([self.rngs[i].integers(0, 2**32, size=self.width, dtype=np.uint32)
                         for i in rows.tolist()], dtype=np.uint32).reshape(-1, self.width)

    def __call__(self, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The draws at positions ``at`` of generators ``rows``."""
        while (past := at >= self.end[rows]).any():
            short = np.unique(np.broadcast_to(rows, past.shape)[past])
            grow = int(self.end[short].max()) + self.width - self.block.shape[1]
            if grow > 0:
                self.block = np.pad(self.block, ((0, 0), (0, grow)))
            self.block[short[:, None], self.end[short, None] + np.arange(self.width)] = \
                self._draw(short)
            self.end[short] += self.width
        return self.block[rows, at]


def replay_integers(raw: RawDraws, rows: np.ndarray, at: np.ndarray,
                    counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(count)`` of each (generator row, position,
    count > 0), replayed from raw draws; returns the values and the
    positions past the draws they used.

    This is numpy's bounded draw: a count of 1 draws nothing; otherwise
    m = x * count in 64 bits, a draw whose low word is below
    (2^32 - count) mod count is rejected for the next one, and the value
    is m >> 32.
    """
    bound = counts.astype(np.uint64)
    threshold = (2**32 - bound) % bound
    values = np.zeros(len(counts), dtype=np.int64)
    at = at.copy()
    todo = np.flatnonzero(counts > 1)
    while todo.size:
        m = raw(rows[todo], at[todo]).astype(np.uint64) * bound[todo]
        at[todo] += 1
        values[todo] = m >> 32
        todo = todo[(m & 0xFFFFFFFF) < threshold[todo]]
    return values, at


def _tail_shuffle(p: int, mtry: int) -> bool:
    """Whether ``choice(p, mtry, replace=False)`` takes numpy's partial
    shuffle of ``arange(p)`` rather than Floyd's sampling."""
    return p > 10000 and mtry > p // 50


def choice_counts(p: int, mtry: int) -> np.ndarray:
    """The counts of the bounded draws that one ``Generator.choice(p, mtry,
    replace=False)`` makes, in order, leaving out a count of 1, which
    draws nothing.

    Floyd's sampling draws below j + 1 for j = p - mtry ... p - 1, then
    the shuffle of the mtry picks draws below mtry ... 2; the partial
    shuffle of ``arange(p)`` draws below p, p - 1, ... down to
    max(p - mtry, 1) + 1."""
    if _tail_shuffle(p, mtry):
        return np.arange(p, max(p - mtry, 1), -1)
    return np.concatenate([np.arange(max(p - mtry, 1) + 1, p + 1),
                           np.arange(mtry, 1, -1)])


def replay_choice(raw: RawDraws, rows: np.ndarray, at: np.ndarray, p: int,
                  mtry: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """``calls`` successive ``Generator.choice(p, mtry, replace=False)`` of
    each generator row, from its position ``at``: the picks, shaped
    (rows, calls, mtry), and the positions past the draws they used.

    Every row is read at once as if no draw were rejected.  A rejection
    moves every later draw, so a row with a rejected draw (a chance below
    p / 2^32 per draw) is read again draw by draw (``replay_integers``).
    """
    each = choice_counts(p, mtry)
    counts = np.tile(each, calls)
    bound = counts.astype(np.uint64)
    m = raw(rows[:, None], at[:, None] + np.arange(counts.size)).astype(np.uint64)
    m *= bound      # in place, as are the shift and view below: rows can be wide
    redo = np.flatnonzero(((m & 0xFFFFFFFF) < (2**32 - bound) % bound).any(axis=1))
    values = np.right_shift(m, 32, out=m).view(np.int64)
    at = at + counts.size
    if redo.size:
        pos = at[redo] - counts.size
        for k, count in enumerate(counts.tolist()):
            values[redo, k], pos = replay_integers(raw, rows[redo], pos,
                                                   np.full(redo.size, count))
        at[redo] = pos
    picks = _choices(values.reshape(rows.size * calls, each.size), p, mtry)
    return picks.reshape(rows.size, calls, mtry), at


def _choices(values: np.ndarray, p: int, mtry: int) -> np.ndarray:
    """``choice(p, mtry, replace=False)`` of each row of bounded draws, laid
    out as ``choice_counts`` orders them."""
    n = values.shape[0]
    rows = np.arange(n)
    if _tail_shuffle(p, mtry):
        return _partial_shuffle(values, p, mtry)
    if mtry == p:   # j = 0 draws nothing and takes 0
        values = np.column_stack([np.zeros(n, dtype=np.int64), values])
    picks = np.empty((n, mtry), dtype=np.int64)
    for k, j in enumerate(range(p - mtry, p)):
        # Floyd: take the draw, or j when an earlier pick holds it
        v = values[:, k]
        picks[:, k] = np.where((picks[:, :k] == v[:, None]).any(axis=1), j, v)
    for k, i in enumerate(range(mtry - 1, 0, -1), start=mtry):
        # then swap each pick, from the last down to the second, with the
        # one at its draw
        j = values[:, k]
        held = picks[rows, j]
        picks[rows, j] = picks[:, i]
        picks[:, i] = held
    return picks


def _partial_shuffle(values: np.ndarray, p: int, mtry: int) -> np.ndarray:
    """numpy's other ``choice`` branch: ``arange(p)`` with entry i swapped
    with the entry at its draw, for i from p - 1 down to max(p - mtry, 1),
    then its last mtry entries.  Only the swapped entries are kept, as
    (position, entry) pairs: the latest pair of a position holds it, and a
    position in no pair holds itself."""
    n, steps = values.shape
    rows = np.arange(n)
    position = np.full((n, 2 * steps), -1)
    entry = np.empty_like(position)

    def read(q):
        hit = position == q[:, None]
        last = hit.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)
        return np.where(hit.any(axis=1), entry[rows, last], q)

    for s in range(steps):
        i, j = np.full(n, p - 1 - s), values[:, s]
        entry[:, 2 * s], entry[:, 2 * s + 1] = read(i), read(j)
        position[:, 2 * s], position[:, 2 * s + 1] = j, i
    return np.column_stack([read(np.full(n, q)) for q in range(p - mtry, p)])

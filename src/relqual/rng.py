"""Seed handling, PCG64 streams replayed by position, and numpy's bounded
draws replayed from them.

Every parallelizable unit gets a counter-derived stream, that of
``SeedSequence(seed, spawn_key=path)`` (``split_seed``).  Code that runs
many streams in lockstep builds neither object: ``Streams`` replays
``generate_state`` as uint32 hash-and-mix arithmetic, vectorized over the
last path entry, then PCG64's raw uint32 draws (``next_uint32``: the low
half of each 64-bit output, then the high half) at any position by the
LCG jump ahead state_k = A^k s + C_k inc mod 2^128 (O'Neill,
HMC-CS-2014-0905); wide blocks step numpy's own PCG64 from each stream's
state.  From those come, value for value and draw for draw,
``Generator.integers(count)`` (``replay_integers``, ``replay_rows``) and
``Generator.choice(p, mtry, replace=False)`` (``replay_choice``).

NEP 19 keeps bit-generator streams stable but lets ``Generator`` methods
change, so the stream replays rest on firmer ground than the method
replays.  Those hold while numpy keeps its bounded draw (Lemire 2019, with
numpy's rejection rule), unchanged since numpy 1.17, and ``choice``'s Floyd
sampling (Bentley & Floyd, CACM 1987) with a tail shuffle, or its partial
Fisher-Yates shuffle of ``arange(p)`` when p > 10000 and mtry > p // 50.
tests/test_rng.py, tests/test_search_oracle.py and tests/test_forest_oracle.py
check them against the installed numpy.
"""

from __future__ import annotations

import operator
from functools import lru_cache

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


# SeedSequence's hash and mix constants on uint32 words, and PCG64's multiplier
M32 = 2**32 - 1
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
NOTHING = 2**32     # a held draw that no uint32 takes: none held
# Blocks wider than this many draws a row step numpy's own PCG64 row by
# row: setting its state costs about 4 us, and each 64-bit output then
# about 1 ns, against about 40 ns of array arithmetic; the two cost the
# same near 200 draws a row
WIDE_BLOCK = 256


def _words(n) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, lowest first."""
    if (n := operator.index(n)) < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {n}")
    return [n >> shift & M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value, h: int, mult: int = MULT_A):
    """SeedSequence's hash of a word (an int, or a uint64 array of them)
    under hash constant ``h``: the hashed word and the next constant."""
    value = (value ^ h) * (h := h * mult & M32) & M32
    return value ^ value >> 16, h


def _seed_words(seed, path: tuple, last: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(*path, i)).generate_state(4,
    np.uint64)`` for each i of ``last`` (below 2^32), as (4, len(last))
    uint64.  A spawn key pads the seed's words to the pool size of 4, so i
    is the last word mixed into each pool word; the words are ints till then."""
    run = _words(seed)
    pool, h = [], INIT_A

    def mix(dst, word):
        nonlocal h
        word, h = _hashmix(word, h)
        mixed = (MIX_L * pool[dst] - MIX_R * word) & M32
        pool[dst] = mixed ^ mixed >> 16

    for word in (run + [0, 0, 0])[:4]:
        word, h = _hashmix(word, h)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mix(dst, pool[src])
    for word in run[4:] + [w for k in path for w in _words(k)] + [last.astype(np.uint64)]:
        for dst in range(4):
            mix(dst, word)
    state, h = [], INIT_B
    for i in range(8):
        word, h = _hashmix(pool[i % 4], h, MULT_B)
        state.append(word)
    return np.array([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)])


# 128-bit integers as (high, low) pairs of uint64 arrays, mod 2^128

def _mul(a, b):
    """a * b, the high half of the low words' product from 32-bit limbs."""
    x0, x1, y0, y1 = a[1] & M32, a[1] >> 32, b[1] & M32, b[1] >> 32
    u = x1 * y0 + (x0 * y0 >> 32)
    w = x0 * y1 + (u & M32)
    return x1 * y1 + (u >> 32) + (w >> 32) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _add(a, b):
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _split(values) -> tuple[np.ndarray, ...]:
    return tuple(np.array(half, dtype=np.uint64)
                 for half in zip(*(divmod(v, 2**64) for v in values)))


@lru_cache
def _jumps(level: int):
    """The maps of j * 256**level LCG steps, j < 256, each taking a state s
    to A s + C inc: as Python (A, C) ints, and as (A, C) 128-bit arrays."""
    unit = PCG_MULT, 1
    if level:
        lower = _jumps(level - 1)[0]
        (a, c), (a1, c1) = lower[255], lower[1]
        unit = a * a1 % 2**128, (a * c1 + c) % 2**128
    maps = [(1, 0)]
    for _ in range(255):
        a, c = maps[-1]
        maps.append((a * unit[0] % 2**128, (c * unit[0] + unit[1]) % 2**128))
    return maps, tuple(_split(column) for column in zip(*maps))


def _advance(state, inc, steps: np.ndarray):
    """The LCG states ``steps`` (int64 >= 0, broadcast with the states) on,
    by one map per base-256 digit of ``steps``."""
    maps, level = None, 0
    while maps is None or (steps >> 8 * level).any():
        (ah, al), (ch, cl) = _jumps(level)[1]
        d = steps >> 8 * level & 255
        a, c = (ah[d], al[d]), (ch[d], cl[d])
        maps = (a, c) if maps is None else (_mul(a, maps[0]), _add(_mul(a, maps[1]), c))
        level += 1
    return _add(_mul(maps[0], state), _mul(maps[1], inc))


def _output(state) -> np.ndarray:
    """PCG64's XSL-RR output of a state."""
    x, turn = state[0] ^ state[1], state[0] >> 58
    return x >> turn | x << ((64 - turn) & 63)


class Streams:
    """PCG64 streams, one per row, read by position: row r's draw at
    position q is the q-th raw uint32 draw its generator would make.

    ``words`` is (5, rows) uint64: each row's LCG state and increment, as
    (high, low) pairs, and the draw its generator holds back from its last
    64-bit output, which comes first (``NOTHING`` if none).
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    @classmethod
    def spawned(cls, seed, *path: int, count: int) -> Streams:
        """The streams of ``SeedSequence(seed, spawn_key=(*path, i))``, i <
        count, seeded as PCG64 seeds: increment 2 (v2, v3) + 1, and the state
        two LCG steps from 0 that add (v0, v1) between them."""
        v = _seed_words(seed, path, np.arange(count))
        inc = v[2] << 1 | v[3] >> 63, v[3] << 1 | 1
        state = _add(_mul(_add(inc, (v[0], v[1])), _split([PCG_MULT])), inc)
        return cls(np.stack([*state, *inc, np.full(count, NOTHING, dtype=np.uint64)]))

    @classmethod
    def of(cls, seeds) -> Streams:
        """The streams of ``seeds``, ints, SeedSequences or PCG64 Generators,
        each read from the state of its generator (``rng_from``)."""
        generators = [s for s in seeds if isinstance(s, np.random.Generator)]
        if len(set(map(id, generators))) < len(generators):
            raise ValueError("a Generator appears more than once among the seeds; "
                             "each sample draws from its own")
        rows = []
        for seed in seeds:
            state = rng_from(seed).bit_generator.state
            if state["bit_generator"] != "PCG64":
                raise ValueError("streams replay PCG64 generators only, not "
                                 f"{state['bit_generator']}")
            rows.append([*divmod(state["state"]["state"], 2**64),
                         *divmod(state["state"]["inc"], 2**64),
                         state["uinteger"] if state["has_uint32"] else NOTHING])
        return cls(np.array(rows, dtype=np.uint64).T.copy())

    def __len__(self) -> int:
        return self.words.shape[1]

    def __getitem__(self, rows) -> Streams:
        """The streams of ``rows``: an index, a slice or an index array."""
        return Streams(self.words[:, rows].reshape(5, -1))

    def block(self, width: int) -> np.ndarray:
        """Every row's first ``width`` draws, as (rows, width) uint32: from
        the jump ahead, or past ``WIDE_BLOCK`` from one PCG64 bit generator
        set to each row's state in turn."""
        count = (width + 1) // 2      # 64-bit outputs
        if width <= WIDE_BLOCK:
            w = self.words[:, :, None]
            outputs = _output(_advance(w[:2], w[2:4], np.arange(1, count + 1)))
        else:
            bits, outputs = np.random.PCG64(0), np.empty((len(self), count), dtype=np.uint64)
            for row, (sh, sl, ih, il) in zip(outputs, self.words[:4].T.tolist()):
                bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                              "state": {"state": sh << 64 | sl, "inc": ih << 64 | il}}
                row[:] = bits.random_raw(count)
        # each output's low half, then its high half
        draws = outputs.astype("<u8", copy=False).view("<u4").reshape(len(self), -1)
        if (held := self.words[4] < NOTHING).any():
            draws[held] = np.column_stack([self.words[4, held], draws[held, :-1]])
        return draws[:, :width]

    def skip(self, at: np.ndarray) -> Streams:
        """These streams from each row's position ``at`` on."""
        fresh = at - (self.words[4] < NOTHING)  # -1: the held draw comes next
        state = _advance(self.words[:2], self.words[2:4], (fresh + 1) >> 1)
        held = np.where(fresh % 2 == 1, _output(state) >> 32, NOTHING)
        return Streams(np.stack([*state, *self.words[2:4],
                                 np.where(fresh < 0, self.words[4], held)]))

    def raw(self, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The draws at positions ``at`` of ``rows``, both 1-d."""
        return self[rows].skip(at).block(1)[:, 0]


class RawDraws:
    """The draws of ``streams`` by (row, position): every row's first
    ``width`` computed at once, any later one on its own."""

    def __init__(self, streams: Streams, width: int):
        self.streams, self.block = streams, streams.block(width)

    def __call__(self, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The draws at positions ``at`` of rows ``rows``, broadcast together."""
        rows, at = np.broadcast_arrays(rows, at)
        past = at >= self.block.shape[1]
        values = self.block[rows, np.where(past, 0, at)]
        if past.any():
            values[past] = self.streams.raw(rows[past], at[past])
        return values


def move_on(rng: np.random.Generator, draws: int) -> None:
    """Leave a PCG64 generator as drawing ``draws`` raw uint32 values would:
    ``advance`` past every 64-bit output but the last, then draw from it."""
    if draws:
        fresh = draws - rng.bit_generator.state["has_uint32"]
        if fresh > 0:
            rng.bit_generator.advance((fresh - 1) // 2)
        rng.integers(0, 2**32, size=2 - fresh % 2 if fresh > 0 else 1, dtype=np.uint32)


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


def _replay_bounded(raw: RawDraws, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(count)`` for each of ``counts`` (each above 1)
    in turn, of every generator row of ``raw`` from its first draw: the
    values, shaped (rows, counts), and the positions past the draws they
    used.

    Every row is read at once as if no draw were rejected.  A rejection
    (a chance below count / 2^32 per draw) moves every later draw of its
    row on by one, so the rows with one are read again, from their first
    rejected draw on one draw further, until none is left.
    """
    bound = counts.astype(np.uint64)
    threshold = ((2**32 - bound) % bound).astype(np.uint32)
    k, rows = np.arange(counts.size), np.arange(len(raw.block))
    # one uint64 product per draw, its low word cast off for the test and
    # shifted off in place for the value: rows can be wide
    m = np.multiply(raw.block[:, :k.size] if k.size <= raw.block.shape[1] else
                    raw(rows[:, None], k), bound, dtype=np.uint64)
    rejected = m.astype(np.uint32) < threshold
    redo = np.flatnonzero(rejected.any(axis=1))
    values = np.right_shift(m, 32, out=m).view(np.int64)
    at = np.full(rows.size, k.size)
    rejected, pos = rejected[redo], k
    while redo.size:
        pos = pos + (k >= rejected.argmax(axis=1)[:, None])
        m = np.multiply(raw(redo[:, None], pos), bound, dtype=np.uint64)
        values[redo] = m >> 32
        rejected = m.astype(np.uint32) < threshold
        at[redo] = pos[:, -1] + 1
        again = rejected.any(axis=1)
        redo, pos, rejected = redo[again], pos[again], rejected[again]
    return values, at


def replay_rows(streams: Streams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(0, n, size=n)`` of every row's generator, as
    (rows, n) int64, and the positions past the draws they used."""
    if n == 1:  # a count of 1 draws nothing
        return np.zeros((len(streams), 1), dtype=np.int64), np.zeros(len(streams), dtype=np.int64)
    return _replay_bounded(RawDraws(streams, n), np.full(n, n))


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


def replay_choice(raw: RawDraws, p: int, mtry: int,
                  calls: int) -> tuple[np.ndarray, np.ndarray]:
    """``calls`` successive ``Generator.choice(p, mtry, replace=False)`` of
    every generator row of ``raw``, from its first draw: the picks, shaped
    (rows, calls, mtry), and the positions past the draws they used."""
    each = choice_counts(p, mtry)
    values, at = _replay_bounded(raw, np.tile(each, calls))
    picks = _choices(values.reshape(len(values) * calls, each.size), p, mtry)
    return picks.reshape(len(values), calls, mtry), at


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

"""The stream replays of relqual.rng against the installed numpy.

``Streams`` replays ``SeedSequence.generate_state`` and PCG64's raw uint32
draws without building either object.  numpy's own SeedSequence, PCG64
and ``bit_generator.advance`` are the references here; CI runs this
module first, so that a numpy whose streams differ fails on the replay
that differs, before any golden digest does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relqual.forest as forest
from relqual.data import Dataset
from relqual.dag import VariableSet
from relqual.rng import WIDE_BLOCK, RawDraws, Streams, _seed_words, replay_rows
from relqual.search import HcConfig, bootstrap_average, hc_learner, hill_climb
from test_search_oracle import PlantedStream, PlantedStreams, gaussian_data, ref_hill_climb

SEEDS = st.one_of(st.integers(0, 2**128), st.integers(0, 2**32 - 1),
                  st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 3**99]))
PATHS = st.lists(st.integers(0, 2**40), max_size=3).map(tuple)


def generator(seed, *path):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


@settings(max_examples=200, deadline=None)
@given(SEEDS, PATHS, st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
def test_seed_words_and_pcg64_seeding_equal_numpy(seed, path, last):
    words = _seed_words(seed, path, np.array(last))
    for i, k in enumerate(last):
        sequence = np.random.SeedSequence(seed, spawn_key=path + (k,))
        assert words[:, i].tolist() == sequence.generate_state(4, np.uint64).tolist()
    streams = Streams.spawned(seed, *path, count=len(last))
    for i in range(len(last)):
        lcg = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path + (i,))).state["state"]
        assert streams.words[:, i].tolist() == [
            lcg["state"] >> 64, lcg["state"] & 2**64 - 1,
            lcg["inc"] >> 64, lcg["inc"] & 2**64 - 1, 2**32]


def numpy_draw(rng, at):
    """The raw uint32 draw at position ``at`` of ``rng``, by numpy's own
    jump ahead: past the 64-bit outputs before it, then the draw itself."""
    held = rng.bit_generator.state["has_uint32"]
    if at < held:
        return int(rng.integers(0, 2**32, dtype=np.uint32))
    rng.bit_generator.advance((at - held) // 2)
    return int(rng.integers(0, 2**32, size=1 + (at - held) % 2, dtype=np.uint32)[-1])


@settings(max_examples=100, deadline=None)
@given(SEEDS, PATHS, st.integers(1, 4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10**6)), min_size=1,
                max_size=8), st.integers(1, 2 * WIDE_BLOCK))
def test_raw_draws_at_any_position_equal_numpy(seed, path, count, reads, width):
    # blocks up to WIDE_BLOCK draws wide come from the jump ahead, wider
    # ones from numpy's PCG64 set to each stream's state
    streams = Streams.spawned(seed, *path, count=count)
    rows = np.array([r % count for r, _ in reads])
    at = np.array([a for _, a in reads])
    got = streams.raw(rows, at)
    for r, a, value in zip(rows.tolist(), at.tolist(), got.tolist()):
        assert value == numpy_draw(generator(seed, *path, r), a)
    block = streams.block(width)
    for r in range(count):
        assert block[r].tolist() == generator(seed, *path, r).integers(
            0, 2**32, size=width, dtype=np.uint32).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 9), st.integers(0, 2000),
       st.integers(1, 2 * WIDE_BLOCK))
def test_a_generator_s_stream_starts_at_its_state_and_skips_by_position(
        seed, before, skip, width):
    # an odd number of draws before leaves half a 64-bit output held back
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, size=before, dtype=np.uint32)
    streams = Streams.of([rng]).skip(np.array([skip]))
    rng.integers(0, 2**32, size=skip, dtype=np.uint32)
    assert streams.block(width)[0].tolist() == \
        rng.integers(0, 2**32, size=width, dtype=np.uint32).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64), st.integers(2, 300), st.integers(1, 5))
def test_bootstrap_rows_equal_generator_integers(seed, n, count):
    rows, at = replay_rows(Streams.spawned(seed, 1, count=count), n)
    for i in range(count):
        rng = generator(seed, 1, i)
        assert rows[i].tolist() == rng.integers(0, n, size=n).tolist()
        assert numpy_draw(generator(seed, 1, i), int(at[i])) == \
            rng.integers(0, 2**32, dtype=np.uint32)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 60).filter(lambda n: n & (n - 1)), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 200), max_size=12), st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, 200), st.integers(-1, 0)), max_size=6))
def test_bootstrap_rows_with_planted_rejections(n, seed, zeros, count, edges):
    """A raw 0 is rejected for every n that is not a power of two: each
    one moves the rest of its row's draws on by one.  For odd n, draws
    whose product's low word is the threshold (2^32 - n) mod n itself, or
    one below it, are planted too: the first is kept, the second rejected."""
    values = np.random.default_rng(seed).integers(1, 2**32, size=(count, 3 * n + 20),
                                                  dtype=np.uint32)
    values[0, [z % values.shape[1] for z in zeros]] = 0
    if n % 2:
        threshold, inverse = (2**32 - n) % n, pow(n, -1, 2**32)
        for at, below in edges:
            values[-1, at % values.shape[1]] = (threshold + below) * inverse % 2**32
    assert (values[:, 2 * n:] > 0).sum(axis=1).min() >= n
    rows, at = replay_rows(PlantedStreams(values), n)
    for row, end, stream in zip(rows, at, values):
        serial = PlantedStream(stream)
        assert row.tolist() == [serial.integers(n) for _ in range(n)]
        assert end == serial.pos


def test_bootstrap_rows_of_one_row_draw_nothing():
    rows, at = replay_rows(Streams.spawned(3, 1, count=2), 1)
    assert rows.tolist() == [[0], [0]] and at.tolist() == [0, 0]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 5), st.integers(1, 4), st.integers(0, 4))
def test_a_caller_s_generator_ends_where_the_serial_draws_leave_it(
        seed, before, restarts, perturb):
    data = gaussian_data(7, 4, 30)
    cfg = HcConfig(restarts=restarts, perturb=perturb, max_parents=2)
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (mine, ref):
        rng.integers(0, 2**32, size=before, dtype=np.uint32)
    assert hill_climb(data, cfg, seed=mine) == ref_hill_climb(data, cfg, seed=ref)
    assert mine.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM,
                                           np.random.Philox, np.random.SFC64])
def test_a_generator_that_is_not_pcg64_is_refused_by_name(bit_generator):
    rng = np.random.Generator(bit_generator(1))
    name = bit_generator.__name__
    with pytest.raises(ValueError, match=f"PCG64 generators only, not {name}$"):
        hill_climb(gaussian_data(1, 3, 20), HcConfig(restarts=2), seed=rng)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative integer, got -1"):
        Streams.spawned(-1, 2, count=3)
    with pytest.raises(ValueError, match="non-negative integer, got -4"):
        bootstrap_average(gaussian_data(1, 3, 20), hc_learner(HcConfig()), 2, seed=-4)


def test_raw_draws_past_the_block_are_replayed_on_their_own():
    streams = Streams.spawned(5, 2, count=3)
    raw = RawDraws(streams, 4)
    rows, at = np.array([[0, 2], [1, 1]]), np.array([[3, 4], [70, 2]])
    assert raw(rows, at).tolist() == [[numpy_draw(generator(5, 2, r), a)
                                       for r, a in zip(*pair)]
                                      for pair in zip(rows.tolist(), at.tolist())]


class Spy:
    """Counts the SeedSequences and generators built through numpy.random."""

    def __init__(self, monkeypatch):
        self.built = {"SeedSequence": 0, "default_rng": 0}
        for name, built in [(name, getattr(np.random, name)) for name in self.built]:
            monkeypatch.setattr(np.random, name, self.counting(name, built))

    def counting(self, name, built):
        def build(*args, **kwargs):
            self.built[name] += 1
            return built(*args, **kwargs)
        return build


def test_bootstraps_and_tuning_build_no_seed_sequence_or_generator(monkeypatch):
    data = gaussian_data(3, 5, 60)
    x = np.random.default_rng(4).standard_normal((80, 4))
    table = Dataset(VariableSet(["a", "b", "c", "y"]), x)
    spy = Spy(monkeypatch)
    bootstrap_average(data, hc_learner(HcConfig(restarts=3)), 100, seed=2**64 + 5)
    assert spy.built == {"SeedSequence": 0, "default_rng": 0}
    # the fold assignments draw from a generator of their own per repeat
    forest.tune_forest(table, "y", ((6, 2),), k_repeats=2, k_folds=2, seed=9)
    assert spy.built == {"SeedSequence": 2, "default_rng": 2}

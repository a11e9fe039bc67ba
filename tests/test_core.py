from __future__ import annotations

import gc
import types
from fractions import Fraction
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistick import core
from persistick.core import (
    Decomposer,
    Extremum,
    Kind,
    PersistentPair,
    Sample,
    StreamOrderError,
    TopStructure,
    _pair_segments,
    decompose,
)
from persistick.oracle import decomposition_digest, gen_random_walk, level_sweep_pairs
from persistick.powerlaw import fit
from persistick.spectrum import histogram

from conftest import (
    assert_conserved,
    assert_equivalent_decomposition,
    assert_same_decomposition,
    pair_tuples,
    stream_decompose,
    top_tuples,
)


class TestPushExamples:
    def test_five_sample_reversal(self):
        # 5,1,4,2,6: the inner dip (2) against the bounce (4) completes
        # exactly when the last sample passes the bounce.
        d = Decomposer()
        emitted = []
        for t, v in enumerate([5, 1, 4, 2, 6]):
            emitted.append(d.push(Sample(t, v)))
        assert emitted[:4] == [[], [], [], []]
        assert len(emitted[4]) == 1
        pair = emitted[4][0]
        assert pair.minimum == Extremum(3, 2, Kind.MIN)
        assert pair.maximum == Extremum(2, 4, Kind.MAX)
        assert pair.size == 2
        dec = d.finish()
        assert dec.tv_total == 13
        assert dec.tv_top == 9
        assert top_tuples(dec) == [(0, 5, 1), (1, 1, -1)]
        assert dec.top.pending == Sample(4, 6)
        assert_conserved(dec)

    def test_incomplete_reversal_stays_in_top(self):
        dec = stream_decompose([5, 1, 4, 2])
        assert dec.pairs == []
        assert dec.tv_total == 9
        assert dec.tv_top == 9

    def test_monotone_run_never_pairs(self):
        dec = stream_decompose([1, 2, 3, 4])
        assert dec.pairs == []
        assert dec.tv_total == 3
        assert dec.tv_top == 3
        assert top_tuples(dec) == [(0, 1, -1)]
        assert dec.top.pending == Sample(3, 4)

    def test_expanding_outer_structure(self):
        # 2,5,1,6 keeps widening: nothing nests, nothing pairs.
        dec = stream_decompose([2, 5, 1, 6])
        assert dec.pairs == []
        assert dec.tv_total == 12 and dec.tv_top == 12

    def test_contained_reversal_pairs(self):
        dec = stream_decompose([1, 5, 2, 6])
        assert pair_tuples(dec) == [(2, 2, 1, 5)]
        assert_conserved(dec)

    def test_plateau_collapses_to_earliest_sample(self):
        dec = stream_decompose([4, 4, 7, 7, 2, 9])
        assert dec.pairs == []
        assert dec.tv_total == 15 and dec.tv_top == 15
        # the plateau keeps its first timestamp
        assert top_tuples(dec) == [(0, 4, -1), (2, 7, 1), (4, 2, -1)]
        assert dec.top.pending == Sample(5, 9)

    def test_repeated_value_emits_nothing(self):
        d = Decomposer()
        d.push(Sample(0, 3))
        assert d.push(Sample(1, 3)) == []
        assert d.finish().tv_total == 0

    def test_time_order_enforced(self):
        d = Decomposer()
        d.push(Sample(5, 1))
        with pytest.raises(StreamOrderError):
            d.push(Sample(4, 2))

    def test_equal_times_allowed(self):
        dec = stream_decompose([1, 5, 2], times=[7, 7, 7])
        assert dec.tv_total == 7

    def test_finish_is_non_destructive(self):
        d = Decomposer()
        for t, v in enumerate([5, 1, 4, 2]):
            d.push(Sample(t, v))
        first = d.finish()
        emitted = d.push(Sample(4, 6))
        assert len(emitted) == 1
        second = d.finish()
        assert first.pairs == []
        assert len(second.pairs) == 1

    def test_empty_and_single(self):
        d = Decomposer()
        dec = d.finish()
        assert dec.pairs == [] and dec.top.pending is None and dec.tv_total == 0
        d.push(Sample(0, 9))
        dec = d.finish()
        assert dec.top.pending == Sample(0, 9) and dec.tv_top == 0


class TestBatchDecompose:
    def test_matches_streaming_on_reference_series(self, reference_series):
        times, values = reference_series
        assert_same_decomposition(
            decompose(values, times), stream_decompose(values.tolist())
        )

    def test_rejects_float_values(self):
        with pytest.raises(TypeError):
            decompose(np.array([1.0, 2.0]))
        # numpy reads each of these lists as float64 or object; the items decide.
        for values in ([1, 2.5], [1, Fraction(3, 2)], [2**63, 0.5], [2**64, 1.0]):
            with pytest.raises(TypeError, match="must be integers"):
                decompose(values)

    def test_rejects_float_times(self):
        # Truncated, these would put both top extrema at time 0.
        with pytest.raises(TypeError, match="times must be integers"):
            decompose([5, 1, 4, 2, 6], [0.2, 0.9, 1.5, 1.99, 3.7])
        with pytest.raises(TypeError, match="times must be integers"):
            decompose([5, 1], [0, Fraction(1, 2)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            decompose([1, 2, 3], times=[0, 1])

    def test_rejects_uint64_times_beyond_int64(self):
        # Cast to int64 these would wrap to negative times; the stream keeps them exact.
        times = np.array([2**63 + 1, 2**63 + 2, 2**63 + 3, 2**63 + 4], dtype=np.uint64)
        with pytest.raises(ValueError, match="int64 range"):
            decompose([1, 3, 2, 5], times)
        assert stream_decompose([1, 3, 2, 5], times.tolist()).top.pending.time == 2**63 + 4
        # Lists beyond int64 too, which numpy reads as float64 or object.
        for beyond in ([1, 2**63], [1, 2**64], [-(2**63) - 1, 0]):
            with pytest.raises(ValueError, match="int64 range"):
                decompose(beyond)
            with pytest.raises(ValueError, match="int64 range"):
                decompose([1, 3], beyond)
        small = np.array([0, 1, 2, 2**63 - 1], dtype=np.uint64)
        want = stream_decompose([1, 3, 2, 5], small.tolist())
        assert_same_decomposition(decompose([1, 3, 2, 5], small), want)

    def test_rejects_decreasing_times(self):
        with pytest.raises(StreamOrderError):
            decompose([1, 2, 3], times=[0, 2, 1])

    def test_empty_input(self):
        dec = decompose([])
        assert dec.pairs == [] and dec.tv_total == 0 and dec.top.pending is None

    def test_constant_series(self):
        dec = decompose([7, 7, 7])
        assert dec.pairs == []
        assert dec.top.pending == Sample(0, 7)

    def test_lazy_pair_access(self):
        dec = decompose([5, 1, 4, 2, 6])
        assert dec.pair_count == 1
        assert int(dec.sizes().sum()) == 2
        assert dec.pairs[0].size == 2
        # repeated access returns the same list object
        assert dec.pairs is dec.pairs

    def test_pair_columns_in_both_states(self):
        values = [3, 6, 0, 7, 2, 5, 4, 8, 1, 9]
        times = [10 * i for i in range(len(values))]
        pairs = pair_tuples(stream_decompose(values, times))
        want = [np.array(c, dtype=np.int64) for c in zip(*pairs)]
        deferred = decompose(values, times)
        for dec in (deferred, stream_decompose(values, times)):
            cols = dec.pair_columns()
            assert all(c.dtype == np.int64 for c in cols)
            assert all(np.array_equal(c, w) for c, w in zip(cols, want))
        assert deferred._pairs is None  # columns did not build the objects
        deferred.pairs
        assert all(np.array_equal(c, w) for c, w in zip(deferred.pair_columns(), want))

    def test_pair_columns_empty(self):
        for dec in (decompose([]), decompose([1, 2, 3]), Decomposer().finish()):
            assert [c.shape for c in dec.pair_columns()] == [(0,)] * 4

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0, 2**63 + 5, 1, 2**63 + 9], dtype=np.uint64),  # values above int64
            np.array([-(3 << 61), 3 << 61], dtype=np.int64),  # spread 1.5 * 2**63
            np.array([0, 2**62, 0, 2**62, 0], dtype=np.int64),  # variation 2**64
        ],
    )
    def test_rejects_what_int64_cannot_hold(self, values):
        with pytest.raises(ValueError, match="int64"):
            decompose(values)

    def test_int64_extremes_are_exact(self):
        cases = (
            [0, 2**63 - 1],
            [-(2**62), 2**62 - 1],
            [2**63 - 1, 2**63 - 2, 2**63 - 1],
            [0, 2**62, 2**62 - 1, 2**62, 2**62 - 1],  # steps x spread overflows, the sum does not
        )
        for values in cases:
            for dtype in (np.int64, np.uint64):
                if dtype is np.uint64 and min(values) < 0:
                    continue
                dec = decompose(np.array(values, dtype=dtype))
                assert_same_decomposition(dec, stream_decompose(values))


class TestConservation:
    @given(st.lists(st.integers(-1000, 1000), max_size=200))
    @settings(max_examples=100)
    def test_variation_splits_exactly(self, values):
        dec = stream_decompose(values)
        assert_conserved(dec)
        assert dec.tv_total == sum(abs(b - a) for a, b in pairwise(values))

    @given(st.lists(st.integers(0, 4), max_size=60))
    @settings(max_examples=100)
    def test_stream_equals_batch_on_small_alphabet(self, values):
        assert_same_decomposition(stream_decompose(values), decompose(values))

    @given(
        st.lists(st.integers(-50, 50), max_size=120),
        st.integers(0, 3),
    )
    @settings(max_examples=100)
    def test_stream_equals_batch_with_gapped_times(self, values, gap):
        times = [i * (gap + 1) for i in range(len(values))]
        assert_same_decomposition(
            stream_decompose(values, times), decompose(values, times)
        )


class TestTypes:
    def test_pair_size(self):
        p = PersistentPair(Extremum(0, 3, Kind.MIN), Extremum(1, 9, Kind.MAX))
        assert p.size == 6

    def test_top_variation(self):
        top = TopStructure([Extremum(0, 2**64, Kind.MAX), Extremum(1, -3, Kind.MIN)], Sample(2, 4))
        assert top.variation() == 2**64 + 3 + 7
        assert TopStructure([], None).variation() == 0
        dec = decompose([5, 1, 4, 2, 6, 0])
        assert dec.top.variation() == dec.tv_top == 4 + 5 + 6

    def test_repr_small(self):
        dec = decompose([5, 1, 4, 2, 6])
        assert "pairs=1" in repr(dec)


class TestStreamBeyondInt64:
    """The streaming path is exact on Python ints of any size."""

    @pytest.mark.parametrize("scalar", [int, np.uint64])
    def test_values_above_int64(self, scalar):
        values = [0, 2**63 + 5, 1, 2**63 + 9]
        d = Decomposer()
        emitted = [d.push((t, scalar(v))) for t, v in enumerate(values)]
        dec = d.finish()
        assert dec.tv_total == 27670116110564327441
        assert [len(e) for e in emitted] == [0, 0, 0, 1]
        assert pair_tuples(dec) == [(2, 1, 1, 2**63 + 5)]
        assert decomposition_digest(dec) == decomposition_digest(level_sweep_pairs(values))

    def test_times_above_int64(self):
        values = [5, 1, 4, 2, 6, 3, 7]
        times = [2**63 + 10 * i for i in range(len(values))]
        dec = stream_decompose(values, times)
        assert pair_tuples(dec) == [(2**63 + 30, 2, 2**63 + 20, 4), (2**63 + 50, 3, 2**63 + 40, 6)]
        assert decomposition_digest(dec) == decomposition_digest(level_sweep_pairs(values, times))

    def test_sizes_beyond_int64_raise_value_error(self):
        dec = stream_decompose([0, 2**63 + 5, 1, 2**63 + 9])
        with pytest.raises(ValueError, match="int64"):
            dec.sizes()
        with pytest.raises(ValueError, match="int64"):
            dec.pair_columns()
        with pytest.raises(ValueError, match="int64"):
            histogram(dec)
        with pytest.raises(ValueError, match="int64"):
            fit(dec, min_tail=2)
        assert dec.pair_variation() == 2 * (2**63 + 4)

    def test_times_beyond_int64_keep_int64_sizes(self):
        values = [5, 1, 4, 2, 6, 3, 7]
        dec = stream_decompose(values, [2**63 + 10 * i for i in range(len(values))])
        assert dec.sizes().tolist() == [2, 3]
        assert histogram(dec) == histogram(decompose(values))

    def test_value_leaves_int64_after_frozen_chunks(self, monkeypatch):
        monkeypatch.setattr(Decomposer, "_CHUNK", 4)
        t, v = gen_random_walk(400, seed=11, kind="pm1", zero_prob=0.3)
        values = v.tolist() + [2**64, 2, 2**63 + 7, 2**63 + 1, 2**64 + 1] + (v[:100] + 5).tolist()
        times = list(range(len(values)))
        d = Decomposer()
        for s in zip(times[:400], values[:400]):
            d.push(s)
        before = d.finish()
        assert before.pair_count > 3 * 4  # several chunks were frozen
        want_before = decomposition_digest(before)
        emitted = []
        for s in zip(times[400:405], values[400:405]):
            emitted += d.push(s)
        assert (2**63 + 1, 2**63 + 7) in [(p.minimum.value, p.maximum.value) for p in emitted]
        after = d.finish()
        want_after = decomposition_digest(after)
        assert want_after == decomposition_digest(level_sweep_pairs(values[:405], times[:405]))
        for s in zip(times[405:], values[405:]):
            d.push(s)
        dec = d.finish()
        assert decomposition_digest(dec) == decomposition_digest(level_sweep_pairs(values, times))
        assert decomposition_digest(before) == want_before
        assert decomposition_digest(after) == want_after

    def test_object_blocks_are_frozen_and_shared(self, monkeypatch):
        monkeypatch.setattr(Decomposer, "_CHUNK", 3)
        t, v = gen_random_walk(200, seed=4, kind="pm1", zero_prob=0.3)
        # int64 pairs first, then pairs whose values leave int64
        values = v[:40].tolist() + [x + 2**63 for x in v[40:].tolist()]
        times = t.tolist()
        d = Decomposer()
        for s in zip(times[:150], values[:150]):
            d.push(s)
        first = d.finish()
        frozen = first._blocks[:-1]
        kinds = [b[1].dtype for b in frozen]
        assert kinds[0] == np.int64 and kinds.count(object) >= 3
        for s in zip(times[150:], values[150:]):
            d.push(s)
        second = d.finish()
        # The blocks frozen before the first snapshot are the same objects;
        # the second copied only its own open chunk.
        assert all(a is b for a, b in zip(second._blocks, frozen))
        assert len(second._blocks[-1][0]) == len(d._cols[0]) < 3
        oracle = level_sweep_pairs(values, times)
        assert decomposition_digest(second) == decomposition_digest(oracle)
        assert second.pair_variation() == oracle.pair_variation()
        oracle = level_sweep_pairs(values[:150], times[:150])
        assert decomposition_digest(first) == decomposition_digest(oracle)
        # A tail back inside int64: once the chunk open at its first sample
        # is frozen, every later block is int64 again.
        k = len(values)
        values += v[:120].tolist()
        times += range(times[-1] + 1, times[-1] + 121)
        d.push((times[k], values[k]))
        settled = len(d._blocks) + 1
        for s in zip(times[k + 1 :], values[k + 1 :]):
            d.push(s)
        third = d.finish()
        back = third._blocks[settled:-1]
        assert len(back) >= 2
        assert all(c.dtype == np.int64 for b in back for c in b)
        assert all(a is b for a, b in zip(third._blocks, second._blocks[:-1]))
        assert decomposition_digest(third) == decomposition_digest(level_sweep_pairs(values, times))

    @pytest.mark.parametrize(
        "values, size, dtype",
        [
            ([2**63 - 1, 0, 2**63 - 1, 0], 2**63 - 1, np.int64),
            # Both ends inside int64, but the size is not: in int64 it wraps.
            ([0, -(2**63), 0, -(2**63)], 2**63, object),
        ],
    )
    def test_block_size_at_the_int64_edge(self, monkeypatch, values, size, dtype):
        monkeypatch.setattr(Decomposer, "_CHUNK", 1)
        d = Decomposer()
        for s in enumerate(values):
            d.push(s)
        assert [c.dtype for c in d._blocks[0]] == [dtype] * 4  # frozen by _record
        dec = d.finish()
        assert [p.size for p in dec.pairs] == [size]
        assert dec.pair_variation() == 2 * size
        assert decomposition_digest(dec) == decomposition_digest(level_sweep_pairs(values))
        if dtype is np.int64:
            assert dec.sizes().tolist() == [size]
        else:
            with pytest.raises(ValueError, match="int64"):
                dec.sizes()


class TestSnapshots:
    """finish() shares frozen column blocks; snapshots never change afterwards."""

    @staticmethod
    def _assert_matches_batch(dec, values, times):
        want = decompose(values, times)
        assert decomposition_digest(dec) == decomposition_digest(want)
        got_cols, want_cols = dec.pair_columns(), want.pair_columns()
        assert all(np.array_equal(g, w) for g, w in zip(got_cols, want_cols))
        assert dec.pair_count == want.pair_count
        assert np.array_equal(dec.sizes(), want.sizes())

    @pytest.mark.parametrize("chunk", [1, 3, 5])
    def test_every_burst_matches_batch_across_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(Decomposer, "_CHUNK", chunk)
        times, values = gen_random_walk(3000, seed=chunk, kind="pm1", zero_prob=0.3)
        rng = np.random.default_rng(chunk)
        d = Decomposer()
        snapshots = []
        pos = 0
        while pos < len(values):
            burst = int(rng.integers(1, 60))
            for s in zip(times[pos : pos + burst].tolist(), values[pos : pos + burst].tolist()):
                d.push(s)
            pos = min(pos + burst, len(values))
            snap = d.finish()
            self._assert_matches_batch(snap, values[:pos], times[:pos])
            snapshots.append((snap, decomposition_digest(snap), snap.pair_columns()))
        assert snapshots[-1][0].pair_count > 10 * chunk
        for snap, digest, cols in snapshots:  # nothing later changed them
            assert decomposition_digest(snap) == digest
            assert all(np.array_equal(a, b) for a, b in zip(snap.pair_columns(), cols))

    def test_chunk_filled_exactly_at_finish(self, monkeypatch):
        monkeypatch.setattr(Decomposer, "_CHUNK", 4)
        times, values = gen_random_walk(2000, seed=5, kind="pm1", zero_prob=0.3)
        d = Decomposer()
        count = 0
        exact = []
        for i, s in enumerate(zip(times.tolist(), values.tolist())):
            new = len(d.push(s))
            count += new
            if new and count % 4 == 0:
                assert len(d._cols[0]) == 0  # the last pair froze the chunk
                snap = d.finish()
                exact.append(snap)
                self._assert_matches_batch(snap, values[: i + 1], times[: i + 1])
        assert len(exact) >= 3
        first = decomposition_digest(exact[0])
        for s in zip(times.tolist(), values.tolist()):
            d.push((s[0] + 2000, s[1]))
        assert decomposition_digest(exact[0]) == first

    def test_no_pair_objects_held_on_int64_input(self, monkeypatch):
        monkeypatch.setattr(Decomposer, "_CHUNK", 64)
        times, values = gen_random_walk(20_000, seed=9, kind="pm1", zero_prob=0.3)
        d = Decomposer()
        emitted = 0
        for s in zip(times.tolist(), values.tolist()):
            emitted += len(d.push(s))
        assert emitted > 10 * 64 and emitted % 64  # frozen blocks and an open chunk
        gc.collect()
        held = [o for o in _instance_graph(d) if isinstance(o, (PersistentPair, Extremum))]
        assert held == []
        assert d.finish().pair_count == emitted


def _instance_graph(obj) -> list:
    """Every object reachable from obj's attributes, not going into types or modules."""
    seen: dict[int, object] = {}
    todo = list(vars(obj).values())
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType)):
            continue
        seen[id(o)] = o
        todo.extend(gc.get_referents(o))
    return list(seen.values())


_I64 = st.integers(-(2**63), 2**63 - 1)
_I64_LEVEL = st.one_of(  # plain draws, plus both ends of the range
    _I64, st.integers(2**62, 2**63 - 1), st.integers(-(2**63), -(2**62))
)


@st.composite
def _int64_series(draw) -> tuple[list[int], list[int]]:
    """Values from a few int64 levels (ties and plateaus), with non-decreasing int64 times.

    The levels are spread over the whole range, or packed around one point
    of it so that batch decompose takes more of the series.
    """
    if draw(st.booleans()):
        levels = draw(st.lists(_I64_LEVEL, min_size=1, max_size=8))
    else:
        base = draw(_I64_LEVEL)
        offsets = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=7))
        levels = [min(max(base + o, -(2**63)), 2**63 - 1) for o in offsets]
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=len(levels), max_size=60))
    values = [levels[i] for i in picks]
    times = sorted(draw(st.lists(_I64, min_size=len(values), max_size=len(values))))
    return values, times


class TestFullInt64Range:
    @given(_int64_series())
    @settings(max_examples=300, deadline=None)
    def test_stream_equals_batch_equals_oracle(self, series):
        values, times = series
        streamed = stream_decompose(values, times)
        oracle = level_sweep_pairs(values, times)
        assert_equivalent_decomposition(streamed, oracle)
        assert streamed.pair_variation() == oracle.pair_variation()
        assert_conserved(streamed)
        try:
            batch = decompose(np.array(values, dtype=np.int64), np.array(times, dtype=np.int64))
        except ValueError as e:
            assert "int64" in str(e)
            assert max(values) - min(values) > 2**63 - 1 or streamed.tv_total > 2**63 - 1
        else:
            assert_same_decomposition(batch, streamed)
            assert batch.pair_variation() == streamed.pair_variation()

    def test_pair_variation_is_exact_beyond_int64(self):
        for values in ([0, 2**63 + 5, 1, 2**63 + 9], [0, 2**62, 0, 2**62, 0, 2**62, 0, 2**62]):
            dec = stream_decompose(values)
            assert dec.pair_variation() == level_sweep_pairs(values).pair_variation()
            assert_conserved(dec)


def _closed_spiral(m: int) -> np.ndarray:
    """Swings shrinking by one towards the middle, closed by one large move."""
    spiral = np.empty(2 * m + 1, dtype=np.int64)
    spiral[0:-1:2] = np.arange(m)
    spiral[1:-1:2] = 2 * m - np.arange(m)
    spiral[-1] = 10 * m
    return spiral


@st.composite
def _long_series(draw) -> tuple[np.ndarray, np.ndarray | None]:
    """Up to about 2 000 tie-heavy samples, at either end of int64 or near 0.

    Small alphabets, +-1/+-2 steps with plateaus, or a walk closed by a
    contracting spiral, on which the default rounds stop part-way.  Times
    are the indices, or non-decreasing with repeats.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2_000))
    shape = draw(st.sampled_from(["alphabet", "steps", "spiral"]))
    if shape == "alphabet":
        values = rng.integers(0, draw(st.integers(2, 5)), size=n)
    elif shape == "steps":
        values = np.cumsum(rng.choice([-2, -1, 0, 0, 1, 2], size=n))
    else:
        walk = np.cumsum(rng.choice([-1, 1], size=n))
        values = np.concatenate([walk, walk[-1] + _closed_spiral(draw(st.integers(1, 300)))])
    end = draw(st.sampled_from([0, -(2**63), 2**63 - 1]))
    values = values - (values.max() if end > 0 else values.min()) + end
    times = None
    if draw(st.booleans()):
        times = np.sort(rng.integers(0, values.size // 2 + 1, size=values.size))
    return values, times


class TestPairingRounds:
    """decompose's pairing rounds give Decomposer.push's pairs in its emission order."""

    # A round never removes all the extrema left, so a share of 1 stops the
    # rounds at once and 0 runs them until none is left to remove.
    @pytest.mark.parametrize("share", [None, 1, 0], ids=["default", "no-rounds", "all-rounds"])
    @given(series=_long_series())
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_stream_in_emission_order(self, share, series):
        values, times = series
        want = stream_decompose(values.tolist(), None if times is None else times.tolist())
        with pytest.MonkeyPatch.context() as mp:
            if share is not None:
                mp.setattr(core, "_ROUND_MIN_SHARE", share)
            assert_same_decomposition(decompose(values, times), want)

    def test_default_rounds_stop_part_way(self, monkeypatch):
        _, walk = gen_random_walk(20_000, seed=3, kind="gauss")
        spiral = _closed_spiral(5_000)
        values = np.concatenate([walk, walk[-1] + spiral])
        swept = []
        sweep = core._sweep

        def counting_sweep(e):
            swept.append(e.size)
            return sweep(e)

        monkeypatch.setattr(core, "_sweep", counting_sweep)
        dec = decompose(values)
        assert_same_decomposition(dec, stream_decompose(values.tolist()))
        # Every extremum ends in a pair, in the top or as the pending sample.
        extrema = 2 * dec.pair_count + len(dec.top.extrema) + 1
        # The rounds take much of the walk; the spiral, all but its innermost
        # swing, is left to the loop.
        assert len(swept) == 1
        assert spiral.size - 2 <= swept[0] < extrema - walk.size // 10

    @pytest.mark.parametrize(
        "values, pairs",
        [
            # Equal minima left of the removed swing (5, 3): (3, 5) pops first
            # on reading 9, then the tied minima pair the earlier one.
            ([0, 9, 0, 5, 3, 9, -1], [(4, 3), (0, 1)]),
            # The confirming 4 at index 7 steps down to the removed pair's 4
            # at index 5, which reaches the level exactly.
            ([0, 2, 0, 4, 0, 4, 2, 4], [(0, 1), (2, 3), (6, 5)]),
            # The confirming 10 equals the level of the pair (4, 10).
            ([0, 10, 4, 6, 5, 10, -5], [(4, 3), (2, 1)]),
            # Two removed pairs before the confirming 3 at index 7: (0, 1)
            # steps down twice, to index 3, ahead of both.
            ([0, 1, 0, 3, 1, 3, 2, 3, 0, 3, 0], [(0, 1), (4, 3), (6, 5), (2, 7)]),
            # (1, 2), confirmed by the 5 at index 8, steps to index 6, then to
            # index 4, whose 4 equals its level.
            ([3, 1, 4, 1, 4, 2, 5, 3, 5], [(1, 2), (5, 4), (7, 6)]),
        ],
        ids=["equal-minima", "tie-step", "tie-confirm", "two-steps", "two-steps-tied"],
    )
    def test_named_orders(self, values, pairs):
        dec = decompose(values)
        assert [(p.minimum.time, p.maximum.time) for p in dec.pairs] == pairs
        assert_same_decomposition(dec, stream_decompose(values))


@st.composite
def _segmented(draw) -> tuple[np.ndarray, list[int]]:
    """int64 values (ties and plateaus, small or over the full range) and segment starts.

    Repeated cuts make empty segments, and cuts one apart one-sample ones.
    """
    if draw(st.booleans()):
        values, _ = draw(_int64_series())
    else:
        hi = draw(st.sampled_from([1, 2, 4, 9]))
        values = draw(st.lists(st.integers(0, hi), max_size=80))
    cuts = draw(st.lists(st.integers(0, len(values)), max_size=8))
    return np.array(values, dtype=np.int64), [0, *sorted(cuts)]


def _assert_segments_equal_decompose(values: np.ndarray, starts: list[int], seg) -> None:
    """seg holds each segment's pairs in emission order, top and variation, as decompose alone."""
    ev = seg.ev
    for k, (a, b) in enumerate(zip(starts, [*starts[1:], values.size])):
        dec = decompose(values[a:b])
        pairs = slice(seg.pair_cuts[k], seg.pair_cuts[k + 1])
        same, other = seg.same[pairs], seg.other[pairs]
        lo = np.where(ev[same] < ev[other], same, other)
        hi = same + other - lo
        got = (seg.ext[lo] - a, ev[lo], seg.ext[hi] - a, ev[hi])
        assert [c.tolist() for c in got] == [c.tolist() for c in dec.pair_columns()]
        top = seg.top[seg.top_cuts[k] : seg.top_cuts[k + 1]]
        assert ev[top].tolist() == dec.top.values()
        times = [e.time for e in dec.top.extrema] + [s.time for s in [dec.top.pending] if s]
        assert (seg.ext[top] - a).tolist() == times
        assert seg.tv_total[k] == dec.tv_total
        assert np.array_equal(seg.sizes()[pairs], dec.sizes())


class TestPairSegments:
    """_pair_segments equals decompose on every segment, or raises where one of them does."""

    # As in TestPairingRounds: a share of 1 stops the rounds at once, 0 runs
    # them until none is left to remove.
    @pytest.mark.parametrize("share", [None, 1, 0], ids=["default", "no-rounds", "all-rounds"])
    @given(case=_segmented())
    @settings(max_examples=200, deadline=None)
    def test_each_segment_equals_decompose(self, share, case):
        values, starts = case
        try:
            for a, b in zip(starts, [*starts[1:], values.size]):
                decompose(values[a:b])
        except ValueError as e:
            assert "int64" in str(e)
            with pytest.raises(ValueError, match="more than int64 holds"):
                _pair_segments(values, np.array(starts))
            return
        with pytest.MonkeyPatch.context() as mp:
            if share is not None:
                mp.setattr(core, "_ROUND_MIN_SHARE", share)
            seg = _pair_segments(values, np.array(starts))
        _assert_segments_equal_decompose(values, starts, seg)

    # Swings of 2**61: the whole series' size * max swing leaves int64, while
    # each segment's fits; then one segment's leaves int64, though its sum fits.
    @pytest.mark.parametrize(
        "values, starts",
        [
            ([0, 2**61] * 5, [0, 2, 4, 6, 8]),
            ([0, 2**61, 0, 2**61, 5, 1, 2, 0], [0, 4, 6]),
        ],
        ids=["series", "segment"],
    )
    def test_segment_variation_exact(self, values, starts):
        values = np.array(values, dtype=np.int64)
        seg = _pair_segments(values, np.array(starts))
        pieces = [values[a:b].tolist() for a, b in pairwise([*starts, values.size])]
        exact = [sum(abs(y - x) for x, y in pairwise(piece)) for piece in pieces]
        assert seg.tv_total == exact
        assert all(type(tv) is int for tv in seg.tv_total)
        _assert_segments_equal_decompose(values, starts, seg)

    def test_variation_limit_is_int64_max(self):
        h = 2**62
        values = np.array([0, h, 1, 0, h, 0], dtype=np.int64)  # variations 2**63 - 1 and 2**63
        assert _pair_segments(values[:3], np.array([0])).tv_total == [2**63 - 1]
        with pytest.raises(ValueError, match=f"^total variation {2**63} is more than int64 holds$"):
            _pair_segments(values, np.array([0, 3]))

    def test_spirals_go_to_the_residue_sweep(self, monkeypatch):
        # Each round can remove only a spiral's innermost swing.
        spiral = _closed_spiral(10_000)
        _, walk = gen_random_walk(3_000, seed=2, kind="gauss")
        values = np.concatenate([walk, spiral, walk[:1], spiral[::-1]])
        starts = [0, walk.size, walk.size, values.size - spiral.size - 1, values.size - spiral.size]
        swept, decomposed = [], []
        sweep = core._sweep

        def counting_sweep(e):
            swept.append(e.size)
            return sweep(e)

        monkeypatch.setattr(core, "_sweep", counting_sweep)
        monkeypatch.setattr(core, "decompose", lambda *a: decomposed.append(a))
        seg = _pair_segments(values, np.array(starts))
        monkeypatch.undo()
        assert decomposed == []
        # The walk and both spirals reach the loop, the spirals nearly whole;
        # the empty and the one-sample segments do not.
        assert len(swept) == 3
        assert min(sorted(swept)[-2:]) >= spiral.size - 2
        _assert_segments_equal_decompose(values, starts, seg)

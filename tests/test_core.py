from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistick.core import (
    Decomposer,
    Extremum,
    Kind,
    PersistentPair,
    Sample,
    StreamOrderError,
    decompose,
    total_variation,
)

from conftest import (
    assert_conserved,
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

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            decompose([1, 2, 3], times=[0, 1])

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
        assert dec.tv_total == total_variation(Sample(t, v) for t, v in enumerate(values))

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

    def test_total_variation_empty(self):
        assert total_variation([]) == 0

    def test_repr_small(self):
        dec = decompose([5, 1, 4, 2, 6])
        assert "pairs=1" in repr(dec)
